// Anti-entropy chaos suite: the scrubber against the two silent-divergence
// scenarios nothing on the request path catches. (1) An asymmetric network
// partition blackholes one replica's inbound writes while the group keeps
// accepting on single acks; after the partition heals, one scrub round must
// flag the lagging replica as diverged (and only that replica — its
// advanced sibling must classify the mismatch as the peer's problem and
// hold state), auto-repair it from the healthy peer, and converge it
// byte-identically to the oracle, features included. (2) On-disk rot: a bit
// flipped in a snapshot's body or a WAL frame must be caught by the
// scrubber's CRC pass, repaired from a peer, and the durable files
// rewritten clean by the repair's closing Checkpoint.
package cluster

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/eventlog"
	"platod2gl/internal/faultinject"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

// antiEntropyHarness is the shared fixture for the scrub chaos tests: one
// logical shard replicated on two servers, each with an on-disk snapshot
// and WAL, plus a whole-graph oracle (topology and attributes) fed the same
// traffic.
type antiEntropyHarness struct {
	lc          *LocalCluster
	metrics     *Metrics
	walPath     func(i int) string
	snapPath    func(i int) string
	oracle      *storage.DynamicStore
	oracleAttrs *kvstore.Store
	gen         *dataset.Generator
}

func newAntiEntropyHarness(t *testing.T, wrap func(shard int, c net.Conn) net.Conn) *antiEntropyHarness {
	t.Helper()
	const peers = 2
	dir := t.TempDir()
	h := &antiEntropyHarness{
		metrics:     &Metrics{},
		walPath:     func(i int) string { return filepath.Join(dir, fmt.Sprintf("peer%d.wal", i)) },
		snapPath:    func(i int) string { return filepath.Join(dir, fmt.Sprintf("peer%d.snap", i)) },
		oracle:      storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}}),
		oracleAttrs: kvstore.New(),
		gen:         dataset.NewGenerator(dataset.OGBNSim().Scale(2e-5), dataset.DynamicMix, 13),
	}
	factory := func(i int) *Service {
		svc := NewService(storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}}), kvstore.New())
		svc.SetMetrics(h.metrics)
		return openDurable(t, svc, h.snapPath(i), h.walPath(i))
	}
	h.lc = NewLocalClusterOptions(peers, LocalOptions{
		Client: Options{
			CallTimeout:      500 * time.Millisecond,
			MaxRetries:       2,
			RetryBaseDelay:   time.Millisecond,
			RetryMaxDelay:    10 * time.Millisecond,
			BreakerThreshold: 4,
			BreakerCooldown:  50 * time.Millisecond,
			Replicas:         peers, // one logical shard, two replicas
			Metrics:          h.metrics,
			Seed:             1,
		},
		WrapConn:       wrap,
		ServiceFactory: factory,
	})
	t.Cleanup(h.lc.Shutdown)
	return h
}

// applyBoth pushes n generated events through the cluster client and the
// oracle.
func (h *antiEntropyHarness) applyBoth(t *testing.T, n int) {
	t.Helper()
	if err := applyToBoth(h.lc.Client(), h.oracle, h.gen.Next(n)); err != nil {
		t.Fatalf("apply: %v", err)
	}
}

// setFeaturesBoth writes deterministic feature rows and labels for ids
// [lo, hi) through the client and into the attribute oracle.
func (h *antiEntropyHarness) setFeaturesBoth(t *testing.T, lo, hi, dim int) {
	t.Helper()
	var ids []graph.VertexID
	var data []float32
	var labels []int32
	for v := lo; v < hi; v++ {
		id := graph.VertexID(v)
		ids = append(ids, id)
		row := make([]float32, dim)
		for k := range row {
			row[k] = float32(v)*0.5 + float32(k)
		}
		data = append(data, row...)
		labels = append(labels, int32(v%7))
		h.oracleAttrs.SetFeatures(id, row)
		h.oracleAttrs.SetLabel(id, int32(v%7))
	}
	if err := h.lc.Client().SetFeatures(ids, dim, data, labels); err != nil {
		t.Fatalf("set features [%d,%d): %v", lo, hi, err)
	}
}

// scrubber builds replica i's scrubber with fast test cadences; peer probes
// and repair pulls go through the harness pipes.
func (h *antiEntropyHarness) scrubber(t *testing.T, i int) *Scrubber {
	t.Helper()
	return NewScrubber(h.lc.Service(i), ScrubConfig{
		Self:          LocalAddr(i),
		Peers:         []string{LocalAddr(0), LocalAddr(1)},
		Dial:          h.lc.DialAddr,
		CallTimeout:   2 * time.Second,
		RepairTimeout: 10 * time.Second,
		SettleRetries: 1,
		SettleDelay:   10 * time.Millisecond,
		AutoRepair:    true,
		Metrics:       h.metrics,
		Logf:          t.Logf,
	})
}

// verifyConverged asserts replica i holds exactly the oracle's state:
// topology byte-identical, weights within Fenwick tolerance, attribute
// digest equal.
func (h *antiEntropyHarness) verifyConverged(t *testing.T, phase string, i int) {
	t.Helper()
	svc := h.lc.Service(i)
	st := svc.store.(*storage.DynamicStore)
	got := canonicalDump(t, st, nil)
	want := canonicalDump(t, h.oracle, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: replica %d topology diverged from oracle (%d vs %d bytes)", phase, i, len(got), len(want))
	}
	weightsMatch(t, fmt.Sprintf("%s: replica %d", phase, i), st, h.oracle, nil)
	if got, want := svc.attrs.Digest(), h.oracleAttrs.Digest(); got != want {
		t.Fatalf("%s: replica %d attrs digest %x, want oracle %x", phase, i, got, want)
	}
}

// waitHealthy polls reads until no replica is stale (MarkSynced re-admits a
// repaired replica lazily, on the next health probe).
func (h *antiEntropyHarness) waitHealthy(t *testing.T) {
	t.Helper()
	client := h.lc.Client()
	probe := make([]graph.VertexID, 16)
	for i := range probe {
		probe[i] = graph.VertexID(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := client.SampleNeighbors(probe, 0, 4, 7); err != nil {
			t.Fatalf("post-repair sampling: %v", err)
		}
		stale := 0
		for _, st := range client.Health() {
			if st.Stale {
				stale++
			}
		}
		if stale == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d replicas still stale after repair: %+v", stale, client.Health())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitWALSeq polls replica i's WAL until it reaches seq. Write fan-out
// returns on the first replica ack, so the other replica's append can still
// be in flight when the client call returns — anything poking that WAL file
// must wait for the frames to actually land.
func (h *antiEntropyHarness) waitWALSeq(t *testing.T, i int, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	wal := h.lc.Service(i).wal
	for wal.Seq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("replica %d WAL stuck at seq %d, want %d", i, wal.Seq(), seq)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// flipByte XORs one byte of a file in place — the disk-rot injector.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	buf := make([]byte, 1)
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatalf("read %s@%d: %v", path, off, err)
	}
	buf[0] ^= 0x10
	if _, err := f.WriteAt(buf, off); err != nil {
		t.Fatalf("write %s@%d: %v", path, off, err)
	}
}

// TestChaosPartitionScrubRepair is the anti-entropy acceptance test: an
// asymmetric partition (client requests to replica 1 blackhole; nothing is
// torn down, bytes just stop arriving) during write load leaves replica 1
// silently behind while writes keep succeeding on replica 0's ack. After
// the heal, the advanced replica's scrub round must classify the mismatch
// as the peer's problem and hold state; the lagging replica's round must
// flag itself diverged and auto-repair from its sibling, converging
// byte-identically to the oracle — features included — within that one
// round.
func TestChaosPartitionScrubRepair(t *testing.T) {
	fabric := faultinject.NewFabric(99, faultinject.Config{})
	// Every harness dial is attributed to the external client (node -1);
	// scrub probes and repair pulls run post-heal, where attribution is moot.
	h := newAntiEntropyHarness(t, func(shard int, c net.Conn) net.Conn {
		return fabric.Wrap(-1, shard, c)
	})
	const featDim = 8

	// Phase 1: healthy traffic, both replicas in lockstep.
	for b := 0; b < 4; b++ {
		h.applyBoth(t, 400)
	}
	h.setFeaturesBoth(t, 0, 64, featDim)

	// Phase 2: asymmetric partition of the client->replica-1 link, write
	// load continues. Writes must keep succeeding (replica 0 acks); replica
	// 1 silently misses everything and is marked stale.
	fabric.Partition(-1, 1, false, true)
	for b := 0; b < 4; b++ {
		h.applyBoth(t, 400)
	}
	h.setFeaturesBoth(t, 64, 128, featDim)
	fabric.Heal()
	if got := h.metrics.Snapshot().StaleMarks; got < 1 {
		t.Fatalf("StaleMarks = %d after partitioned write load", got)
	}
	d0, err := h.lc.Service(0).localDigest(-1, 0)
	if err != nil {
		t.Fatalf("replica 0 digest: %v", err)
	}
	d1, err := h.lc.Service(1).localDigest(-1, 0)
	if err != nil {
		t.Fatalf("replica 1 digest: %v", err)
	}
	if d0.Topology == d1.Topology && d0.Attrs == d1.Attrs {
		t.Fatal("partition injected no divergence; chaos scenario is vacuous")
	}
	if d0.WALSeq <= d1.WALSeq {
		t.Fatalf("replica 0 WAL %d not ahead of partitioned replica 1's %d", d0.WALSeq, d1.WALSeq)
	}

	// Phase 3: the advanced replica scrubs first. It must see the mismatch
	// but classify it as the peer's divergence — hold state, repair nothing.
	rep0 := h.scrubber(t, 0).RunRound()
	if rep0.Diverged || rep0.Repaired || rep0.Corrupt {
		t.Fatalf("advanced replica self-classified: %+v", rep0)
	}
	if len(rep0.Peers) != 1 || rep0.Peers[0].Err != "" || !rep0.Peers[0].Digest.Ready {
		t.Fatalf("advanced replica's peer probe: %+v", rep0.Peers)
	}

	// Phase 4: the lagging replica's round must flag itself diverged and
	// auto-repair from its sibling — all within this one round.
	rep1 := h.scrubber(t, 1).RunRound()
	if !rep1.Diverged {
		t.Fatalf("lagging replica not flagged diverged: %+v", rep1)
	}
	if rep1.RepairPeer != LocalAddr(0) {
		t.Fatalf("repair peer = %q, want %q", rep1.RepairPeer, LocalAddr(0))
	}
	if !rep1.Repaired || rep1.RepairErr != "" {
		t.Fatalf("auto-repair did not complete: %+v", rep1)
	}
	if rep1.RepairBytes == 0 {
		t.Fatal("repair moved zero bytes")
	}

	// Convergence: byte-identical topology and attrs on both replicas, and
	// matching digests over the wire.
	for i := 0; i < 2; i++ {
		h.verifyConverged(t, "after repair", i)
	}
	g0, _ := h.lc.Service(0).localDigest(-1, 0)
	g1, _ := h.lc.Service(1).localDigest(-1, 0)
	if g0.Topology != g1.Topology || g0.Attrs != g1.Attrs {
		t.Fatalf("digests still differ after repair: %+v vs %+v", g0, g1)
	}

	// The repaired replica must re-enter the read rotation, and reads must
	// serve the partition-era features from either replica.
	h.waitHealthy(t)
	ids := make([]graph.VertexID, 0, 128)
	for v := 0; v < 128; v++ {
		ids = append(ids, graph.VertexID(v))
	}
	data, labels, err := h.lc.Client().FeaturesLabels(ids, featDim)
	if err != nil {
		t.Fatalf("features after repair: %v", err)
	}
	for v := 0; v < 128; v++ {
		for k := 0; k < featDim; k++ {
			if want := float32(v)*0.5 + float32(k); data[v*featDim+k] != want {
				t.Fatalf("feature[%d][%d] = %v, want %v", v, k, data[v*featDim+k], want)
			}
		}
		if labels[v] != int32(v%7) {
			t.Fatalf("label[%d] = %d, want %d", v, labels[v], v%7)
		}
	}

	snap := h.metrics.Snapshot()
	if snap.ScrubRounds < 2 || snap.DigestMismatches < 1 {
		t.Fatalf("scrub accounting: %+v", snap)
	}
	if snap.RepairsTriggered != 1 || snap.RepairBytes == 0 {
		t.Fatalf("repair accounting: %+v", snap)
	}
	t.Logf("metrics: %s", snap)
}

// TestChaosScrubRepairsDiskCorruption bit-flips replica 1's durable state —
// first the snapshot body, then a WAL frame — and asserts each flip is
// caught by the scrubber's CRC pass (corruption, not divergence: the
// in-memory digests still agree), repaired from the healthy peer, and the
// durable files rewritten clean by the repair's closing Checkpoint.
func TestChaosScrubRepairsDiskCorruption(t *testing.T) {
	h := newAntiEntropyHarness(t, nil)
	for b := 0; b < 4; b++ {
		h.applyBoth(t, 400)
	}
	h.setFeaturesBoth(t, 0, 64, 8)
	h.waitWALSeq(t, 1, 4)
	scrub := h.scrubber(t, 1)

	// Flip a byte mid-snapshot. The scrub round must classify it as local
	// corruption (digests agree — memory is fine, the disk rotted), repair
	// from the peer, and leave a clean snapshot + empty WAL behind.
	if err := h.lc.Service(1).Checkpoint(); err != nil {
		t.Fatalf("snapshot replica 1: %v", err)
	}
	fi, err := os.Stat(h.snapPath(1))
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, h.snapPath(1), fi.Size()/2)

	rep := scrub.RunRound()
	if !rep.Corrupt || len(rep.DiskErrors) == 0 {
		t.Fatalf("snapshot bit-flip not detected: %+v", rep)
	}
	if rep.Diverged {
		t.Fatalf("disk corruption misclassified as divergence: %+v", rep)
	}
	if !rep.Repaired || rep.RepairPeer != LocalAddr(0) || rep.RepairErr != "" {
		t.Fatalf("corruption repair did not complete: %+v", rep)
	}
	h.verifyConverged(t, "after snapshot repair", 1)
	f, err := os.Open(h.snapPath(1))
	if err != nil {
		t.Fatal(err)
	}
	verr := storage.VerifySnapshot(f)
	f.Close()
	if verr != nil {
		t.Fatalf("snapshot still corrupt after repair: %v", verr)
	}
	if vr, err := eventlog.Verify(h.walPath(1)); err != nil || vr.Corrupt || vr.Frames != 0 {
		t.Fatalf("WAL not reset clean after repair: %+v err=%v", vr, err)
	}

	// Grow the fresh WAL some frames, then flip a byte in one. Same story:
	// detected as corruption, repaired, durable state rewritten clean.
	for b := 0; b < 2; b++ {
		h.applyBoth(t, 400)
	}
	h.waitWALSeq(t, 1, 2)
	fi, err = os.Stat(h.walPath(1))
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, h.walPath(1), fi.Size()-3)

	rep = scrub.RunRound()
	if !rep.Corrupt || rep.Diverged || !rep.Repaired || rep.RepairErr != "" {
		t.Fatalf("WAL bit-flip round: %+v", rep)
	}
	h.verifyConverged(t, "after WAL repair", 1)
	if vr, err := eventlog.Verify(h.walPath(1)); err != nil || vr.Corrupt {
		t.Fatalf("WAL still corrupt after repair: %+v err=%v", vr, err)
	}
	h.waitHealthy(t)

	snap := h.metrics.Snapshot()
	if snap.CorruptionDetected < 2 || snap.RepairsTriggered < 2 || snap.RepairBytes == 0 {
		t.Fatalf("corruption accounting: %+v", snap)
	}
	t.Logf("metrics: %s", snap)
}

// TestScrubRetriesFailedRepair: a scrub repair that fails leaves the
// replica not ready, and the next round repairs it again. Replica 1 holds
// an edge its peer lacks, behind its WAL, so with equal WAL positions the
// address tie-break makes it the one that yields. Round 1's repair times
// out; round 2, with time to finish, rebuilds it from replica 0 and puts it
// back in service. A catch-up the scrubber did not start is left alone.
func TestScrubRetriesFailedRepair(t *testing.T) {
	h := newAntiEntropyHarness(t, nil)
	h.applyBoth(t, 300)
	svc := h.lc.Service(1)
	sc := h.scrubber(t, 1)

	svc.BeginCatchUp()
	if rep := sc.RunRound(); rep.Diverged || rep.RepairPeer != "" {
		t.Fatalf("a round during a catch-up the scrubber did not start: %+v", rep)
	}
	svc.MarkSynced()

	svc.store.ApplyBatch([]graph.Event{{Kind: graph.AddEdge, Edge: graph.Edge{Src: 1 << 40, Dst: 2, Weight: 1}}})
	sc.cfg.RepairTimeout = time.Nanosecond
	rep := sc.RunRound()
	if !rep.Diverged || rep.Repaired || rep.RepairErr == "" || svc.Ready() {
		t.Fatalf("round 1: diverged=%v repaired=%v repair_err=%q ready=%v; want a failed repair that leaves the replica not ready",
			rep.Diverged, rep.Repaired, rep.RepairErr, svc.Ready())
	}
	sc.cfg.RepairTimeout = 10 * time.Second
	rep = sc.RunRound()
	if !rep.Repaired || !svc.Ready() {
		t.Fatalf("round 2: repaired=%v ready=%v repair_err=%q; want the repair retried", rep.Repaired, svc.Ready(), rep.RepairErr)
	}
	h.verifyConverged(t, "retried repair", 1)
	if rep := sc.RunRound(); !rep.healthy() || rep.Repaired {
		t.Fatalf("round 3 after the repair: %+v", rep)
	}
}
