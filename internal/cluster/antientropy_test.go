// Unit tests for the anti-entropy building blocks: state digests, the
// ShardDigest/FetchAttrs/Scrub RPC surface, payload checksums, and the
// parked-shard release paths. The partition/corruption drills live in
// antientropy_chaos_test.go.
package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

func newAntiEntropyService() (*Service, *storage.DynamicStore, *kvstore.Store) {
	store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}})
	attrs := kvstore.New()
	return NewService(store, attrs), store, attrs
}

func addEdges(store *storage.DynamicStore, edges ...[3]int) {
	var evs []graph.Event
	for _, e := range edges {
		evs = append(evs, graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{
			Src: graph.VertexID(e[0]), Dst: graph.VertexID(e[1]), Type: graph.EdgeType(e[2]), Weight: 1,
		}})
	}
	store.ApplyBatch(evs)
}

func TestShardDigestMatchesAcrossEqualStores(t *testing.T) {
	svcA, storeA, attrsA := newAntiEntropyService()
	svcB, storeB, attrsB := newAntiEntropyService()
	// Same logical state, different insertion orders.
	addEdges(storeA, [3]int{1, 2, 0}, [3]int{1, 3, 0}, [3]int{4, 5, 1})
	addEdges(storeB, [3]int{4, 5, 1}, [3]int{1, 3, 0}, [3]int{1, 2, 0})
	attrsA.SetFeatures(1, []float32{0.5, 0.25})
	attrsB.SetFeatures(1, []float32{0.5, 0.25})

	var a, b DigestReply
	if err := svcA.ShardDigest(&DigestArgs{Shard: -1}, &a); err != nil {
		t.Fatalf("digest A: %v", err)
	}
	if err := svcB.ShardDigest(&DigestArgs{Shard: -1}, &b); err != nil {
		t.Fatalf("digest B: %v", err)
	}
	if a.Topology != b.Topology || a.Attrs != b.Attrs {
		t.Fatalf("equal stores digest differently: %+v vs %+v", a, b)
	}
	if a.Topology == 0 {
		t.Fatal("topology digest is zero for a non-empty store")
	}

	// Any single difference — an extra edge, a changed weight is excluded,
	// a feature bit — must separate the digests.
	addEdges(storeB, [3]int{9, 9, 0})
	var b2 DigestReply
	svcB.ShardDigest(&DigestArgs{Shard: -1}, &b2)
	if b2.Topology == a.Topology {
		t.Fatal("extra edge not reflected in topology digest")
	}
	attrsA.SetFeatures(1, []float32{0.5, 0.250001})
	var a2 DigestReply
	svcA.ShardDigest(&DigestArgs{Shard: -1}, &a2)
	if a2.Attrs == a.Attrs {
		t.Fatal("feature change not reflected in attrs digest")
	}
}

func TestTopologyDigestIgnoresDuplicateEdges(t *testing.T) {
	// The samtree can report an edge with different multiplicity after a
	// snapshot save/load cycle (parallel copies are not replica-stable), so
	// the digest must cover the distinct edge set only — otherwise a
	// replica repaired via snapshot would immediately re-flag as diverged
	// against the very peer it was rebuilt from.
	svcA, storeA, _ := newAntiEntropyService()
	svcB, storeB, _ := newAntiEntropyService()
	addEdges(storeA, [3]int{1, 2, 0}, [3]int{4, 5, 1})
	// Same distinct edges, one applied twice.
	addEdges(storeB, [3]int{1, 2, 0}, [3]int{1, 2, 0}, [3]int{4, 5, 1})

	var a, b DigestReply
	if err := svcA.ShardDigest(&DigestArgs{Shard: -1}, &a); err != nil {
		t.Fatalf("digest A: %v", err)
	}
	if err := svcB.ShardDigest(&DigestArgs{Shard: -1}, &b); err != nil {
		t.Fatalf("digest B: %v", err)
	}
	if a.Topology != b.Topology {
		t.Fatalf("duplicate edge changed the digest: %016x vs %016x", a.Topology, b.Topology)
	}
}

func TestTopologyDigestStableAcrossSnapshotRoundTrip(t *testing.T) {
	// A repaired replica is materialized by loading its peer's snapshot, so
	// the digest of load(save(store)) must equal the live store's — or
	// every repair would immediately re-flag as diverged against the very
	// peer it was rebuilt from. This workload (realistic mixed add/delete
	// traffic at small node capacity) makes the samtree duplicate a source
	// run across leaves, which a save/load cycle redistributes; the digest
	// must not see that.
	st := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 256, Compress: true}})
	gen := dataset.NewGenerator(dataset.WeChatSim().Scale(1.2e-6), dataset.DynamicMix, 7)
	for i := 0; i < 320; i++ {
		st.ApplyBatch(gen.Next(500))
	}
	live, err := topologyDigest(st, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	st2 := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 256, Compress: true}})
	if err := st2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	loaded, err := topologyDigest(st2, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if live != loaded {
		t.Fatalf("snapshot round trip changed the digest: %016x -> %016x (edges %d -> %d)",
			live, loaded, st.NumEdges(), st2.NumEdges())
	}
}

func TestShardDigestPerShardFilter(t *testing.T) {
	svc, store, attrs := newAntiEntropyService()
	const numShards = 4
	for i := 1; i <= 40; i++ {
		addEdges(store, [3]int{i, i + 1, 0})
		attrs.SetLabel(graph.VertexID(i), int32(i))
	}
	var whole DigestReply
	if err := svc.ShardDigest(&DigestArgs{Shard: -1}, &whole); err != nil {
		t.Fatalf("whole digest: %v", err)
	}
	var topoXOR, attrsXOR uint64
	for sh := 0; sh < numShards; sh++ {
		var part DigestReply
		if err := svc.ShardDigest(&DigestArgs{Shard: sh, NumShards: numShards}, &part); err != nil {
			t.Fatalf("shard %d digest: %v", sh, err)
		}
		topoXOR ^= part.Topology
		attrsXOR ^= part.Attrs
	}
	// Per-shard digests are an exact partition of the whole-store digest.
	if topoXOR != whole.Topology || attrsXOR != whole.Attrs {
		t.Fatalf("shard digests do not compose: topo %016x vs %016x, attrs %016x vs %016x",
			topoXOR, whole.Topology, attrsXOR, whole.Attrs)
	}
	var bad DigestReply
	if err := svc.ShardDigest(&DigestArgs{Shard: 1, NumShards: 0}, &bad); err == nil {
		t.Fatal("shard digest without a hash space must error")
	}
}

func TestTopologyDigestExcludesWeights(t *testing.T) {
	_, storeA, _ := newAntiEntropyService()
	_, storeB, _ := newAntiEntropyService()
	addEdges(storeA, [3]int{1, 2, 0})
	storeB.ApplyBatch([]graph.Event{{Kind: graph.AddEdge, Edge: graph.Edge{Src: 1, Dst: 2, Weight: 7.5}}})
	a, err := topologyDigest(storeA, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topologyDigest(storeB, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("weight difference changed the topology digest; weights are not replica-stable and must be excluded")
	}
}

// TestFetchAttrsRoundTrip: the whole-store export (Shard -1) and a
// one-shard export each verify their checksum and, imported into a fresh
// service, reproduce the exporter's digest for what they cover.
func TestFetchAttrsRoundTrip(t *testing.T) {
	const numShards = 4
	svc, _, attrs := newAntiEntropyService()
	svc.SetAdvertise("a")
	m, _ := IdentityMap([]string{"a"}, 1, numShards)
	if err := svc.UpdateRouting(&UpdateRoutingArgs{Map: *m}, &UpdateRoutingReply{}); err != nil {
		t.Fatalf("install: %v", err)
	}
	for v := graph.VertexID(1); v <= 16; v++ {
		attrs.SetFeatures(v, []float32{float32(v), 2, 3})
		attrs.SetLabel(v, int32(v)%3)
		attrs.SetEdgeFeatures(kvstore.EdgeKey{Src: v, Dst: v + 1, Type: 0}, []float32{0.5, float32(v)})
	}

	for _, shard := range []int{-1, 0, 3} {
		var reply AttrsReply
		if err := svc.FetchAttrs(&AttrsArgs{Shard: shard}, &reply); err != nil {
			t.Fatalf("FetchAttrs(shard %d): %v", shard, err)
		}
		if reply.Sum == 0 || reply.Sum != checksumFeatures(&reply) {
			t.Fatalf("FetchAttrs(shard %d) sum %016x does not verify", shard, reply.Sum)
		}
		want := attrs.Digest()
		if shard >= 0 {
			if len(reply.Nodes) == 0 || len(reply.Nodes) == 16 {
				t.Fatalf("shard %d export holds %d of 16 vertices", shard, len(reply.Nodes))
			}
			want = attrs.DigestWhere(inShard(shard, numShards))
		}
		dst, _, dstAttrs := newAntiEntropyService()
		dst.importAttrs(&reply)
		if got := dstAttrs.Digest(); got != want {
			t.Fatalf("shard %d: attrs export/import round trip digest %016x, want %016x", shard, got, want)
		}
	}
}

func TestScrubRPCRequiresScrubber(t *testing.T) {
	svc, _, _ := newAntiEntropyService()
	var reply ScrubReply
	if err := svc.Scrub(&ScrubArgs{}, &reply); err == nil {
		t.Fatal("Scrub without an installed scrubber must error")
	}
	svc.SetScrubber(NewScrubber(svc, ScrubConfig{}))
	if err := svc.Scrub(&ScrubArgs{}, &reply); err != nil {
		t.Fatalf("Scrub with scrubber: %v", err)
	}
	if !reply.Report.healthy() {
		t.Fatalf("peerless scrub round reported unhealthy: %+v", reply.Report)
	}
}

func TestChecksumMismatchIsRetryable(t *testing.T) {
	err := fmt.Errorf("cluster: pull: %w", checksumError("ApplyBatch events", 1, 2))
	if !isKind(err, KindChecksum) {
		t.Fatal("checksumError not recognized")
	}
	if !retryable(err) {
		t.Fatal("a checksum mismatch must be retryable: transit corruption, the retry re-sends intact bytes")
	}
}

func TestApplyBatchRejectsCorruptPayloadBeforeDedup(t *testing.T) {
	svc, store, _ := newAntiEntropyService()
	events := []graph.Event{{Kind: graph.AddEdge, Edge: graph.Edge{Src: 1, Dst: 2, Weight: 1}}}
	var reply BatchReply
	// A wrong Sum and a missing one (0) are both rejected.
	for _, sum := range []uint64{checksumEvents(events) ^ 0xdead, 0} {
		bad := &BatchArgs{Events: events, ClientID: 7, Seq: 1, Sum: sum}
		if err := svc.applyBatch(bad, &reply); !isKind(err, KindChecksum) {
			t.Fatalf("batch with Sum %016x: error = %v, want checksum mismatch", sum, err)
		}
		if store.NumEdges() != 0 {
			t.Fatalf("batch with Sum %016x mutated the store", sum)
		}
	}
	// The clean retry must apply — the corrupt attempt must not have
	// consumed the (ClientID, Seq) dedup identity.
	good := &BatchArgs{Events: events, ClientID: 7, Seq: 1, Sum: checksumEvents(events)}
	if err := svc.applyBatch(good, &reply); err != nil {
		t.Fatalf("clean retry: %v", err)
	}
	if reply.Duplicate {
		t.Fatal("clean retry reported duplicate: corrupt attempt consumed the dedup identity")
	}
	if store.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d after clean retry, want 1", store.NumEdges())
	}
}

func TestReleaseAllShardsUnparksWrites(t *testing.T) {
	svc, _, _ := newAntiEntropyService()
	m, err := IdentityMap([]string{"a", "b"}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetAdvertise("a")
	var ur UpdateRoutingReply
	if err := svc.UpdateRouting(&UpdateRoutingArgs{Map: *m}, &ur); err != nil {
		t.Fatalf("install routing: %v", err)
	}
	// Park with a long TTL — the backstop a dead driver would leave behind.
	svc.parkShard(0, time.Hour)
	srv := NewServer(svc)
	done := make(chan error, 1)
	go func() {
		var reply BatchReply
		events := []graph.Event{{Kind: graph.AddEdge, Edge: graph.Edge{Src: idForShard(t, m.NumShards, 0), Dst: 2, Weight: 1}}}
		args := &BatchArgs{Events: events, Shard: 0, RouteEpoch: m.Epoch, Sum: checksumEvents(events)}
		done <- srv.dispatch(&wireMethods[wireMethodID["ApplyBatch"]], args, &reply)
	}()
	select {
	case err := <-done:
		t.Fatalf("write to parked shard completed early (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	svc.ReleaseAllShards()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("write after ReleaseAllShards: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write still parked after ReleaseAllShards")
	}
	// Idempotent on an empty park table.
	svc.ReleaseAllShards()
}

// idForShard finds a vertex ID hashing into the given logical shard.
func idForShard(t *testing.T, numShards, shard int) graph.VertexID {
	t.Helper()
	for id := graph.VertexID(1); id < 10_000; id++ {
		if ShardOf(id, numShards) == shard {
			return id
		}
	}
	t.Fatalf("no vertex id found for shard %d/%d", shard, numShards)
	return 0
}

func TestLocalClusterRestartClearsParks(t *testing.T) {
	// Satellite regression: a shard parked for a migration whose driver died
	// must accept writes promptly after the server restarts — the restart
	// releases the park instead of leaving writes wedged behind a stale gate
	// on the old service.
	lc := NewLocalClusterOptions(1, LocalOptions{
		Client: Options{CallTimeout: 2 * time.Second, MaxRetries: 3, RetryBaseDelay: time.Millisecond, Seed: 1},
		StoreFactory: func(i int) (storage.TopologyStore, *kvstore.Store) {
			return storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}}), kvstore.New()
		},
	})
	defer lc.Shutdown()
	svc := lc.Service(0)
	svc.parkShard(3, time.Hour)
	lc.RestartShard(0)
	// The old service's gate must be open: a goroutine parked on it from
	// before the restart resolves rather than hanging forever.
	done := make(chan struct{})
	go func() {
		svc.gateShardWrite(3, 1) // epoch 1: routed write path
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("write parked on pre-restart gate still wedged after restart")
	}
	if lc.Service(0) == svc {
		t.Fatal("restart did not replace the service")
	}
}

func TestScrubberStartStop(t *testing.T) {
	svc, store, _ := newAntiEntropyService()
	addEdges(store, [3]int{1, 2, 0})
	sc := NewScrubber(svc, ScrubConfig{Interval: 5 * time.Millisecond})
	svc.SetScrubber(sc)
	sc.Start()
	sc.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for sc.LastReport().Local.Topology == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background scrubber never completed a round")
		}
		time.Sleep(2 * time.Millisecond)
	}
	sc.Stop()
	sc.Stop() // idempotent
	if rep := sc.LastReport(); !rep.healthy() {
		t.Fatalf("healthy single-node round reported unhealthy: %+v", rep)
	}
}

func TestRoundReportWireRoundTrip(t *testing.T) {
	// The Scrub RPC ships RoundReport over the wire codec; a field the codec
	// drops would break the verify verb at runtime.
	lc := NewLocalClusterOptions(1, LocalOptions{
		Client: Options{CallTimeout: 2 * time.Second, Seed: 1},
		ServiceFactory: func(i int) *Service {
			svc, store, _ := newAntiEntropyService()
			addEdges(store, [3]int{1, 2, 0})
			svc.SetScrubber(NewScrubber(svc, ScrubConfig{}))
			return svc
		},
	})
	defer lc.Shutdown()
	var reply ScrubReply
	if err := roundTrip(lc.Dialer(0), "Scrub", &ScrubArgs{}, &reply, 2*time.Second); err != nil {
		t.Fatalf("Scrub over the wire: %v", err)
	}
	if reply.Report.Local.Topology == 0 {
		t.Fatalf("wire round report lost the digest: %+v", reply.Report)
	}
	var dig DigestReply
	if err := roundTrip(lc.Dialer(0), "ShardDigest", &DigestArgs{Shard: -1}, &dig, 2*time.Second); err != nil {
		t.Fatalf("ShardDigest over the wire: %v", err)
	}
	if dig.Topology != reply.Report.Local.Topology {
		t.Fatalf("wire digest %016x != scrub-local digest %016x", dig.Topology, reply.Report.Local.Topology)
	}
}
