// Migration chaos suite: live shard migration and N→N+1 elastic growth
// under write load, plus seeded failure drills at every dangerous moment of
// a migration — source killed mid-copy, destination killed mid-WAL-replay,
// abort just before cutover. The invariants: client operations never fail
// (writes park or re-route, never error), the post-migration cluster's
// per-server topology is byte-identical to a single-store oracle projected
// by the final shard map, and every failed migration aborts back to the old
// placement with the staged copy dropped and zero data loss.
package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

// migHarness is a WAL-backed LocalCluster with restart-replays-WAL server
// semantics (matching the platod2gl-server binary) plus a single-store
// oracle for convergence checks.
type migHarness struct {
	t       *testing.T
	lc      *LocalCluster
	metrics *Metrics
	oracle  *storage.DynamicStore

	mu     sync.Mutex
	stores map[int]*storage.DynamicStore
	wals   map[int]*eventlog.Writer
}

func newMigHarness(t *testing.T, n int, metrics *Metrics) *migHarness {
	t.Helper()
	dir := t.TempDir()
	storeOpts := storage.Options{Tree: core.Options{Capacity: 16}}
	h := &migHarness{
		t: t, metrics: metrics,
		oracle: storage.NewDynamicStore(storeOpts),
		stores: map[int]*storage.DynamicStore{},
		wals:   map[int]*eventlog.Writer{},
	}
	walPath := func(i int) string { return filepath.Join(dir, fmt.Sprintf("server%d.wal", i)) }
	factory := func(i int) *Service {
		h.mu.Lock()
		if old := h.wals[i]; old != nil {
			old.Close()
		}
		h.mu.Unlock()
		store := storage.NewDynamicStore(storeOpts)
		svc := NewService(store, kvstore.New())
		svc.SetMetrics(metrics)
		// Restart semantics match the server binary: replay the surviving
		// WAL (topology + at-most-once identities), then keep appending.
		if _, err := os.Stat(walPath(i)); err == nil {
			if _, err := eventlog.ReplayBatches(walPath(i), func(rec eventlog.BatchRecord) error {
				store.ApplyBatch(rec.Events)
				svc.MarkApplied(rec.ClientID, rec.ClientSeq)
				return nil
			}); err != nil {
				t.Errorf("server %d wal replay: %v", i, err)
			}
		}
		w, err := eventlog.Create(walPath(i))
		if err != nil {
			t.Fatalf("server %d wal: %v", i, err)
		}
		svc.SetBatchHook(func(clientID, seq uint64, events []graph.Event) error {
			_, err := w.AppendBatch(clientID, seq, events)
			return err
		})
		svc.EnableSync(w)
		h.mu.Lock()
		h.stores[i] = store
		h.wals[i] = w
		h.mu.Unlock()
		return svc
	}
	h.lc = NewLocalClusterOptions(n, LocalOptions{
		Client: Options{
			CallTimeout:      5 * time.Second,
			MaxRetries:       3,
			RetryBaseDelay:   time.Millisecond,
			RetryMaxDelay:    10 * time.Millisecond,
			BreakerThreshold: 0, // drills kill servers on purpose; don't trip on it
			Metrics:          metrics,
			Seed:             1,
		},
		ServiceFactory: factory,
	})
	return h
}

func (h *migHarness) store(i int) *storage.DynamicStore {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stores[i]
}

// newMigrationCluster is the slim variant routing_test.go shares: a
// WAL-backed cluster plus its oracle.
func newMigrationCluster(t *testing.T, n int, metrics *Metrics) (*LocalCluster, *storage.DynamicStore) {
	h := newMigHarness(t, n, metrics)
	return h.lc, h.oracle
}

// driver builds a Driver wired to the harness's in-memory transport.
func (h *migHarness) driver() *Driver {
	return &Driver{Dial: h.lc.DialAddr, Metrics: h.metrics, Logf: h.t.Logf,
		CallTimeout: 10 * time.Second, PullTimeout: 30 * time.Second}
}

// verifyConverged asserts each listed server's topology is byte-identical
// to the oracle projected onto the shards the final map assigns it, with
// weights within Fenwick-reconstruction tolerance.
func (h *migHarness) verifyConverged(m *ShardMap, servers []int) {
	h.t.Helper()
	for _, i := range servers {
		g := m.GroupOf(LocalAddr(i))
		if g < 0 {
			h.t.Fatalf("server %d not in map %s", i, m)
		}
		ownedSet := map[int]bool{}
		for _, s := range m.OwnedBy(g) {
			ownedSet[s] = true
		}
		keep := func(src graph.VertexID) bool { return ownedSet[ShardOf(src, m.NumShards)] }
		st := h.store(i)
		want := canonicalDump(h.t, h.oracle, keep)
		got := canonicalDump(h.t, st, nil)
		if !bytes.Equal(got, want) {
			h.t.Fatalf("server %d topology diverged from oracle projection (%d vs %d bytes; owns %v)",
				i, len(got), len(want), m.OwnedBy(g))
		}
		weightsMatch(h.t, fmt.Sprintf("server %d", i), st, h.oracle, keep)
	}
}

// TestChaosElasticGrow is the elasticity acceptance test: a 2-server
// cluster hosting 8 logical shards grows to 3 servers while a writer
// streams dynamic batches and a sampler reads concurrently. Zero client
// operations may fail across the grow; afterwards every server's topology
// must be exactly the oracle's projection under the final map, features
// must have moved with their shards, and sampling must be exact.
func TestChaosElasticGrow(t *testing.T) {
	const numShards = 8
	metrics := &Metrics{}
	h := newMigHarness(t, 2, metrics)
	defer h.lc.Shutdown()
	client := h.lc.Client()
	d := h.driver()

	m, err := d.InitRouting([]string{LocalAddr(0), LocalAddr(1)}, 1, numShards)
	if err != nil {
		t.Fatalf("init routing: %v", err)
	}
	if err := client.AdoptRouting(m); err != nil {
		t.Fatalf("adopt: %v", err)
	}

	// Seed state, including features/labels for the first vertices so the
	// attribute-migration path is exercised.
	// apply serializes generator + client + oracle under one mutex so the
	// two write paths (background writer, snapshot hook) see one history;
	// concurrency-under-migration comes from the driver running alongside.
	gen := dataset.NewGenerator(dataset.OGBNSim().Scale(2e-5), dataset.DynamicMix, 41)
	var oracleMu sync.Mutex
	apply := func(n int) {
		oracleMu.Lock()
		defer oracleMu.Unlock()
		events := gen.Next(n)
		cp := make([]graph.Event, len(events))
		copy(cp, events)
		if err := client.ApplyBatch(cp); err != nil {
			t.Errorf("apply: %v", err)
		}
		h.oracle.ApplyBatch(events)
	}
	for b := 0; b < 4; b++ {
		apply(800)
	}
	const dim = 4
	featNodes := make([]graph.VertexID, 64)
	featData := make([]float32, len(featNodes)*dim)
	featLabels := make([]int32, len(featNodes))
	for i := range featNodes {
		featNodes[i] = graph.VertexID(i)
		featLabels[i] = int32(i % 7)
		for j := 0; j < dim; j++ {
			featData[i*dim+j] = float32(i*10 + j)
		}
	}
	if err := client.SetFeatures(featNodes, dim, featData, featLabels); err != nil {
		t.Fatalf("set features: %v", err)
	}

	// Concurrent load during the grow: one writer, one sampler. Any error
	// from either is a test failure — elasticity must be invisible.
	probeSeeds := make([]graph.VertexID, 64)
	for i := range probeSeeds {
		probeSeeds[i] = graph.VertexID(i)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writes, reads atomic.Int64
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			apply(300)
			writes.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := client.SampleNeighbors(probeSeeds, 0, 4, i); err != nil {
				t.Errorf("sample during grow: %v", err)
				return
			}
			reads.Add(1)
		}
	}()

	// Grow 2 → 3 servers: new empty server joins, shards migrate onto it.
	// The destination hook injects a burst of live writes right after each
	// snapshot stages, guaranteeing the WAL-tail replay path carries real
	// records (the background writer alone can lose that race).
	addr := h.lc.AddServer()
	h.lc.Service(2).SetMigrationHooks(MigrationHooks{
		AfterShardSnapshot: func(shard int) error {
			apply(300)
			return nil
		},
	})
	final, moved, err := d.Grow(m, []string{addr})
	if err != nil {
		t.Fatalf("grow: %v", err)
	}
	if moved < 2 {
		t.Fatalf("grow moved %d shards, want >= 2 (8 shards over 3 groups)", moved)
	}
	// Keep traffic flowing a little on the new topology, then stop.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	t.Logf("grow complete: %d shards moved, %d writer batches, %d sampler rounds, final %s",
		moved, writes.Load(), reads.Load(), final)
	if writes.Load() == 0 || reads.Load() == 0 {
		t.Fatal("concurrent load did not overlap the grow")
	}

	// The new group must own shards; counts must be balanced within 1.
	counts := make([]int, final.NumGroups())
	for _, g := range final.Assign {
		counts[g]++
	}
	for g, n := range counts {
		if n < 2 || n > 3 {
			t.Fatalf("group %d owns %d shards after grow: %v", g, n, counts)
		}
	}

	// Exactness after the dust settles: degrees and sampled neighbors match
	// the oracle through the routed client.
	oracleMu.Lock()
	defer oracleMu.Unlock()
	for _, rs := range h.oracle.AllStats() {
		et := rs.Type
		srcs := h.oracle.Sources(et)
		if len(srcs) > 120 {
			srcs = srcs[:120]
		}
		degs, err := client.Degree(srcs, et)
		if err != nil {
			t.Fatalf("degree: %v", err)
		}
		for i, src := range srcs {
			if want := h.oracle.Degree(src, et); degs[i] != want {
				t.Fatalf("degree(%v, %d) = %d, want %d", src, et, degs[i], want)
			}
		}
	}

	// Features and labels moved with their shards.
	gotFeats, gotLabels, err := client.FeaturesLabels(featNodes, dim)
	if err != nil {
		t.Fatalf("features after grow: %v", err)
	}
	for i := range featNodes {
		if gotLabels[i] != featLabels[i] {
			t.Fatalf("label(%v) = %d, want %d", featNodes[i], gotLabels[i], featLabels[i])
		}
		for j := 0; j < dim; j++ {
			if gotFeats[i*dim+j] != featData[i*dim+j] {
				t.Fatalf("feature(%v)[%d] = %v, want %v", featNodes[i], j, gotFeats[i*dim+j], featData[i*dim+j])
			}
		}
	}

	// Topology-exact convergence per server against the oracle projection.
	h.verifyConverged(final, []int{0, 1, 2})

	snap := metrics.Snapshot()
	if snap.ShardsMigrated != int64(moved) || snap.MigrationAborts != 0 {
		t.Fatalf("migration accounting off: %s", snap)
	}
	if snap.MigrationBytes == 0 || snap.MigrationBatches == 0 || snap.CutoverNanos == 0 {
		t.Fatalf("migration volume not accounted: %s", snap)
	}
	t.Logf("metrics: %s", snap)
}

// TestChaosMigrationKillSourceMidCopy kills the migration source right
// after the destination staged its snapshot. The migration must abort (the
// WAL-tail stream is gone), the staged copy must be dropped, and after the
// source restarts (WAL replay) the cluster must serve the old placement
// with zero data loss.
func TestChaosMigrationKillSourceMidCopy(t *testing.T) {
	const numShards = 4
	metrics := &Metrics{}
	h := newMigHarness(t, 2, metrics)
	defer h.lc.Shutdown()
	client := h.lc.Client()
	d := h.driver()
	d.CallTimeout = time.Second // fail fast against the killed source

	m, err := d.InitRouting([]string{LocalAddr(0), LocalAddr(1)}, 1, numShards)
	if err != nil {
		t.Fatalf("init routing: %v", err)
	}
	if err := client.AdoptRouting(m); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	gen := dataset.NewGenerator(dataset.OGBNSim().Scale(1e-5), dataset.BuildMix, 7)
	apply := func(n int) {
		events := gen.Next(n)
		cp := make([]graph.Event, len(events))
		copy(cp, events)
		if err := client.ApplyBatch(cp); err != nil {
			t.Fatalf("apply: %v", err)
		}
		h.oracle.ApplyBatch(events)
	}
	apply(2000)

	// Destination hook: the moment the snapshot is staged, the source dies.
	h.lc.Service(1).SetMigrationHooks(MigrationHooks{
		AfterShardSnapshot: func(shard int) error {
			h.lc.StopShard(0)
			return nil
		},
	})
	if _, err := d.MigrateShard(m, 0, 1); err == nil {
		t.Fatal("migration succeeded with its source dead")
	} else {
		t.Logf("migration aborted as expected: %v", err)
	}
	if got := metrics.Snapshot().MigrationAborts; got != 1 {
		t.Fatalf("MigrationAborts = %d, want 1", got)
	}
	// Old placement still installed on the survivor; its shards still serve.
	if rm, _ := h.lc.Service(1).RoutingSnapshot(); rm.Epoch != m.Epoch {
		t.Fatalf("survivor advanced to epoch %d during an aborted migration", rm.Epoch)
	}
	var probe1 []graph.VertexID
	for v := graph.VertexID(0); len(probe1) < 8; v++ {
		if m.Assign[ShardOf(v, numShards)] == 1 {
			probe1 = append(probe1, v)
		}
	}
	if _, err := client.Degree(probe1, 0); err != nil {
		t.Fatalf("surviving group unreadable after abort: %v", err)
	}

	// Source restarts, replays its WAL, and is re-pushed the map (a
	// restarted server boots unrouted — routing is cluster state, not disk
	// state). The cluster then serves the old placement in full.
	h.lc.RestartShard(0)
	if err := d.Push(m); err != nil {
		t.Fatalf("re-push after restart: %v", err)
	}
	apply(500)
	h.verifyConverged(m, []int{0, 1})
}

// TestChaosMigrationKillDestMidReplay kills the destination mid-WAL-tail
// replay during a grow. The migration must abort, the cluster must keep
// serving on the old placement (the destination owned nothing), and the
// restarted destination's WAL-resurrected staging residue must be removable
// with DropShard, leaving it empty for a clean retry.
func TestChaosMigrationKillDestMidReplay(t *testing.T) {
	const numShards = 4
	metrics := &Metrics{}
	h := newMigHarness(t, 2, metrics)
	defer h.lc.Shutdown()
	client := h.lc.Client()
	d := h.driver()
	d.CallTimeout = time.Second

	m, err := d.InitRouting([]string{LocalAddr(0), LocalAddr(1)}, 1, numShards)
	if err != nil {
		t.Fatalf("init routing: %v", err)
	}
	if err := client.AdoptRouting(m); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	gen := dataset.NewGenerator(dataset.OGBNSim().Scale(1e-5), dataset.BuildMix, 11)
	apply := func(n int) {
		events := gen.Next(n)
		cp := make([]graph.Event, len(events))
		copy(cp, events)
		if err := client.ApplyBatch(cp); err != nil {
			t.Fatalf("apply: %v", err)
		}
		h.oracle.ApplyBatch(events)
	}
	apply(2000)

	// Grow to a third server, but rig its pull: after the snapshot lands,
	// inject more live writes (so the WAL tail is non-empty), and die on the
	// first replayed tail chunk.
	addr := h.lc.AddServer()
	destIdx := 2
	h.lc.Service(destIdx).SetMigrationHooks(MigrationHooks{
		AfterShardSnapshot: func(shard int) error {
			apply(400) // live writes the tail must carry
			return nil
		},
		AfterTailChunk: func(shard int) error {
			h.lc.StopShard(destIdx)
			return fmt.Errorf("destination killed mid-replay (chaos)")
		},
	})
	grown, moved, err := d.Grow(m, []string{addr})
	if err == nil {
		t.Fatal("grow succeeded with its destination dying mid-replay")
	}
	t.Logf("grow aborted after %d moves as expected: %v", moved, err)
	if moved != 0 {
		t.Fatalf("moved = %d before the rigged failure, want 0", moved)
	}
	if got := metrics.Snapshot().MigrationAborts; got != 1 {
		t.Fatalf("MigrationAborts = %d, want 1", got)
	}
	// grown is the post-AddServer map (epoch+1, destination owns nothing);
	// the data-owning servers never saw a cutover and keep serving.
	apply(500)
	if grown.GroupOf(addr) < 0 {
		t.Fatalf("new server missing from map %s", grown)
	}
	if len(grown.OwnedBy(grown.GroupOf(addr))) != 0 {
		t.Fatalf("dead destination owns shards in %s", grown)
	}
	h.verifyConverged(grown, []int{0, 1})

	// Restart the destination: WAL replay resurrects its staging residue;
	// the operator runbook says re-push the map, then DropShard the residue.
	h.lc.RestartShard(destIdx)
	if err := d.Push(grown); err != nil {
		t.Fatalf("re-push after restart: %v", err)
	}
	var drop DropShardReply
	for s := 0; s < numShards; s++ {
		var dr DropShardReply
		if err := h.lc.Service(destIdx).DropShard(&DropShardArgs{Shard: s}, &dr); err != nil {
			t.Fatalf("drop staged shard %d: %v", s, err)
		}
		drop.DroppedEdges += dr.DroppedEdges
	}
	if got := canonicalDump(t, h.store(destIdx), nil); len(got) != 0 {
		t.Fatalf("destination not empty after residue drop: %d bytes", len(got))
	}
	t.Logf("dropped %d residual staged edges from restarted destination", drop.DroppedEdges)

	// A clean retry now succeeds end to end.
	h.lc.Service(destIdx).SetMigrationHooks(MigrationHooks{})
	final, moved, err := d.Rebalance(grown)
	if err != nil {
		t.Fatalf("retry rebalance: %v", err)
	}
	if moved == 0 {
		t.Fatal("retry rebalance moved nothing")
	}
	h.verifyConverged(final, []int{0, 1, 2})
}

// TestChaosMigrationAbortBeforeCutover aborts a migration at the last
// possible moment — destination fully converged, routing flip not yet
// pushed — while a write to the migrating shard is parked on the source.
// The abort must release the park (the write completes on the source under
// the old placement), drop the staged copy, and leave the cluster exactly
// where it started.
func TestChaosMigrationAbortBeforeCutover(t *testing.T) {
	const numShards = 4
	metrics := &Metrics{}
	h := newMigHarness(t, 2, metrics)
	defer h.lc.Shutdown()
	client := h.lc.Client()
	d := h.driver()

	m, err := d.InitRouting([]string{LocalAddr(0), LocalAddr(1)}, 1, numShards)
	if err != nil {
		t.Fatalf("init routing: %v", err)
	}
	if err := client.AdoptRouting(m); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	gen := dataset.NewGenerator(dataset.OGBNSim().Scale(1e-5), dataset.BuildMix, 23)
	var oracleMu sync.Mutex
	apply := func(events []graph.Event) error {
		cp := make([]graph.Event, len(events))
		copy(cp, events)
		if err := client.ApplyBatch(cp); err != nil {
			return err
		}
		oracleMu.Lock()
		h.oracle.ApplyBatch(events)
		oracleMu.Unlock()
		return nil
	}
	if err := apply(gen.Next(2000)); err != nil {
		t.Fatalf("seed: %v", err)
	}

	// Shard-0 events to write while the shard is parked.
	var parkedEvents []graph.Event
	for v := graph.VertexID(0); len(parkedEvents) < 8; v++ {
		if ShardOf(v, numShards) == 0 {
			parkedEvents = append(parkedEvents, graph.Event{Kind: graph.AddEdge,
				Edge: graph.Edge{Src: v, Dst: v + 50_000, Type: 0, Weight: 2}})
		}
	}
	parkedDone := make(chan error, 1)
	d.BeforeCutover = func(shard int, next *ShardMap) error {
		// The shard is parked right now. Launch a write into the park, give
		// it a moment to block on the gate, then abort the migration.
		go func() { parkedDone <- apply(parkedEvents) }()
		time.Sleep(30 * time.Millisecond)
		select {
		case err := <-parkedDone:
			t.Errorf("write to parked shard completed before release (err=%v)", err)
			parkedDone <- nil
		default:
		}
		return fmt.Errorf("operator abort (chaos)")
	}
	if _, err := d.MigrateShard(m, 0, 1); err == nil {
		t.Fatal("migration succeeded past a BeforeCutover abort")
	}
	// The parked write must complete successfully on the source.
	select {
	case err := <-parkedDone:
		if err != nil {
			t.Fatalf("parked write failed after abort: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked write still blocked after abort (park not released)")
	}

	snap := metrics.Snapshot()
	if snap.MigrationAborts != 1 || snap.ShardsMigrated != 0 {
		t.Fatalf("abort accounting off: %s", snap)
	}
	// Nothing moved: epoch unchanged everywhere, client map unchanged.
	for i := 0; i < 2; i++ {
		if rm, _ := h.lc.Service(i).RoutingSnapshot(); rm.Epoch != m.Epoch {
			t.Fatalf("server %d at epoch %d after aborted migration, want %d", i, rm.Epoch, m.Epoch)
		}
	}
	// Both servers converge to the oracle under the old placement — the
	// staged copy on the destination is gone, the parked write landed on the
	// source.
	oracleMu.Lock()
	defer oracleMu.Unlock()
	h.verifyConverged(m, []int{0, 1})
}
