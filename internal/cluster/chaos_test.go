// Chaos suite: the fault-tolerance layer under injected network faults —
// message drops, resets, partitions, shard crashes and restarts — asserting
// the two invariants that matter for training: update convergence (retries
// are at-most-once, so the cluster edge count matches a single-store oracle)
// and sampling availability (degradation mode keeps mini-batches flowing
// with per-shard error reports).
package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// chaosClientOptions is a retry policy tuned for fast tests: aggressive
// retries with tiny backoff, breaker enabled but quick to recover.
func chaosClientOptions() Options {
	return Options{
		CallTimeout:      2 * time.Second,
		MaxRetries:       16,
		RetryBaseDelay:   time.Millisecond,
		RetryMaxDelay:    20 * time.Millisecond,
		BreakerThreshold: 8,
		BreakerCooldown:  10 * time.Millisecond,
		Seed:             1,
	}
}

// walBackedFactory builds per-shard services durably backed by WAL files in
// dir: on every (re)start the shard replays its WAL into a fresh store and
// rebuilds its at-most-once dedup table, exactly like the server binary.
type walBackedFactory struct {
	t    *testing.T
	dir  string
	opts storage.Options

	mu   sync.Mutex
	wals map[int]*eventlog.Writer
}

func newWALBackedFactory(t *testing.T, opts storage.Options) *walBackedFactory {
	return &walBackedFactory{t: t, dir: t.TempDir(), opts: opts, wals: make(map[int]*eventlog.Writer)}
}

func (f *walBackedFactory) path(i int) string {
	return filepath.Join(f.dir, fmt.Sprintf("shard%d.wal", i))
}

func (f *walBackedFactory) service(i int) *Service {
	f.mu.Lock()
	if old := f.wals[i]; old != nil {
		old.Close()
	}
	f.mu.Unlock()
	store := storage.NewDynamicStore(f.opts)
	svc := NewService(store, kvstore.New())
	if _, err := os.Stat(f.path(i)); err == nil {
		_, err := eventlog.ReplayBatches(f.path(i), func(rec eventlog.BatchRecord) error {
			store.ApplyBatch(rec.Events)
			svc.MarkApplied(rec.ClientID, rec.ClientSeq)
			return nil
		})
		if err != nil {
			f.t.Fatalf("replay shard %d wal: %v", i, err)
		}
	}
	w, err := eventlog.Create(f.path(i))
	if err != nil {
		f.t.Fatalf("open shard %d wal: %v", i, err)
	}
	f.mu.Lock()
	f.wals[i] = w
	f.mu.Unlock()
	svc.SetBatchHook(func(clientID, seq uint64, events []graph.Event) error {
		_, err := w.AppendBatch(clientID, seq, events)
		return err
	})
	return svc
}

// TestChaosApplyBatchConvergence is the headline acceptance test: a dynamic
// event stream (adds, deletes, weight updates) through a 4-shard cluster
// with 25% message drops and occasional resets, with one shard crashed and
// restarted (recovering from its WAL) mid-run. Client retries must converge
// to exactly the single-store oracle — at-most-once dedup means no retry
// ever double-applies a delete.
func TestChaosApplyBatchConvergence(t *testing.T) {
	inj := faultinject.New(1234, faultinject.Config{
		DropProb:  0.25, // request loss: batch never reaches the shard
		ResetProb: 0.05, // reply loss: batch applied, ack lost → dedup path
	})
	factory := newWALBackedFactory(t, storage.Options{Tree: core.Options{Capacity: 16, Compress: true}})
	lc := NewLocalClusterOptions(4, LocalOptions{
		Client:         chaosClientOptions(),
		ServiceFactory: factory.service,
		WrapConn:       func(_ int, c net.Conn) net.Conn { return inj.WrapConn(c) },
	})
	defer lc.Shutdown()
	client := lc.Client()

	oracle := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}})
	gen := dataset.NewGenerator(dataset.OGBNSim().Scale(2e-5), dataset.DynamicMix, 7)
	const batches = 20
	for b := 0; b < batches; b++ {
		events := gen.Next(1500)
		cp := make([]graph.Event, len(events))
		copy(cp, events)
		if err := client.ApplyBatch(cp); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		oracle.ApplyBatch(events)
		if b == batches/2 {
			// Crash shard 2 mid-run and bring it straight back; it rebuilds
			// from its WAL, and in-flight batches ride the retry path.
			lc.StopShard(2)
			lc.RestartShard(2)
		}
	}

	drops, resets := inj.Stats()
	if drops == 0 {
		t.Fatal("chaos config injected no drops — test exercised nothing")
	}
	t.Logf("chaos: %d drops, %d resets injected", drops, resets)

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumEdges != oracle.NumEdges() {
		t.Fatalf("edge count diverged under chaos: cluster %d vs oracle %d", st.NumEdges, oracle.NumEdges())
	}
	// Spot-check per-source degrees, which double-applied deletes would skew
	// even if totals happened to cancel.
	srcs := oracle.Sources(0)
	if len(srcs) > 100 {
		srcs = srcs[:100]
	}
	degs, err := client.Degree(srcs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range srcs {
		if want := oracle.Degree(src, 0); degs[i] != want {
			t.Fatalf("degree(%v) diverged: cluster %d vs oracle %d", src, degs[i], want)
		}
	}
}

// TestChaosDegradedSampling: with one shard dead, a client with
// Options.Degraded keeps sampling available — full-length results, dead-shard
// seeds falling back to themselves, and one DegradedShards count for the
// dead shard — while a strict client fails.
func TestChaosDegradedSampling(t *testing.T) {
	opts := Options{
		CallTimeout:    time.Second,
		MaxRetries:     1,
		RetryBaseDelay: time.Millisecond,
		Seed:           1,
	}
	lc := NewLocalClusterOptions(3, LocalOptions{
		Client: opts,
		StoreFactory: func(int) (storage.TopologyStore, *kvstore.Store) {
			return storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}}), kvstore.New()
		},
	})
	defer lc.Shutdown()
	client := lc.Client()
	opts.Degraded = true
	degraded := NewClientOptions(nil, []Dialer{lc.Dialer(0), lc.Dialer(1), lc.Dialer(2)}, opts)
	defer degraded.Close()
	degradedShards := degraded.Metrics().DegradedShards.Load

	var events []graph.Event
	const nSrc = 60
	for src := uint64(0); src < nSrc; src++ {
		for j := uint64(0); j < 8; j++ {
			events = append(events, graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{
				Src: graph.VertexID(src), Dst: graph.VertexID(1000 + src*8 + j), Weight: 1}})
		}
	}
	if err := client.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}

	seeds := make([]graph.VertexID, nSrc)
	for i := range seeds {
		seeds[i] = graph.VertexID(i)
	}
	const fanout = 4
	deadShard := 1
	lc.StopShard(deadShard)

	// Strict mode fails the whole batch.
	if _, err := client.SampleNeighbors(seeds, 0, fanout, 9); err == nil {
		t.Fatal("strict-mode sampling succeeded with a dead shard")
	}

	// Degradation mode: a full-length result, and the dead shard counted.
	before := degradedShards()
	out, err := degraded.SampleNeighbors(seeds, 0, fanout, 9)
	if err != nil {
		t.Fatalf("degraded sampling: %v", err)
	}
	if len(out) != len(seeds)*fanout {
		t.Fatalf("degraded result length %d, want %d", len(out), len(seeds)*fanout)
	}
	if n := degradedShards() - before; n != 1 {
		t.Fatalf("DegradedShards moved by %d with one dead shard, want 1", n)
	}
	deadSeeds, liveSeeds := 0, 0
	for i, seed := range seeds {
		owner := ShardOf(seed, client.NumShards())
		for j := 0; j < fanout; j++ {
			got := out[i*fanout+j]
			if owner == deadShard {
				if got != seed {
					t.Fatalf("dead-shard seed %v slot %d = %v, want self-fallback", seed, j, got)
				}
			} else {
				lo := 1000 + uint64(seed)*8
				if uint64(got) < lo || uint64(got) >= lo+8 {
					t.Fatalf("live-shard seed %v sampled %v outside its neighbor range", seed, got)
				}
			}
		}
		if owner == deadShard {
			deadSeeds++
		} else {
			liveSeeds++
		}
	}
	if deadSeeds == 0 || liveSeeds == 0 {
		t.Fatalf("degenerate partition: %d dead-shard seeds, %d live", deadSeeds, liveSeeds)
	}

	// Healing the shard restores clean sampling (fresh empty store; its
	// seeds now legitimately self-fallback as unknown vertices).
	lc.RestartShard(deadShard)
	before = degradedShards()
	if _, err := degraded.SampleNeighbors(seeds, 0, fanout, 9); err != nil {
		t.Fatal(err)
	}
	if n := degradedShards() - before; n != 0 {
		t.Fatalf("still degraded after restart: DegradedShards moved by %d", n)
	}
}

// TestChaosTimeoutOnPartition: a one-sided partition silently blackholes
// requests; only the per-call timeout detects it, and healing the partition
// restores service through a redial.
func TestChaosTimeoutOnPartition(t *testing.T) {
	inj := faultinject.New(5, faultinject.Config{})
	lc := NewLocalClusterOptions(1, LocalOptions{
		Client: Options{
			CallTimeout:    50 * time.Millisecond,
			RetryBaseDelay: time.Millisecond,
			Seed:           1,
		},
		StoreFactory: func(int) (storage.TopologyStore, *kvstore.Store) {
			return storage.NewDynamicStore(storage.Options{}), kvstore.New()
		},
		WrapConn: func(_ int, c net.Conn) net.Conn { return inj.WrapConn(c) },
	})
	defer lc.Shutdown()
	client := lc.Client()

	if err := client.ApplyBatch([]graph.Event{{Kind: graph.AddEdge,
		Edge: graph.Edge{Src: 1, Dst: 2, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}

	inj.Partition(false, true) // outbound blackhole: requests vanish silently
	start := time.Now()
	_, err := client.Stats()
	if err == nil {
		t.Fatal("call succeeded through a partition")
	}
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("partitioned call error = %v, want ErrCallTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v — per-call deadline not enforced", elapsed)
	}

	inj.Partition(false, false)
	st, err := client.Stats()
	if err != nil {
		t.Fatalf("after heal: %v", err)
	}
	if st.NumEdges != 1 {
		t.Fatalf("NumEdges after heal = %d", st.NumEdges)
	}
}

// TestChaosBreakerFailsFast: repeated failures open the per-peer circuit
// breaker, which then rejects instantly; after the cooldown a probe call
// closes it again.
func TestChaosBreakerFailsFast(t *testing.T) {
	opts := Options{
		CallTimeout:      time.Second,
		MaxRetries:       0,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		Seed:             1,
	}
	lc := NewLocalClusterOptions(1, LocalOptions{
		Client: opts,
		StoreFactory: func(int) (storage.TopologyStore, *kvstore.Store) {
			return storage.NewDynamicStore(storage.Options{}), kvstore.New()
		},
	})
	defer lc.Shutdown()
	client := lc.Client()

	if _, err := client.Stats(); err != nil {
		t.Fatal(err)
	}
	lc.StopShard(0)
	// Trip the breaker: threshold transport failures.
	for i := 0; i < opts.BreakerThreshold; i++ {
		if _, err := client.Stats(); err == nil {
			t.Fatal("call succeeded against a stopped shard")
		}
	}
	h := client.Health()[0]
	if h.Breaker != "open" {
		t.Fatalf("breaker state = %q after %d failures, want open", h.Breaker, opts.BreakerThreshold)
	}
	// While open, calls fail fast with ErrPeerUnavailable — no dial attempt.
	if _, err := client.Stats(); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("open-breaker error = %v, want ErrPeerUnavailable", err)
	}
	// Recovery: restart the shard, wait out the cooldown, probe closes it.
	lc.RestartShard(0)
	time.Sleep(opts.BreakerCooldown + 10*time.Millisecond)
	if _, err := client.Stats(); err != nil {
		t.Fatalf("probe after cooldown failed: %v", err)
	}
	if h := client.Health()[0]; h.Breaker != "closed" || !h.Connected {
		t.Fatalf("health after recovery = %+v", h)
	}
}

// panicStore panics on Degree — a poisoned request that must become an RPC
// error, not kill the server's connection goroutine.
type panicStore struct{ storage.TopologyStore }

func (panicStore) Degree(graph.VertexID, graph.EdgeType) int { panic("poisoned request") }

func TestPanicRecoveredAsRPCError(t *testing.T) {
	lc := NewLocalClusterOptions(1, LocalOptions{
		Client: Options{CallTimeout: time.Second, Seed: 1},
		StoreFactory: func(int) (storage.TopologyStore, *kvstore.Store) {
			return panicStore{storage.NewDynamicStore(storage.Options{})}, kvstore.New()
		},
	})
	defer lc.Shutdown()
	client := lc.Client()

	if err := client.ApplyBatch([]graph.Event{{Kind: graph.AddEdge,
		Edge: graph.Edge{Src: 1, Dst: 2, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	_, err := client.Degree([]graph.VertexID{1}, 0)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("Degree error = %v, want recovered panic", err)
	}
	// The connection survived: other methods on the same peer still work.
	st, err := client.Stats()
	if err != nil {
		t.Fatalf("Stats after panic: %v", err)
	}
	if st.NumEdges != 1 {
		t.Fatalf("NumEdges = %d", st.NumEdges)
	}
}

// TestApplyBatchAtMostOnce exercises dedup at the service level: a retried
// delete batch must not double-apply after the edge is re-added.
func TestApplyBatchAtMostOnce(t *testing.T) {
	store := storage.NewDynamicStore(storage.Options{})
	svc := NewService(store, nil)
	apply := func(seq uint64, events []graph.Event) *BatchReply {
		var reply BatchReply
		if err := svc.applyBatch(&BatchArgs{Events: events, ClientID: 77, Seq: seq, Sum: checksumEvents(events)}, &reply); err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		return &reply
	}
	add := []graph.Event{{Kind: graph.AddEdge, Edge: graph.Edge{Src: 1, Dst: 2, Weight: 1}}}
	del := []graph.Event{{Kind: graph.DeleteEdge, Edge: graph.Edge{Src: 1, Dst: 2}}}

	apply(1, add)
	r := apply(2, del)
	if r.NumEdges != 0 || r.Duplicate {
		t.Fatalf("after delete: %+v", r)
	}
	// Retry of the delete batch: must be a no-op duplicate.
	if r := apply(2, del); !r.Duplicate {
		t.Fatal("retried batch not detected as duplicate")
	}
	// Re-add the edge, then replay the old delete again: at-most-once means
	// the edge survives.
	apply(3, add)
	r = apply(2, del)
	if !r.Duplicate || r.NumEdges != 1 {
		t.Fatalf("stale delete retry: %+v (edge must survive)", r)
	}
	if store.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d after stale retry, want 1", store.NumEdges())
	}
	// Identity-less batches (migration replays) bypass dedup entirely.
	var reply BatchReply
	if err := svc.applyBatch(&BatchArgs{Events: del, Sum: checksumEvents(del)}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Duplicate || store.NumEdges() != 0 {
		t.Fatalf("identity-less batch: dup=%v edges=%d", reply.Duplicate, store.NumEdges())
	}
}

// TestCrashRestartRecovery kills a shard mid-batch-stream, restarts it from
// snapshot + WAL, and asserts the cluster converges to the oracle — the
// full recovery recipe (snapshot, atomic WAL truncation, tail replay, dedup
// rebuild) at the library level.
func TestCrashRestartRecovery(t *testing.T) {
	storeOpts := storage.Options{Tree: core.Options{Capacity: 16}}
	dir := t.TempDir()
	snapPath := func(i int) string { return filepath.Join(dir, fmt.Sprintf("shard%d.snap", i)) }
	walPath := func(i int) string { return filepath.Join(dir, fmt.Sprintf("shard%d.wal", i)) }

	var mu sync.Mutex
	wals := make(map[int]*eventlog.Writer)
	stores := make(map[int]*storage.DynamicStore)
	factory := func(i int) *Service {
		mu.Lock()
		if old := wals[i]; old != nil {
			old.Close()
		}
		mu.Unlock()
		store := storage.NewDynamicStore(storeOpts)
		svc := NewService(store, kvstore.New())
		if f, err := os.Open(snapPath(i)); err == nil {
			if err := store.Load(f); err != nil {
				t.Fatalf("load shard %d snapshot: %v", i, err)
			}
			f.Close()
		}
		if _, err := os.Stat(walPath(i)); err == nil {
			if _, err := eventlog.ReplayBatches(walPath(i), func(rec eventlog.BatchRecord) error {
				store.ApplyBatch(rec.Events)
				svc.MarkApplied(rec.ClientID, rec.ClientSeq)
				return nil
			}); err != nil {
				t.Fatalf("replay shard %d wal: %v", i, err)
			}
		}
		w, err := eventlog.Create(walPath(i))
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		wals[i] = w
		stores[i] = store
		mu.Unlock()
		svc.SetBatchHook(func(clientID, seq uint64, events []graph.Event) error {
			_, err := w.AppendBatch(clientID, seq, events)
			return err
		})
		return svc
	}

	lc := NewLocalClusterOptions(3, LocalOptions{Client: chaosClientOptions(), ServiceFactory: factory})
	defer lc.Shutdown()
	client := lc.Client()

	oracle := storage.NewDynamicStore(storeOpts)
	gen := dataset.NewGenerator(dataset.RedditSim().Scale(3e-5), dataset.DynamicMix, 11)
	applyBoth := func(n int) {
		events := gen.Next(n)
		cp := make([]graph.Event, len(events))
		copy(cp, events)
		if err := client.ApplyBatch(cp); err != nil {
			t.Fatal(err)
		}
		oracle.ApplyBatch(events)
	}

	for b := 0; b < 5; b++ {
		applyBoth(1000)
	}

	// Snapshot shard 0 the way the server binary does on SIGTERM: pause,
	// save, atomically truncate the WAL so restart cannot double-replay.
	const victim = 0
	svc := lc.Service(victim)
	resume := svc.Pause()
	mu.Lock()
	vStore, vWal := stores[victim], wals[victim]
	mu.Unlock()
	f, err := os.Create(snapPath(victim))
	if err != nil {
		t.Fatal(err)
	}
	if err := vStore.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := vWal.Reset(); err != nil {
		t.Fatal(err)
	}
	resume()

	// More traffic lands in the post-snapshot WAL tail, then the shard is
	// killed mid-stream: batches in flight ride the retry path while the
	// restarted shard recovers snapshot + tail.
	applyBoth(1000)
	var wg sync.WaitGroup
	wg.Add(1)
	killed := make(chan struct{})
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		time.Sleep(time.Duration(1+rng.Intn(3)) * time.Millisecond)
		lc.StopShard(victim)
		lc.RestartShard(victim)
		close(killed)
	}()
	for b := 0; b < 4; b++ {
		applyBoth(1000)
	}
	wg.Wait()
	<-killed

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumEdges != oracle.NumEdges() {
		t.Fatalf("after crash+restart: cluster %d edges vs oracle %d", st.NumEdges, oracle.NumEdges())
	}
	srcs := oracle.Sources(0)
	if len(srcs) > 100 {
		srcs = srcs[:100]
	}
	degs, err := client.Degree(srcs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range srcs {
		if want := oracle.Degree(src, 0); degs[i] != want {
			t.Fatalf("degree(%v): cluster %d vs oracle %d", src, degs[i], want)
		}
	}
}

// TestRedialAfterServerRestart: a plain stop/restart with no faults — the
// client's next call redials transparently.
func TestRedialAfterServerRestart(t *testing.T) {
	factory := newWALBackedFactory(t, storage.Options{})
	lc := NewLocalClusterOptions(2, LocalOptions{
		Client:         chaosClientOptions(),
		ServiceFactory: factory.service,
	})
	defer lc.Shutdown()
	client := lc.Client()

	var events []graph.Event
	for i := uint64(0); i < 200; i++ {
		events = append(events, graph.Event{Kind: graph.AddEdge,
			Edge: graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 500), Weight: 1}})
	}
	if err := client.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	lc.StopShard(0)
	lc.RestartShard(0)
	lc.StopShard(1)
	lc.RestartShard(1)
	st, err := client.Stats()
	if err != nil {
		t.Fatalf("stats after restart: %v", err)
	}
	if st.NumEdges != 200 {
		t.Fatalf("NumEdges after WAL recovery = %d, want 200", st.NumEdges)
	}
}
