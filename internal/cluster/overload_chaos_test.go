// Overload chaos suite: an open-loop mixed-priority workload pushed past a
// deliberately tiny admission gate, with a live shard migration running
// through the same brownout. The invariants: interactive latency stays
// bounded (the gate sheds instead of queueing unboundedly), background and
// prefetch traffic yield before interactive traffic is shed, shed responses
// never trip client circuit breakers, the migration still completes, and
// after the storm the process is back to its baseline goroutine count — no
// leaked waiters, workers, or connections.
package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"platod2gl/internal/core"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

// slowStore embeds a real DynamicStore (so migration export, AllStats, and
// snapshot paths all promote through) and adds a fixed service delay to the
// operations the overload workload exercises — the knob that lets a tiny
// admission gate saturate with modest request counts.
type slowStore struct {
	*storage.DynamicStore
	sampleDelay time.Duration
	applyDelay  time.Duration
}

// SampleFrontier pays the delay once per source, as a per-seed store call
// would, before sampling the whole frontier.
func (s *slowStore) SampleFrontier(srcs []graph.VertexID, et graph.EdgeType, counts []int, uniform bool, rng *rand.Rand, dst []graph.VertexID, got []int) []graph.VertexID {
	time.Sleep(time.Duration(len(srcs)) * s.sampleDelay)
	return s.DynamicStore.SampleFrontier(srcs, et, counts, uniform, rng, dst, got)
}

func (s *slowStore) ApplyBatch(events []graph.Event) {
	time.Sleep(s.applyDelay)
	s.DynamicStore.ApplyBatch(events)
}

// overloadServer is one WAL-backed TCP graph server with a tuned admission
// gate — the real platod2gl-server wiring (advertise address, TCP dial
// resolver for migration pulls, OpenDurable) at test scale.
type overloadServer struct {
	addr string
	svc  *Service
	m    *Metrics
}

func startOverloadServer(t *testing.T, dir string, i int, admit AdmissionConfig, sampleDelay, applyDelay time.Duration) *overloadServer {
	t.Helper()
	store := &slowStore{
		DynamicStore: storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}}),
		sampleDelay:  sampleDelay,
		applyDelay:   applyDelay,
	}
	svc := NewService(store, kvstore.New())
	m := &Metrics{}
	svc.SetMetrics(m)
	openDurable(t, svc, "", filepath.Join(dir, fmt.Sprintf("server%d.wal", i)))
	t.Cleanup(func() { svc.Close() })
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := lis.Addr().String()
	svc.SetAdvertise(addr)
	svc.SetDialResolver(func(a string) Dialer { return TCPDialer(a, 2*time.Second) })
	srv := NewServer(svc)
	srv.SetAdmission(admit)
	srv.SetLimits(DefaultServerLimits())
	go srv.Serve(lis)
	t.Cleanup(func() { lis.Close() })
	return &overloadServer{addr: addr, svc: svc, m: m}
}

// shedByPriority sums a server's RequestsShed family per priority label.
func shedByPriority(servers ...*overloadServer) map[string]int64 {
	out := map[string]int64{}
	for _, s := range servers {
		for _, label := range s.m.RequestsShed.Labels() {
			if i := strings.LastIndex(label, "|"); i >= 0 {
				out[label[i+1:]] += s.m.RequestsShed.With(label).Load()
			}
		}
	}
	return out
}

func p99(durations []time.Duration) time.Duration {
	if len(durations) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durations...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*99/100]
}

// waitGoroutineBaseline polls until the goroutine count drops back to at
// most baseline+slack, failing with a full stack dump if it never does.
func waitGoroutineBaseline(t *testing.T, baseline, slack int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines never returned to baseline: %d > %d+%d\n%s",
				runtime.NumGoroutine(), baseline, slack, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosOverloadBrownout is the overload acceptance drill: two slow
// servers behind a tiny admission gate, an open-loop mixed-priority storm
// well past capacity, and a live shard migration riding through it.
func TestChaosOverloadBrownout(t *testing.T) {
	dir := t.TempDir()
	admit := AdmissionConfig{MaxConcurrent: 8, MaxQueue: 16, MaxQueueWait: 25 * time.Millisecond}
	s0 := startOverloadServer(t, dir, 0, admit, time.Millisecond, 2*time.Millisecond)
	s1 := startOverloadServer(t, dir, 1, admit, time.Millisecond, 2*time.Millisecond)
	addrs := []string{s0.addr, s1.addr}
	baseline := runtime.NumGoroutine()

	cm := &Metrics{}
	opts := DefaultOptions()
	opts.CallTimeout = 2 * time.Second
	opts.MaxRetries = 3
	opts.RetryBaseDelay = time.Millisecond
	opts.RetryMaxDelay = 20 * time.Millisecond
	opts.Metrics = cm
	opts.Seed = 1
	client, err := Dial(addrs, opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	closeClient := sync.OnceFunc(func() { client.Close() })
	defer closeClient()

	d := &Driver{Metrics: cm, Logf: t.Logf, CallTimeout: 5 * time.Second, PullTimeout: 30 * time.Second}
	const numShards = 4
	m, err := d.InitRouting(addrs, 1, numShards)
	if err != nil {
		t.Fatalf("init routing: %v", err)
	}
	if err := client.AdoptRouting(m); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if err := client.ApplyBatch(testEvents(500)); err != nil {
		t.Fatalf("seed: %v", err)
	}

	// Unloaded reference: sequential interactive sampling with no
	// competition. Its p99 anchors the brownout latency bound.
	var unloaded []time.Duration
	for i := 0; i < 40; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		start := time.Now()
		_, err := client.SampleNeighborsCtx(ctx, []graph.VertexID{graph.VertexID(i % 500)}, 0, 4, int64(i))
		cancel()
		if err != nil {
			t.Fatalf("unloaded sample %d: %v", i, err)
		}
		unloaded = append(unloaded, time.Since(start))
	}
	unloadedP99 := p99(unloaded)

	// The storm: 8 interactive samplers, 4 prefetch writers, 2 background
	// pollers — far past MaxConcurrent=8 given the store's built-in delays —
	// while shard 0 migrates from group 0 to group 1.
	const (
		stormDuration      = 1500 * time.Millisecond
		interactiveWorkers = 8
		prefetchWorkers    = 4
		backgroundWorkers  = 2
		interactiveBudget  = 150 * time.Millisecond
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var latMu sync.Mutex
	var loaded []time.Duration
	var intOK, intFail, bgOK, bgFail atomic.Int64

	for w := 0; w < interactiveWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), interactiveBudget)
				start := time.Now()
				_, err := client.SampleNeighborsCtx(ctx,
					[]graph.VertexID{graph.VertexID((w*131 + i) % 500)}, 0, 4, int64(w*10_000+i))
				cancel()
				elapsed := time.Since(start)
				latMu.Lock()
				loaded = append(loaded, elapsed)
				latMu.Unlock()
				if err != nil {
					intFail.Add(1)
				} else {
					intOK.Add(1)
				}
			}
		}(w)
	}
	for w := 0; w < prefetchWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(
					WithPriority(context.Background(), PriorityPrefetch), 250*time.Millisecond)
				events := make([]graph.Event, 50)
				for j := range events {
					v := graph.VertexID((w*997 + i*53 + j) % 2000)
					events[j] = graph.Event{Kind: graph.AddEdge,
						Edge: graph.Edge{Src: v, Dst: v + 5000, Weight: 1}}
				}
				client.ApplyBatchCtx(ctx, events) // failures are the point under overload
				cancel()
			}
		}(w)
	}
	for w := 0; w < backgroundWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(
					WithPriority(context.Background(), PriorityBackground), 100*time.Millisecond)
				_, err := client.StatsCtx(ctx)
				cancel()
				if err != nil {
					bgFail.Add(1)
				} else {
					bgOK.Add(1)
				}
			}
		}()
	}

	// The migration rides through the brownout. Control RPCs are background
	// class, so individual steps may be shed mid-storm; the driver loop
	// retries until the move lands (long after the storm ends if need be).
	migDone := make(chan error, 1)
	go func() {
		time.Sleep(200 * time.Millisecond) // let the storm establish first
		deadline := time.Now().Add(30 * time.Second)
		cur := m
		for {
			next, err := d.MigrateShard(cur, 0, 1)
			if err == nil {
				if next.GroupOf(s1.addr) < 0 || next.Assign[0] != next.GroupOf(s1.addr) {
					migDone <- fmt.Errorf("post-migration map does not place shard 0 on %s: %s", s1.addr, next)
					return
				}
				migDone <- nil
				return
			}
			if time.Now().After(deadline) {
				migDone <- fmt.Errorf("migration never completed: %w", err)
				return
			}
			time.Sleep(50 * time.Millisecond)
			if fresh, ferr := d.FetchMap(addrs); ferr == nil {
				cur = fresh
			}
		}
	}()

	time.Sleep(stormDuration)
	close(stop)
	wg.Wait()
	if err := <-migDone; err != nil {
		t.Errorf("migration under overload: %v", err)
	}

	// Invariant 1: interactive latency stays bounded through the brownout —
	// the admission gate sheds rather than queueing without bound, and the
	// propagated budget caps every call's total elapsed time.
	loadedP99 := p99(loaded)
	bound := 3 * unloadedP99
	if floor := 250 * time.Millisecond; bound < floor {
		// Absolute floor absorbs scheduler noise at race-test speeds: the
		// budget (150ms) plus client-side retry overhead bounds every call.
		bound = floor
	}
	t.Logf("interactive p99: unloaded %v, loaded %v (bound %v); %d ok / %d failed",
		unloadedP99, loadedP99, bound, intOK.Load(), intFail.Load())
	if loadedP99 > bound {
		t.Errorf("interactive p99 under overload = %v, want <= %v (3x unloaded %v)", loadedP99, bound, unloadedP99)
	}
	if intOK.Load() == 0 {
		t.Error("no interactive call succeeded during the storm — shedding everything is not brownout")
	}

	// Invariant 2: the gate actually shed (the storm was real), and lower
	// classes yielded at least as much as interactive traffic.
	sheds := shedByPriority(s0, s1)
	total := sheds["interactive"] + sheds["prefetch"] + sheds["background"]
	t.Logf("server sheds by priority: %v; background %d ok / %d failed", sheds, bgOK.Load(), bgFail.Load())
	if total == 0 {
		t.Error("no requests were shed — the workload never saturated the gate")
	}
	if sheds["prefetch"]+sheds["background"] < sheds["interactive"] {
		t.Errorf("interactive shed %d times vs %d prefetch+background — priorities inverted",
			sheds["interactive"], sheds["prefetch"]+sheds["background"])
	}

	// Invariant 3: shed is backpressure, not failure — client breakers must
	// never open on a healthy-but-saturated cluster, and the client must
	// have classified the sheds it saw.
	snap := cm.Snapshot()
	if snap.BreakerOpens != 0 {
		t.Errorf("client opened circuit breakers %d times under pure overload", snap.BreakerOpens)
	}
	if snap.ShedSeen == 0 && total > 0 {
		t.Error("servers shed requests but the client's ShedSeen counter never moved")
	}

	// The cluster still works after the storm and the migration.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.SampleNeighborsCtx(ctx, []graph.VertexID{1, 2, 3}, 0, 4, 99); err != nil {
		t.Fatalf("post-storm sample: %v", err)
	}

	// Invariant 4: no goroutine blowup survives the storm.
	closeClient()
	waitGoroutineBaseline(t, baseline, 8)
}

// TestOverloadGoroutineLeakRegression storms a deliberately slow server with
// short-budget calls so nearly everything times out or sheds, then requires
// the goroutine count to return to baseline — the regression test for
// leaked admission waiters, timed-out call goroutines, and
// abandoned connections.
func TestOverloadGoroutineLeakRegression(t *testing.T) {
	dir := t.TempDir()
	admit := AdmissionConfig{MaxConcurrent: 2, MaxQueue: 4, MaxQueueWait: 20 * time.Millisecond}
	srv := startOverloadServer(t, dir, 0, admit, 20*time.Millisecond, 20*time.Millisecond)
	baseline := runtime.NumGoroutine()

	cm := &Metrics{}
	opts := DefaultOptions()
	opts.CallTimeout = 30 * time.Millisecond
	opts.MaxRetries = 2
	opts.RetryBaseDelay = time.Millisecond
	opts.RetryMaxDelay = 5 * time.Millisecond
	opts.Metrics = cm
	opts.Seed = 1
	client, err := Dial([]string{srv.addr}, opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	closeClient := sync.OnceFunc(func() { client.Close() })
	defer closeClient()
	if err := client.ApplyBatch(testEvents(50)); err != nil {
		t.Fatalf("seed: %v", err)
	}

	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < 100; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
				_, err := client.SampleNeighborsCtx(ctx, []graph.VertexID{graph.VertexID(g % 50)}, 0, 4, int64(g))
				cancel()
				if err != nil {
					failed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if failed.Load() == 0 {
		t.Log("storm produced no failures — server kept up; leak check still meaningful")
	}
	closeClient()
	waitGoroutineBaseline(t, baseline, 8)
}
