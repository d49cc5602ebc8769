package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
	"platod2gl/internal/sampler"
	"platod2gl/internal/storage"
)

// sample2hop is the closed-loop sampling workload: clients calling
// sampler.SampleSubgraph straight against one in-process store. No cluster,
// no wire, no attribute store, no GNN.
type sample2hop struct {
	e     *env
	spec  *dataset.Spec
	store *storage.DynamicStore
	topo  storage.TopologyStore // the store, or its traced decorator
	pool  [][]graph.VertexID    // degree-weighted seed batches, cycled
	calls int                   // calls made so far, across drives

	// kept holds one call in every checkEvery for the oracle check.
	kept []*sampler.Subgraph
}

// User -> Live -> User: the forward User-Live relation, then its mirror.
var samplePath = graph.MetaPath{0, 0 + dataset.ReverseOffset}

const (
	sampleClients = 2
	seedBatches   = 256
	checkEvery    = 100 // 1% of calls are kept and checked against the oracle
	checkKeep     = 8   // per client and drive; each holds ~140k ids
)

func (w *sample2hop) setup(e *env) error {
	w.e = e
	w.spec = scaled(dataset.WeChatSim(), e.sz.sampleEvents)
	w.store, _ = newStore(e.procs)
	gen := dataset.NewGenerator(w.spec, dataset.BuildMix, e.seed)
	for left := e.sz.sampleEvents; left > 0; left -= 8192 {
		w.store.ApplyBatch(gen.Next(min(left, 8192)))
	}
	w.topo = w.store
	if e.traced() {
		w.topo = &tracedStore{DynamicStore: w.store, tr: e.tr, tk: tLoad0}
	}
	rng := rand.New(rand.NewSource(e.seed + 1))
	all := sampler.New(w.store, sampler.Options{}).SampleNodesByDegree(samplePath[0], seedBatches*e.sz.sampleSeeds, rng)
	if len(all) == 0 {
		return fmt.Errorf("sample-2hop: the generated graph has no %d-edges", samplePath[0])
	}
	w.pool = make([][]graph.VertexID, seedBatches)
	for i := range w.pool {
		w.pool[i] = all[i*e.sz.sampleSeeds : (i+1)*e.sz.sampleSeeds]
	}
	return nil
}

func (w *sample2hop) drive(d time.Duration) *window {
	win := &window{}
	fanouts := []int{w.e.sz.sampleF1, w.e.sz.sampleF2}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	base := w.calls
	for c := 0; c < sampleClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			smp := sampler.New(w.topo, sampler.Options{Seed: w.e.seed + int64(c)*7919})
			tk := tLoad0 + track(c)
			var obs []timed
			var kept []*sampler.Subgraph
			n := 0
			until(d, func() {
				seeds := w.pool[(base+n*sampleClients+c)%len(w.pool)]
				req := w.e.tr.open(kRequest, tk, uint32(n))
				t0 := time.Now()
				sp := w.e.tr.open(kSampler, tk, uint32(n))
				sg := smp.SampleSubgraph(seeds, samplePath, fanouts)
				w.e.tr.close(sp)
				t1 := time.Now()
				obs = append(obs, timed{end: int64(t1.Sub(start)), ms: float64(t1.Sub(t0)) / 1e6})
				if n%checkEvery == 0 && len(kept) < checkKeep {
					kept = append(kept, sg)
				}
				n++
				w.e.tr.close(req)
			})
			mu.Lock()
			win.lat = append(win.lat, obs...)
			w.kept = append(w.kept, kept...)
			w.calls += n
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	win.wall = time.Since(start)
	win.attempted = int64(len(win.lat))
	win.done = completions(win.lat, int64(w.e.sz.sampleSeeds))
	return win
}

// check replays the event stream into a plain-map oracle and requires every
// kept sample to be a real out-neighbour of the vertex it expands (or that
// vertex itself, when it has no out-neighbour under the relation).
func (w *sample2hop) check(*window) []string {
	type from struct {
		v  graph.VertexID
		et graph.EdgeType
	}
	need := make(map[from]map[graph.VertexID]struct{})
	for _, sg := range w.kept {
		frontier := sg.Seeds
		for _, l := range sg.Layers {
			for _, v := range frontier {
				if need[from{v, l.Type}] == nil {
					need[from{v, l.Type}] = make(map[graph.VertexID]struct{})
				}
			}
			frontier = l.Nodes
		}
	}
	gen := dataset.NewGenerator(w.spec, dataset.BuildMix, w.e.seed)
	for left := w.e.sz.sampleEvents; left > 0; left -= 8192 {
		for _, ev := range gen.Next(min(left, 8192)) {
			out := need[from{ev.Edge.Src, ev.Edge.Type}]
			if out == nil {
				continue
			}
			switch ev.Kind {
			case graph.AddEdge:
				out[ev.Edge.Dst] = struct{}{}
			case graph.DeleteEdge:
				delete(out, ev.Edge.Dst)
			}
		}
	}
	var bad []string
	checked := 0
	for _, sg := range w.kept {
		frontier := sg.Seeds
		for _, l := range sg.Layers {
			if len(l.Nodes) != len(frontier)*l.Fanout {
				bad = append(bad, fmt.Sprintf("layer holds %d nodes for %d x fan-out %d", len(l.Nodes), len(frontier), l.Fanout))
				break
			}
			for j, got := range l.Nodes {
				src := frontier[j/l.Fanout]
				out := need[from{src, l.Type}]
				_, real := out[got]
				if !real && !(got == src && len(out) == 0) {
					if len(bad) < 5 {
						bad = append(bad, fmt.Sprintf("%v is not an out-neighbour of %v under relation %d", got, src, l.Type))
					}
				}
				checked++
			}
			frontier = l.Nodes
		}
	}
	if checked == 0 {
		bad = append(bad, "no sampled call was checked against the oracle")
	}
	w.kept = nil
	return bad
}

func (w *sample2hop) bytesPerEdge() float64 {
	return ratio(float64(w.store.MemoryBytes()), float64(w.store.NumEdges()))
}

func (w *sample2hop) layers(win *window, l *ledger, out map[string]float64) {
	tr := w.e.tr
	calls := total(&l.n, kSampler)
	sampleNs := float64(tr.storeSample.ns.Load())
	out["storage.sample_ns_per_draw"] = ratio(sampleNs, float64(tr.storeSample.units.Load()))
	out["storage.sample_busy_share"] = ratio(sampleNs, float64(win.wall)*float64(w.e.procs))
	out["storage.mem_bytes"] = float64(w.store.MemoryBytes())
	out["sampler.subgraph_self_us"] = ratio(total(&l.dur, kSampler)-sampleNs, calls) / 1e3
	out["sampler.allocs_per_call"] = w.allocsPerCall()
}

// allocsPerCall counts heap allocations over a few calls made alone, after
// the window, so that nothing else in the process allocates meanwhile.
func (w *sample2hop) allocsPerCall() float64 {
	const runs = 10
	smp := sampler.New(w.store, sampler.Options{Seed: w.e.seed})
	fanouts := []int{w.e.sz.sampleF1, w.e.sz.sampleF2}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		smp.SampleSubgraph(w.pool[i%len(w.pool)], samplePath, fanouts)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

func (w *sample2hop) close() {}
