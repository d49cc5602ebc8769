// Package sampler implements the TF-operator-layer sampling primitives of
// PlatoD2GL (Sec. III): node sampling (draw vertices from the whole graph),
// neighbor sampling (fixed-fanout weighted neighbors for a batch of seeds),
// and subgraph sampling (multi-hop meta-path expansion pivoted at a seed,
// Sec. VII-C). All three operate against any storage.TopologyStore, so the
// benchmark harness can compare engines under identical query plans.
package sampler

import (
	"math/rand"
	"slices"
	"sync"

	"platod2gl/internal/graph"
	"platod2gl/internal/storage"
)

// Options configure batch samplers.
type Options struct {
	// Parallelism bounds worker goroutines for batch queries; 0 = serial.
	Parallelism int
	// Seed makes sampling deterministic; worker w derives seed+w.
	Seed int64
}

// Sampler executes sampling operators against a topology store. It keeps
// no per-call state, so one Sampler serves many goroutines at once.
type Sampler struct {
	store storage.TopologyStore
	opt   Options
}

// New returns a sampler over the given store.
func New(store storage.TopologyStore, opt Options) *Sampler {
	return &Sampler{store: store, opt: opt}
}

// SampleNodes draws k source vertices of relation et uniformly at random
// (with replacement). This is the paper's node-sampling operator, used to
// form mini-batch seeds.
func (s *Sampler) SampleNodes(et graph.EdgeType, k int, rng *rand.Rand) []graph.VertexID {
	srcs := s.store.Sources(et)
	if len(srcs) == 0 {
		return nil
	}
	out := make([]graph.VertexID, k)
	for i := range out {
		out[i] = srcs[rng.Intn(len(srcs))]
	}
	return out
}

// NeighborBatch is the result of batched neighbor sampling: for seed i,
// Neighbors[i*Fanout:(i+1)*Fanout] holds its samples. Seeds without
// out-neighbors fall back to the seed itself (a self-loop), keeping the
// result dense for tensor consumption.
type NeighborBatch struct {
	Seeds     []graph.VertexID
	Fanout    int
	Neighbors []graph.VertexID
}

// SampleNeighbors draws fanout weighted neighbors (with replacement) for
// each seed under relation et, in parallel for large batches. A seed that
// occurs m times is drawn from once, m·fanout times, and each occurrence
// gets its own fanout of those draws (see sampleHop).
func (s *Sampler) SampleNeighbors(seeds []graph.VertexID, et graph.EdgeType, fanout int) *NeighborBatch {
	out := &NeighborBatch{
		Seeds:     seeds,
		Fanout:    fanout,
		Neighbors: make([]graph.VertexID, len(seeds)*fanout),
	}
	h := hops.Get().(*hop)
	s.sampleHop(h, seeds, et, fanout, out.Neighbors)
	hops.Put(h)
	return out
}

// SampleNeighborsUniform draws fanout unweighted neighbors (each with
// probability 1/degree) per seed — the sampling mode plain GraphSAGE uses.
func (s *Sampler) SampleNeighborsUniform(seeds []graph.VertexID, et graph.EdgeType, fanout int) *NeighborBatch {
	out := &NeighborBatch{
		Seeds:     seeds,
		Fanout:    fanout,
		Neighbors: make([]graph.VertexID, len(seeds)*fanout),
	}
	s.forEachSeed(len(seeds), func(w int, i int, rng *rand.Rand) {
		base := i * fanout
		got := s.store.SampleNeighborsUniform(seeds[i], et, fanout, rng, out.Neighbors[base:base])
		for j := len(got); j < fanout; j++ {
			out.Neighbors[base+j] = seeds[i]
		}
	})
	return out
}

// RandomWalk performs length steps of a weighted random walk from every
// seed over relation et (the KnightKing-style primitive, ref. [34] of the
// paper), returning the walks as rows of length+1 vertices (seed included).
// A walk that reaches a sink vertex stays there.
func (s *Sampler) RandomWalk(seeds []graph.VertexID, et graph.EdgeType, length int) [][]graph.VertexID {
	walks := make([][]graph.VertexID, len(seeds))
	s.forEachSeed(len(seeds), func(w int, i int, rng *rand.Rand) {
		walk := make([]graph.VertexID, 0, length+1)
		cur := seeds[i]
		walk = append(walk, cur)
		var buf [1]graph.VertexID
		for step := 0; step < length; step++ {
			got := s.store.SampleNeighbors(cur, et, 1, rng, buf[:0])
			if len(got) == 0 {
				walk = append(walk, cur) // sink: stay put
				continue
			}
			cur = got[0]
			walk = append(walk, cur)
		}
		walks[i] = walk
	})
	return walks
}

// Layer is one hop of a sampled subgraph.
type Layer struct {
	// Type is the relation traversed to reach this layer.
	Type graph.EdgeType
	// Nodes holds the sampled frontier: node j expands seed-layer node
	// j/Fanout.
	Nodes  []graph.VertexID
	Fanout int
}

// Subgraph is the result of meta-path subgraph sampling: Layers[0] expands
// the seeds, Layers[i] expands Layers[i-1].
type Subgraph struct {
	Seeds  []graph.VertexID
	Layers []Layer
}

// NumNodes returns the total node count across seeds and layers.
func (g *Subgraph) NumNodes() int {
	n := len(g.Seeds)
	for _, l := range g.Layers {
		n += len(l.Nodes)
	}
	return n
}

// SampleSubgraph expands each seed along the meta-path with the given
// per-hop fanouts (the paper's subgraph-sampling operator; Fig. 10(d-f) uses
// 2-hop meta-paths). len(path) must equal len(fanouts). Each hop samples its
// frontier as SampleNeighbors samples its seeds.
func (s *Sampler) SampleSubgraph(seeds []graph.VertexID, path graph.MetaPath, fanouts []int) *Subgraph {
	if len(path) != len(fanouts) {
		panic("sampler: meta-path and fanout lengths differ")
	}
	sg := &Subgraph{Seeds: seeds, Layers: make([]Layer, len(path))}
	h := hops.Get().(*hop)
	frontier := seeds
	for i, et := range path {
		fanout := fanouts[i]
		nodes := make([]graph.VertexID, len(frontier)*fanout)
		s.sampleHop(h, frontier, et, fanout, nodes)
		sg.Layers[i] = Layer{Type: et, Nodes: nodes, Fanout: fanout}
		frontier = nodes
	}
	hops.Put(h)
	return sg
}

// hop is the scratch of one sampled frontier, pooled because a Sampler is
// shared across goroutines: the frontier grouped by vertex, and the draws.
type hop struct {
	graph.Grouping                  // the frontier's distinct vertices and their positions
	counts         []int            // draws asked of each distinct vertex
	got            []int            // draws the store returned for each distinct vertex
	draws          []graph.VertexID // worker w's draws fill the region of its vertices' positions
	wg             sync.WaitGroup
}

var hops = sync.Pool{New: func() any { return new(hop) }}

// rngs pools the per-worker generators. Reseeding one in place gives the
// stream a fresh rand.New(rand.NewSource(seed)) would, without its 5 KB.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// sampleHop fills nodes (len(frontier)*fanout) with fanout weighted draws
// for each frontier position, the position's own vertex where it has no
// out-neighbor under et. It groups the frontier, asks the store for
// m·fanout draws of each distinct vertex that occurs m times, in one
// SampleFrontier call per worker, and gives block j of a vertex's draws to
// its occurrence j. Draws are independent and with replacement, so each
// occurrence still gets fanout independent samples of its neighbors; no
// two occurrences share a block.
//
// With Parallelism > 1 the distinct vertices are split into runs of about
// equal draw counts, one per worker, so a hub's occurrences weigh on the
// split as much as its draws weigh on the work. Worker w draws from a
// generator seeded Seed+w+1, as every hop does, so the result depends only
// on the seed, the frontier and the store.
func (s *Sampler) sampleHop(h *hop, frontier []graph.VertexID, et graph.EdgeType, fanout int, nodes []graph.VertexID) {
	n := len(frontier)
	if n == 0 || fanout == 0 {
		return
	}
	h.Reset(n)
	h.Add(frontier)
	h.Runs()
	nd := len(h.IDs)
	h.counts = slices.Grow(h.counts[:0], nd)[:nd]
	h.got = slices.Grow(h.got[:0], nd)[:nd]
	for d := range h.counts {
		h.counts[d] = int(h.Bounds[d+1]-h.Bounds[d]) * fanout
	}
	h.draws = slices.Grow(h.draws[:0], n*fanout)[:n*fanout]
	p := s.opt.Parallelism
	if p <= 1 || nd < 64 {
		s.sampleRun(h, 0, 0, nd, et, fanout, nodes)
		return
	}
	lo := 0
	for w := 0; w < p && lo < nd; w++ {
		hi := nd
		if w < p-1 {
			// Take vertices until the run's positions reach its share.
			share := int32((w + 1) * n / p)
			hi = lo + 1
			for hi < nd && h.Bounds[hi] < share {
				hi++
			}
		}
		h.wg.Add(1)
		go func(w, lo, hi int) {
			defer h.wg.Done()
			s.sampleRun(h, w, lo, hi, et, fanout, nodes)
		}(w, lo, hi)
		lo = hi
	}
	h.wg.Wait()
}

// sampleRun samples distinct vertices [lo, hi) with worker w's generator
// and scatters their draws to their positions in nodes. The run's draws go
// to the region of draws its positions span, which no other run touches.
func (s *Sampler) sampleRun(h *hop, w, lo, hi int, et graph.EdgeType, fanout int, nodes []graph.VertexID) {
	first, last := int(h.Bounds[lo]), int(h.Bounds[hi])
	rng := rngs.Get().(*rand.Rand)
	rng.Seed(s.opt.Seed + int64(w) + 1)
	draws := h.draws[first*fanout : first*fanout : last*fanout]
	draws = s.store.SampleFrontier(h.IDs[lo:hi], et, h.counts[lo:hi], rng, draws, h.got[lo:hi])
	rngs.Put(rng)
	at := 0
	for d := lo; d < hi; d++ {
		occ := h.Occ[h.Bounds[d]:h.Bounds[d+1]]
		if h.got[d] == 0 {
			for _, pos := range occ {
				slot := nodes[int(pos)*fanout : int(pos+1)*fanout]
				for j := range slot {
					slot[j] = h.IDs[d] // self-loop fallback
				}
			}
			continue
		}
		for _, pos := range occ {
			copy(nodes[int(pos)*fanout:int(pos+1)*fanout], draws[at:at+fanout])
			at += fanout
		}
	}
}

// forEachSeed runs fn(worker, index, rng) for indexes [0, n), either
// serially or across the configured parallelism. Worker w draws from a
// pooled generator reseeded to Seed+w+1.
func (s *Sampler) forEachSeed(n int, fn func(w, i int, rng *rand.Rand)) {
	p := s.opt.Parallelism
	if p <= 1 || n < 64 {
		rng := rngs.Get().(*rand.Rand)
		rng.Seed(s.opt.Seed + 1)
		for i := 0; i < n; i++ {
			fn(0, i, rng)
		}
		rngs.Put(rng)
		return
	}
	if p > n {
		p = n
	}
	var wg sync.WaitGroup
	chunk := (n + p - 1) / p
	for w := 0; w < p; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			rng := rngs.Get().(*rand.Rand)
			rng.Seed(s.opt.Seed + int64(w) + 1)
			for i := lo; i < hi; i++ {
				fn(w, i, rng)
			}
			rngs.Put(rng)
		}(w, lo, hi)
	}
	wg.Wait()
}

// SampleNodesByDegree draws k source vertices of relation et with
// probability proportional to out-degree — the standard seed distribution
// when mini-batches should reflect edge mass rather than vertex count.
func (s *Sampler) SampleNodesByDegree(et graph.EdgeType, k int, rng *rand.Rand) []graph.VertexID {
	srcs := s.store.Sources(et)
	if len(srcs) == 0 {
		return nil
	}
	cum := make([]int64, len(srcs))
	var total int64
	for i, src := range srcs {
		total += int64(s.store.Degree(src, et))
		cum[i] = total
	}
	if total == 0 {
		return nil
	}
	out := make([]graph.VertexID, k)
	for i := range out {
		r := rng.Int63n(total)
		lo, hi := 0, len(cum)
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] > r {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		out[i] = srcs[lo]
	}
	return out
}
