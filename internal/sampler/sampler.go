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
	return s.neighborBatch(seeds, et, fanout, false)
}

// SampleNeighborsUniform draws fanout unweighted neighbors (each with
// probability 1/degree) per seed — the sampling mode plain GraphSAGE uses.
func (s *Sampler) SampleNeighborsUniform(seeds []graph.VertexID, et graph.EdgeType, fanout int) *NeighborBatch {
	return s.neighborBatch(seeds, et, fanout, true)
}

func (s *Sampler) neighborBatch(seeds []graph.VertexID, et graph.EdgeType, fanout int, uniform bool) *NeighborBatch {
	out := &NeighborBatch{
		Seeds:     seeds,
		Fanout:    fanout,
		Neighbors: make([]graph.VertexID, len(seeds)*fanout),
	}
	h := hops.Get().(*hop)
	s.sampleHop(h, 0, seeds, et, fanout, uniform, out.Neighbors)
	hops.Put(h)
	return out
}

// RandomWalk performs length steps of a weighted random walk from every
// seed over relation et (the KnightKing-style primitive, ref. [34] of the
// paper), returning the walks as rows of length+1 vertices (seed included;
// a length below 1 returns each seed alone). Step i moves every walker at
// once, as one fan-out-1 hop from stream i. A walk that reaches a sink
// vertex stays there.
func (s *Sampler) RandomWalk(seeds []graph.VertexID, et graph.EdgeType, length int) [][]graph.VertexID {
	n, row := len(seeds), max(length, 0)+1
	walks := make([][]graph.VertexID, n)
	flat := make([]graph.VertexID, n*row)
	for i := range walks {
		walks[i] = flat[i*row : (i+1)*row : (i+1)*row]
		walks[i][0] = seeds[i]
	}
	cur, next := slices.Clone(seeds), make([]graph.VertexID, n)
	h := hops.Get().(*hop)
	for step := 0; step < row-1; step++ {
		s.sampleHop(h, step, cur, et, 1, false, next)
		for i, v := range next {
			walks[i][step+1] = v
		}
		cur, next = next, cur
	}
	hops.Put(h)
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
// frontier as SampleNeighbors samples its seeds, hop i from stream i.
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
		s.sampleHop(h, i, frontier, et, fanout, false, nodes)
		sg.Layers[i] = Layer{Type: et, Nodes: nodes, Fanout: fanout}
		frontier = nodes
	}
	hops.Put(h)
	return sg
}

// hop is one sampled frontier, pooled because a Sampler is shared across
// goroutines: what it asks of the store, the frontier grouped by vertex,
// and the draws.
type hop struct {
	graph.Grouping                  // the frontier's distinct vertices and their positions
	et             graph.EdgeType   // the relation sampled
	fanout         int              // draws per position
	uniform        bool             // draws ignore edge weights
	seed           int64            // worker w's generator is seeded seed+w
	counts         []int            // draws asked of each distinct vertex
	got            []int            // draws the store returned for each distinct vertex
	draws          []graph.VertexID // worker w's draws fill the region of its vertices' positions
	wg             sync.WaitGroup
}

var hops = sync.Pool{New: func() any { return new(hop) }}

// rngs pools the per-worker generators. Reseeding one in place gives the
// stream a fresh NewRand(seed) would.
var rngs = sync.Pool{New: func() any { return NewRand(1) }}

// streamSeed is the seed of stream i: worker w of the stream draws from a
// generator seeded streamSeed(i)+w+1. Stream 0 is Seed itself, which
// defines the cluster server's sampling reply. Later streams hash (Seed, i)
// instead of adding a stride, so that no stream's workers share a seed with
// another stream's (NewRand hashes each seed, so distinct seeds give
// independent streams).
func (s *Sampler) streamSeed(stream int) int64 {
	if stream == 0 {
		return s.opt.Seed
	}
	return int64(graph.Mix64(uint64(s.opt.Seed) + uint64(stream)*0x9e3779b97f4a7c15))
}

// sampleHop fills nodes (len(frontier)*fanout) with fanout draws for each
// frontier position, weighted or uniform, the position's own vertex where
// it has no out-neighbor under et. It groups the frontier, asks the store
// for m·fanout draws of each distinct vertex that occurs m times, in one
// SampleFrontier call per worker, and gives block j of a vertex's draws to
// its occurrence j. Draws are independent and with replacement, so each
// occurrence still gets fanout independent samples of its neighbors; no
// two occurrences share a block.
//
// A call's hops, or a walk's steps, draw from streams 0, 1, 2, ... (see
// streamSeed), so no hop repeats another's draws, and the result depends
// only on the seed, the frontier and the store. With Parallelism > 1 the
// distinct vertices are split into runs of about equal draw counts, one per
// worker, so a hub's occurrences weigh on the split as much as its draws
// weigh on the work.
func (s *Sampler) sampleHop(h *hop, stream int, frontier []graph.VertexID, et graph.EdgeType, fanout int, uniform bool, nodes []graph.VertexID) {
	n := len(frontier)
	if n == 0 || fanout == 0 {
		return
	}
	h.et, h.fanout, h.uniform = et, fanout, uniform
	h.seed = s.streamSeed(stream) + 1
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
		s.sampleRun(h, 0, 0, nd, nodes)
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
			s.sampleRun(h, w, lo, hi, nodes)
		}(w, lo, hi)
		lo = hi
	}
	h.wg.Wait()
}

// sampleRun samples distinct vertices [lo, hi) with worker w's generator
// and scatters their draws to their positions in nodes. The run's draws go
// to the region of draws its positions span, which no other run touches.
func (s *Sampler) sampleRun(h *hop, w, lo, hi int, nodes []graph.VertexID) {
	fanout := h.fanout
	first, last := int(h.Bounds[lo]), int(h.Bounds[hi])
	rng := rngs.Get().(*rand.Rand)
	rng.Seed(h.seed + int64(w))
	draws := h.draws[first*fanout : first*fanout : last*fanout]
	draws = s.store.SampleFrontier(h.IDs[lo:hi], h.et, h.counts[lo:hi], h.uniform, rng, draws, h.got[lo:hi])
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
