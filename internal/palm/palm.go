// Package palm implements the batch-based latch-free concurrent update
// mechanism of Sec. VI-B / Appendix B of the PlatoD2GL paper, in the style
// of the PALM tree.
//
// Instead of latching samtree nodes, a batch of update queries is (1)
// grouped so all queries touching one source vertex's samtree are
// contiguous, and (2) the groups are partitioned across worker threads by
// source hash — every samtree is therefore modified by exactly one thread
// and no latches are needed. Grouping hashes each (edge type, source) pair
// and places the events by counting sort, so it costs time linear in the
// batch; groups keep the order in which their sources first appear. Within
// a group the queries are ordered by destination ID, which serializes the
// per-tree modifications bottom-up with good leaf locality (consecutive
// queries tend to land in the same leaf).
package palm

import (
	"cmp"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"platod2gl/internal/graph"
)

// DefaultWorkers returns the default worker count (one per CPU, capped so a
// tiny batch is not over-parallelized).
func DefaultWorkers(batch int) int {
	w := runtime.GOMAXPROCS(0)
	if batch < 1024 && w > 4 {
		w = 4
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Group is the run of events sharing one (EdgeType, Src) pair, i.e. all
// updates destined for one samtree.
type Group struct {
	Type graph.EdgeType
	Src  graph.VertexID
	// Start is the position of Events[0] in the planned batch: groups tile
	// the batch, so per-event scratch of the batch's length, indexed from
	// Start, gives each group a region no other group touches.
	Start  int
	Events []graph.Event
}

// slot is one cell of the grouping table: a (type, source) pair and its
// group's index plus one, 0 marking an empty cell.
type slot struct {
	src   graph.VertexID
	group int32
	typ   graph.EdgeType
}

// plan is the reusable state of one Run: the grouping table, each event's
// group, the groups' ends, the placement order, the reordered events, the
// groups and the per-worker shards. Run takes one from plans and returns
// it, so a batch allocates none of them.
type plan struct {
	table  []slot
	of     []int32 // of[i] is event i's group
	ends   []int32 // ends[g] is the end of group g's region in order
	order  []int32
	placed []graph.Event
	groups []Group
	shards [][]Group
	wg     sync.WaitGroup
}

var plans = sync.Pool{New: func() any { return new(plan) }}

// Plan cuts events into per-samtree groups and reorders the slice in place
// so each group's events are contiguous. Within a group the events are in
// destination order; events on one edge keep their timestamp order, and
// those with equal timestamps keep their order in the batch, so per-edge
// operation order is preserved. Groups appear in the order their (type,
// source) pairs first occur in the batch, and their Start fields tile it.
func Plan(events []graph.Event) []Group {
	return new(plan).cut(events)
}

// cut is Plan into p's buffers. The groups it returns alias p.groups.
func (p *plan) cut(events []graph.Event) []Group {
	n := len(events)
	if n == 0 {
		return p.groups[:0]
	}
	// A power-of-two table at least twice the batch keeps probe chains short.
	size := 1 << bits.Len(uint(2*n-1))
	p.table = slices.Grow(p.table[:0], size)[:size]
	clear(p.table)
	mask := uint64(size - 1)
	p.of = slices.Grow(p.of[:0], n)[:n]
	ends := p.ends[:0] // each group's size, for now
	for i := range events {
		e := &events[i].Edge
		h := hash(e.Type, e.Src) & mask
		for {
			s := &p.table[h]
			if s.group == 0 {
				ends = append(ends, 0)
				*s = slot{src: e.Src, group: int32(len(ends)), typ: e.Type}
			} else if s.src != e.Src || s.typ != e.Type {
				h = (h + 1) & mask
				continue
			}
			p.of[i] = s.group - 1
			ends[s.group-1]++
			break
		}
	}
	p.ends = ends

	// Counting sort: each group's region starts where the previous one ends.
	// Placing an event advances its group's cursor, which ends at the
	// group's end.
	at := int32(0)
	for g, size := range ends {
		ends[g] = at
		at += size
	}
	p.order = slices.Grow(p.order[:0], n)[:n]
	for i, g := range p.of {
		p.order[ends[g]] = int32(i)
		ends[g]++
	}
	start := int32(0)
	for _, end := range ends {
		sortGroup(events, p.order[start:end])
		start = end
	}

	p.placed = p.placed[:0]
	for _, i := range p.order {
		p.placed = append(p.placed, events[i])
	}
	copy(events, p.placed)
	groups := p.groups[:0]
	start = 0
	for _, end := range ends {
		e := &events[start].Edge
		groups = append(groups, Group{Type: e.Type, Src: e.Src, Start: int(start), Events: events[start:end]})
		start = end
	}
	p.groups = groups
	return groups
}

// sortGroup orders one group's positions, which arrive in batch order, by
// the events' (Dst, Timestamp), keeping batch order on ties. It sorts
// positions, not events, since an int32 moves cheaper than an event.
func sortGroup(events []graph.Event, order []int32) {
	if len(order) <= 12 {
		// Insertion sort, stable: most groups hold one or two events.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0; j-- {
				x, y := &events[order[j-1]], &events[order[j]]
				if x.Edge.Dst < y.Edge.Dst || x.Edge.Dst == y.Edge.Dst && x.Timestamp <= y.Timestamp {
					break
				}
				order[j-1], order[j] = order[j], order[j-1]
			}
		}
		return
	}
	// The position breaks ties, which makes the unstable sort stable.
	slices.SortFunc(order, func(i, j int32) int {
		x, y := &events[i], &events[j]
		if c := cmp.Compare(x.Edge.Dst, y.Edge.Dst); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Timestamp, y.Timestamp); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
}

// hash mixes an edge type and a source into the 64 bits that pick both a
// grouping table cell and a worker.
func hash(et graph.EdgeType, src graph.VertexID) uint64 {
	x := uint64(src) ^ uint64(et)<<56
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Run executes a batch of topology updates: it plans the batch, partitions
// the groups across workers by source hash so that each samtree is touched
// by exactly one goroutine, and invokes apply once per worker with that
// worker's groups. apply must be safe for concurrent invocation on disjoint
// group lists; it must not keep the list past its return. The events slice
// is reordered in place. The calling goroutine works one shard itself, so a
// batch starts workers-1 goroutines.
func Run(events []graph.Event, workers int, apply func([]Group)) {
	if len(events) == 0 {
		return
	}
	p := plans.Get().(*plan)
	groups := p.cut(events)
	if workers <= 1 || len(groups) == 1 {
		apply(groups)
		p.release()
		return
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	// Shard groups by source hash: deterministic, and any future groups for
	// the same source land on the same worker.
	for len(p.shards) < workers {
		p.shards = append(p.shards, nil)
	}
	shards := p.shards[:workers]
	for _, g := range groups {
		w := int(hash(g.Type, g.Src) % uint64(workers))
		shards[w] = append(shards[w], g)
	}
	for _, shard := range shards[1:] {
		if len(shard) == 0 {
			continue
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			apply(shard)
		}()
	}
	if len(shards[0]) > 0 {
		apply(shards[0])
	}
	p.wg.Wait()
	p.release()
}

// release empties p's groups and shards, so the pool holds no reference to
// the caller's events, and returns p to the pool. A Run that panics drops p
// instead, since its workers may still read the shards.
func (p *plan) release() {
	clear(p.groups)
	p.groups = p.groups[:0]
	for i := range p.shards {
		clear(p.shards[i])
		p.shards[i] = p.shards[i][:0]
	}
	plans.Put(p)
}
