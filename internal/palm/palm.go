// Package palm implements the batch-based latch-free concurrent update
// mechanism of Sec. VI-B / Appendix B of the PlatoD2GL paper, in the style
// of the PALM tree.
//
// Instead of latching samtree nodes, a batch of update queries is (1) sorted
// by vertex IDs, (2) grouped so all queries touching one source vertex's
// samtree are contiguous, and (3) the groups are partitioned across worker
// threads by source hash — every samtree is therefore modified by exactly
// one thread and no latches are needed. Within a group the queries arrive
// sorted by destination ID, which serializes the per-tree modifications
// bottom-up with good leaf locality (consecutive queries tend to land in the
// same leaf).
package palm

import (
	"cmp"
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

// Group is a maximal run of events sharing one (EdgeType, Src) pair, i.e.
// all updates destined for one samtree.
type Group struct {
	Type graph.EdgeType
	Src  graph.VertexID
	// Start is the position of Events[0] in the planned batch: groups tile
	// the batch, so per-event scratch of the batch's length, indexed from
	// Start, gives each group a region no other group touches.
	Start  int
	Events []graph.Event
}

// plan is the reusable state of one Run: the sort order, the reordered
// events, the groups and the per-worker shards. Run takes one from plans and
// returns it, so a batch allocates none of them.
type plan struct {
	order  []int32
	sorted []graph.Event
	groups []Group
	shards [][]Group
	wg     sync.WaitGroup
}

var plans = sync.Pool{New: func() any { return new(plan) }}

// Plan sorts events by (EdgeType, Src, Dst) and cuts them into per-samtree
// groups. The input slice is sorted in place. Events on one edge keep their
// timestamp order, and those with equal timestamps keep their order in the
// batch, so per-edge operation order is preserved.
func Plan(events []graph.Event) []Group {
	return new(plan).cut(events)
}

// cut is Plan into p's buffers. The groups it returns alias p.groups.
func (p *plan) cut(events []graph.Event) []Group {
	// Sort positions, not events: the position breaks ties, which makes the
	// (unstable) sort stable, and an int32 moves cheaper than an event.
	p.order = p.order[:0]
	for i := range events {
		p.order = append(p.order, int32(i))
	}
	slices.SortFunc(p.order, func(i, j int32) int {
		x, y := &events[i], &events[j]
		if c := cmp.Compare(x.Edge.Type, y.Edge.Type); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Edge.Src, y.Edge.Src); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Edge.Dst, y.Edge.Dst); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Timestamp, y.Timestamp); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	p.sorted = p.sorted[:0]
	for _, i := range p.order {
		p.sorted = append(p.sorted, events[i])
	}
	copy(events, p.sorted)

	groups := p.groups[:0]
	for i := 0; i < len(events); {
		j := i + 1
		for j < len(events) &&
			events[j].Edge.Type == events[i].Edge.Type &&
			events[j].Edge.Src == events[i].Edge.Src {
			j++
		}
		groups = append(groups, Group{
			Type:   events[i].Edge.Type,
			Src:    events[i].Edge.Src,
			Start:  i,
			Events: events[i:j],
		})
		i = j
	}
	p.groups = groups
	return groups
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Run executes a batch of topology updates: it plans the batch and invokes
// apply once per group, partitioning groups across workers by source hash so
// that each samtree is touched by exactly one goroutine. apply must be safe
// for concurrent invocation on *different* sources. The events slice is
// reordered in place. The calling goroutine works one shard itself, so a
// batch starts workers-1 goroutines.
func Run(events []graph.Event, workers int, apply func(Group)) {
	if len(events) == 0 {
		return
	}
	p := plans.Get().(*plan)
	groups := p.cut(events)
	if workers <= 1 || len(groups) == 1 {
		for _, g := range groups {
			apply(g)
		}
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
		w := int(mix(uint64(g.Src)^uint64(g.Type)<<56) % uint64(workers))
		shards[w] = append(shards[w], g)
	}
	for _, shard := range shards[1:] {
		if len(shard) == 0 {
			continue
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for _, g := range shard {
				apply(g)
			}
		}()
	}
	for _, g := range shards[0] {
		apply(g)
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
