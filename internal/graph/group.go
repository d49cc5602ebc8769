package graph

// Grouping indexes a list of vertex ids by distinct id: IDs lists each id
// once, in first-occurrence order, and Of gives every position its id's
// index in IDs. Runs then lists each distinct id's positions. The sampler
// groups a hop's frontier with it, the cluster client a fan-out's ids, and
// the GNN block builder a block's vertices.
//
// The index is an open-addressing table of int32 slots with linear
// probing, at most half full, hashed by SplitMix64's finalizer. Every
// buffer is sized to the last Reset, so a pooled Grouping costs what its
// current list uses, however long a list it held before. First-occurrence
// order does not depend on the hash.
type Grouping struct {
	IDs    []VertexID // the distinct ids, in first-occurrence order
	Of     []int32    // Of[i] is position i's index in IDs
	Bounds []int32    // after Runs, the positions of IDs[d] are Occ[Bounds[d]:Bounds[d+1]]
	Occ    []int32    // after Runs, the positions grouped by id, each run ascending
	table  []int32    // 1 + the id's index in IDs; 0 is empty
}

// Reset empties g and sizes it for n positions in total over the Add calls
// that follow.
func (g *Grouping) Reset(n int) {
	size := 1
	for size < 2*n {
		size <<= 1
	}
	g.table = room(g.table, size)[:size]
	clear(g.table)
	// There are at most n distinct ids, so neither grows in Add.
	g.IDs = room(g.IDs, n)
	g.Of = room(g.Of, n)
}

// Add appends ids' positions to the grouping, after those of earlier Add
// calls since the last Reset. It panics past the size Reset was given.
func (g *Grouping) Add(ids []VertexID) {
	table, distinct, of := g.table, g.IDs, g.Of
	if len(of)+len(ids) > len(table)/2 {
		panic("graph: Grouping.Add past the size given to Reset")
	}
	mask := uint64(len(table) - 1)
	for _, v := range ids {
		at := Mix64(uint64(v)) & mask
		for table[at] != 0 && distinct[table[at]-1] != v {
			at = (at + 1) & mask
		}
		if table[at] == 0 {
			distinct = append(distinct, v)
			table[at] = int32(len(distinct))
		}
		of = append(of, table[at]-1)
	}
	g.IDs, g.Of = distinct, of
}

// Runs fills Bounds and Occ from Of with a counting sort, which lists each
// distinct id's positions in ascending order. It reads only Of and the
// length of IDs, so a caller may first relabel Of by a permutation of IDs
// to get the runs in that order.
func (g *Grouping) Runs() {
	nd := len(g.IDs)
	bounds := room(g.Bounds, nd+1)[:nd+1]
	clear(bounds)
	for _, d := range g.Of {
		bounds[d+1]++
	}
	// bounds[d+1] holds run d's length, then its start, then (placing a
	// position advances it) its end, which is run d+1's start.
	at := int32(0)
	for d := 1; d <= nd; d++ {
		m := bounds[d]
		bounds[d] = at
		at += m
	}
	occ := room(g.Occ, len(g.Of))[:len(g.Of)]
	for i, d := range g.Of {
		occ[bounds[d+1]] = int32(i)
		bounds[d+1]++
	}
	g.Bounds, g.Occ = bounds, occ
}

// room returns s emptied, with capacity for n elements: s itself if it has
// it, else one new array. slices.Grow would allocate twice under the race
// detector, which does not fuse its append of a make.
func room[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, 0, n)
	}
	return s[:0]
}

// Mix64 is SplitMix64's finalizer: every input bit reaches every output
// bit, so consecutive vertex ids spread over a hash table. Digests,
// payload checksums and synthetic labels hash with it too.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
