package ann

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// clusteredVecs generates n vectors in dim dimensions drawn from k Gaussian
// clusters — the geometry GNN embeddings actually have (classes collapse
// into clusters), and the one naive-link HNSW variants lose recall on.
func clusteredVecs(n, dim, k int, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, k)
	for c := range centers {
		centers[c] = make([]float32, dim)
		for i := range centers[c] {
			centers[c][i] = float32(rng.NormFloat64() * 4)
		}
	}
	out := make([][]float32, n)
	for i := range out {
		c := centers[i%k]
		v := make([]float32, dim)
		for j := range v {
			v[j] = c[j] + float32(rng.NormFloat64())
		}
		out[i] = v
	}
	return out
}

// bruteKNN is the exact oracle: all live ids sorted by squared L2 distance.
func bruteKNN(corpus map[uint64][]float32, q []float32, k int) []uint64 {
	type pair struct {
		id   uint64
		dist float32
	}
	all := make([]pair, 0, len(corpus))
	for id, v := range corpus {
		all = append(all, pair{id, sqDist(q, v)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].dist != all[j].dist {
			return all[i].dist < all[j].dist
		}
		return all[i].id < all[j].id
	})
	if len(all) > k {
		all = all[:k]
	}
	ids := make([]uint64, len(all))
	for i, p := range all {
		ids[i] = p.id
	}
	return ids
}

func recallAt(t *testing.T, ix *Index, corpus map[uint64][]float32, queries [][]float32, k int) float64 {
	t.Helper()
	hits, total := 0, 0
	for _, q := range queries {
		truth := bruteKNN(corpus, q, k)
		got, err := ix.Search(q, k)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		want := make(map[uint64]bool, len(truth))
		for _, id := range truth {
			want[id] = true
		}
		for _, r := range got {
			if want[r.ID] {
				hits++
			}
		}
		total += len(truth)
	}
	return float64(hits) / float64(total)
}

// TestConformanceRecallAt10 is the fuzz-adjacent conformance gate: at a
// pinned size and seed, the index must agree with the brute-force oracle on
// at least 95% of top-10 results.
func TestConformanceRecallAt10(t *testing.T) {
	const (
		n    = 2000
		dim  = 32
		k    = 10
		seed = 7
	)
	vecs := clusteredVecs(n, dim, 16, seed)
	ix, err := New(Config{Dim: dim, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	corpus := make(map[uint64][]float32, n)
	for i, v := range vecs {
		if err := ix.Insert(uint64(i), v); err != nil {
			t.Fatal(err)
		}
		corpus[uint64(i)] = v
	}
	rng := rand.New(rand.NewSource(seed + 1))
	queries := make([][]float32, 200)
	for i := range queries {
		base := vecs[rng.Intn(n)]
		q := make([]float32, dim)
		for j := range q {
			q[j] = base[j] + float32(rng.NormFloat64()*0.25)
		}
		queries[i] = q
	}
	if r := recallAt(t, ix, corpus, queries, k); r < 0.95 {
		t.Fatalf("recall@%d = %.3f, want >= 0.95", k, r)
	}
}

// TestDeterministicSearch proves run-to-run reproducibility: the same
// insertion sequence under the same seed yields byte-identical search
// results (the level generator is a pure function of seed and ID, and the
// link heuristic is deterministic).
func TestDeterministicSearch(t *testing.T) {
	const (
		n   = 800
		dim = 16
	)
	vecs := clusteredVecs(n, dim, 8, 3)
	build := func() *Index {
		ix, err := New(Config{Dim: dim, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vecs {
			if err := ix.Insert(uint64(i), v); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	}
	a, b := build(), build()
	rng := rand.New(rand.NewSource(5))
	for qi := 0; qi < 50; qi++ {
		q := vecs[rng.Intn(n)]
		ra, err := a.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra) != len(rb) {
			t.Fatalf("query %d: %d vs %d results", qi, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("query %d rank %d: %+v vs %+v", qi, i, ra[i], rb[i])
			}
		}
	}
}

// TestDeleteAndCompact covers the tombstone lifecycle: deleted IDs never
// come back from Search, recall over the survivors holds, the automatic
// compaction fires once tombstones dominate, and results survive it.
func TestDeleteAndCompact(t *testing.T) {
	const (
		n   = 600
		dim = 16
		k   = 10
	)
	m := &Metrics{}
	vecs := clusteredVecs(n, dim, 8, 17)
	ix, err := New(Config{Dim: dim, Seed: 17, MaxTombstoneShare: 0.35, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	corpus := make(map[uint64][]float32, n)
	for i, v := range vecs {
		if err := ix.Insert(uint64(i), v); err != nil {
			t.Fatal(err)
		}
		corpus[uint64(i)] = v
	}
	// Delete 40% — past MaxTombstoneShare relative to the arena only near
	// the end, so searches run against a tombstone-heavy graph first.
	deleted := make(map[uint64]bool)
	for i := 0; i < n; i += 5 {
		for j := 0; j < 2; j++ {
			id := uint64(i + j)
			if ix.Delete(id) {
				deleted[id] = true
				delete(corpus, id)
			}
		}
		q := vecs[(i+3)%n]
		got, err := ix.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if deleted[r.ID] {
				t.Fatalf("deleted id %d returned from search", r.ID)
			}
		}
	}
	if m.Compactions.Load() == 0 {
		t.Fatalf("expected automatic compaction after %d deletes (tombstones now %d)", len(deleted), ix.Tombstones())
	}
	if got, want := ix.Len(), len(corpus); got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	rng := rand.New(rand.NewSource(99))
	queries := make([][]float32, 100)
	for i := range queries {
		for {
			id := uint64(rng.Intn(n))
			if v, ok := corpus[id]; ok {
				queries[i] = v
				break
			}
		}
	}
	if r := recallAt(t, ix, corpus, queries, k); r < 0.9 {
		t.Fatalf("post-delete recall@%d = %.3f, want >= 0.9", k, r)
	}
}

// TestUpsertReplacesVector covers the refresher's primary operation:
// re-inserting an existing ID moves it to the new embedding.
func TestUpsertReplacesVector(t *testing.T) {
	const dim = 8
	ix, err := New(Config{Dim: dim, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(fill float32) []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = fill
		}
		return v
	}
	for i := 0; i < 50; i++ {
		if err := ix.Insert(uint64(i), mk(float32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Insert(3, mk(100)); err != nil {
		t.Fatal(err)
	}
	if got, _ := ix.Vector(3); got[0] != 100 {
		t.Fatalf("Vector(3)[0] = %v after upsert, want 100", got[0])
	}
	if ix.Len() != 50 {
		t.Fatalf("Len() = %d after upsert, want 50", ix.Len())
	}
	res, err := ix.Search(mk(100), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 3 {
		t.Fatalf("search near new position: %+v, want id 3", res)
	}
	res, err = ix.Search(mk(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ID == 3 && r.Dist < 1e-6 {
			t.Fatalf("stale vector for id 3 still resident: %+v", res)
		}
	}
}

// TestEmptyAndErrors covers the degenerate paths.
func TestEmptyAndErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted Dim 0")
	}
	ix, err := New(Config{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := ix.Search([]float32{0, 0, 0, 0}, 5); err != nil || len(res) != 0 {
		t.Fatalf("empty-index search: %v, %v", res, err)
	}
	if _, err := ix.Search([]float32{1}, 5); err == nil {
		t.Fatal("dim-mismatched query accepted")
	}
	if err := ix.Insert(1, []float32{1}); err == nil {
		t.Fatal("dim-mismatched insert accepted")
	}
	if ix.Delete(42) {
		t.Fatal("Delete on missing id reported true")
	}
	if err := ix.Insert(1, []float32{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	res, err := ix.Search([]float32{1, 0, 0, 0}, 3)
	if err != nil || len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("single-element search: %v, %v", res, err)
	}
	if math.IsNaN(float64(res[0].Dist)) {
		t.Fatal("NaN distance")
	}
}

// TestSearchHugeK: a k past the index size, up to math.MaxInt and with
// tombstones widening the beam, returns every live vector, closest first,
// instead of sizing its results by k.
func TestSearchHugeK(t *testing.T) {
	const dim = 8
	vecs := clusteredVecs(10, dim, 2, 31)
	ix, err := New(Config{Dim: dim, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		if err := ix.Insert(uint64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	ix.Delete(3)
	ix.Delete(7)
	for _, k := range []int{1 << 40, math.MaxInt} {
		res, err := ix.Search(vecs[0], k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != ix.Len() {
			t.Fatalf("k=%d: %d results, want all %d live vectors", k, len(res), ix.Len())
		}
		for i, r := range res {
			if r.ID == 3 || r.ID == 7 || (i > 0 && r.Dist < res[i-1].Dist) {
				t.Fatalf("k=%d: result %d is %+v after %+v", k, i, r, res[max(i-1, 0)])
			}
		}
	}
}

// TestRecallUnderChurn runs several rounds of deleting a third of the
// vectors and re-inserting them elsewhere, each round closed by a
// compaction. Recall@10 against the brute-force oracle must hold at 0.9
// after the re-inserts, over the tombstones, and again after the
// compaction, in every round.
func TestRecallUnderChurn(t *testing.T) {
	const (
		n      = 1000
		dim    = 16
		k      = 10
		rounds = 4
	)
	// Few links and a narrow beam keep recall off its ceiling, so a graph
	// the churn degrades shows; the high tombstone share leaves each round's
	// compaction to the test.
	m := &Metrics{}
	ix, err := New(Config{Dim: dim, Seed: 41, M: 6, EfSearch: 12, EfConstruction: 40, MaxTombstoneShare: 0.9, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	corpus := make(map[uint64][]float32, n)
	for i, v := range clusteredVecs(n, dim, 8, 41) {
		if err := ix.Insert(uint64(i), v); err != nil {
			t.Fatal(err)
		}
		corpus[uint64(i)] = v
	}
	rng := rand.New(rand.NewSource(42))
	queries := func() [][]float32 {
		qs := make([][]float32, 100)
		for i := range qs {
			base := corpus[uint64(rng.Intn(n))]
			qs[i] = make([]float32, dim)
			for j := range qs[i] {
				qs[i][j] = base[j] + float32(rng.NormFloat64()*0.25)
			}
		}
		return qs
	}
	for round := 0; round < rounds; round++ {
		moved := clusteredVecs(n, dim, 8, int64(100+round))
		for _, i := range rng.Perm(n)[:n/3] {
			id := uint64(i)
			if !ix.Delete(id) {
				t.Fatalf("round %d: id %d was not live", round, id)
			}
			if err := ix.Insert(id, moved[i]); err != nil {
				t.Fatal(err)
			}
			corpus[id] = moved[i]
		}
		if ix.Tombstones() == 0 {
			t.Fatalf("round %d: no tombstones before the compaction", round)
		}
		if r := recallAt(t, ix, corpus, queries(), k); r < 0.9 {
			t.Fatalf("round %d: recall@%d over tombstones = %.3f, want >= 0.9", round, k, r)
		}
		ix.Compact()
		if ix.Tombstones() != 0 || ix.Len() != n {
			t.Fatalf("round %d: after compaction %d tombstones, %d live, want 0 and %d", round, ix.Tombstones(), ix.Len(), n)
		}
		if r := recallAt(t, ix, corpus, queries(), k); r < 0.9 {
			t.Fatalf("round %d: recall@%d after compaction = %.3f, want >= 0.9", round, k, r)
		}
	}
	if got := m.Compactions.Load(); got != rounds {
		t.Fatalf("%d compactions, want one per round (%d)", got, rounds)
	}
}

// scanFarthest and scanSearchLayer are the reference beam search: the same
// algorithm as searchLayer over a plain-slice result set whose farthest entry
// is found by a linear scan. The heap search must return the same set.
func scanFarthest(set []cand) int {
	fi := 0
	for i := 1; i < len(set); i++ {
		if set[i].dist > set[fi].dist {
			fi = i
		}
	}
	return fi
}

func scanSearchLayer(ix *Index, q []float32, ep uint32, ef, level int, visited []uint32, epoch uint32) []cand {
	var frontier candHeap
	d0 := sqDist(q, ix.vec(ep))
	frontier.push(cand{ep, d0})
	visited[ep] = epoch
	best := []cand{{ep, d0}}
	for len(frontier) > 0 {
		c := frontier.pop()
		worst := best[scanFarthest(best)].dist
		if c.dist > worst && len(best) >= ef {
			break
		}
		for _, nb := range ix.nodes[c.ref].links[level] {
			if visited[nb] == epoch {
				continue
			}
			visited[nb] = epoch
			d := sqDist(q, ix.vec(nb))
			if len(best) < ef {
				best = append(best, cand{nb, d})
				frontier.push(cand{nb, d})
			} else if fi := scanFarthest(best); d < best[fi].dist {
				best[fi] = cand{nb, d}
				frontier.push(cand{nb, d})
			}
		}
	}
	return best
}

// buildIndex inserts vecs under ids 0..len-1 into a fresh index seeded
// with 1.
func buildIndex(tb testing.TB, vecs [][]float32) *Index {
	tb.Helper()
	ix, err := New(Config{Dim: len(vecs[0]), Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for i, v := range vecs {
		if err := ix.Insert(uint64(i), v); err != nil {
			tb.Fatal(err)
		}
	}
	return ix
}

// TestGoldenGraphAndResults pins the graph and the search results on a
// tie-free input: the FNV-64a hash of every node's links after inserting
// clusteredVecs(2000, 32, 20, 1), and of the ids and distances of 300
// Search(…, 11) calls. The links hash was recorded from the linear-scan
// result set, so a faster search that changes a single link fails here; the
// results hash holds the distance bits of sqDist's eight-lane summation
// order.
func TestGoldenGraphAndResults(t *testing.T) { checkGoldenGraphAndResults(t) }

func checkGoldenGraphAndResults(t *testing.T) {
	t.Helper()
	const (
		wantLinks   = 0x4a70cfd1af4e4e52
		wantResults = 0x986886fcae81a09b
	)
	vecs := clusteredVecs(2000, 32, 20, 1)
	ix := buildIndex(t, vecs)

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, nd := range ix.nodes {
		put(nd.id)
		put(uint64(len(nd.links)))
		for _, level := range nd.links {
			put(uint64(len(level)))
			for _, nb := range level {
				put(uint64(nb))
			}
		}
	}
	links := h.Sum64()

	h.Reset()
	for _, q := range vecs[:300] {
		res, err := ix.Search(q, 11)
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(len(res)))
		for _, r := range res {
			put(r.ID)
			put(uint64(math.Float32bits(r.Dist)))
		}
	}
	results := h.Sum64()

	if links != wantLinks || results != wantResults {
		t.Fatalf("links hash %#x, results hash %#x; want %#x, %#x", links, results, uint64(wantLinks), uint64(wantResults))
	}
}

// sameCands fails unless got and want hold the same (ref, dist) pairs in any
// order.
func sameCands(t *testing.T, what string, got, want []cand) {
	t.Helper()
	order := func(a, b cand) int {
		if c := byDist(a, b); c != 0 {
			return c
		}
		return int(a.ref) - int(b.ref)
	}
	g, w := slices.Clone(got), slices.Clone(want)
	slices.SortFunc(g, order)
	slices.SortFunc(w, order)
	if !slices.Equal(g, w) {
		t.Fatalf("%s: heap search returned %d results %v, scan %d %v", what, len(g), g, len(w), w)
	}
}

// TestHeapSearchMatchesScan is the oracle for the max-heap result set: on
// every level and ef in {1, 16, 64, 200}, searchLayer returns exactly the
// (ref, dist) set of the linear-scan search it replaced.
func TestHeapSearchMatchesScan(t *testing.T) {
	const dim = 32
	vecs := clusteredVecs(5000, dim, 20, 1)
	ix := buildIndex(t, vecs)
	rng := rand.New(rand.NewSource(2))
	vs := new(visitSet)
	visited := make([]uint32, len(ix.nodes))
	for qi := 0; qi < 200; qi++ {
		base := vecs[rng.Intn(len(vecs))]
		q := make([]float32, dim)
		for j := range q {
			q[j] = base[j] + float32(rng.NormFloat64()*0.25)
		}
		ep := uint32(ix.entry)
		for level := ix.maxLevel; level >= 0; level-- {
			for _, ef := range []int{1, 16, 64, 200} {
				clear(visited)
				want := scanSearchLayer(ix, q, ep, ef, level, visited, 1)
				got := ix.searchLayer(q, ep, ef, level, vs)
				sameCands(t, fmt.Sprintf("query %d level %d ef %d", qi, level, ef), got, want)
			}
			if level > 0 {
				ep = ix.greedyDescend(q, ep, level)
			}
		}
	}
}

// TestVisitSetEpochWrap runs three searches across the epoch wrap of a
// pooled visit set whose marks hold stale small epochs. Without clearing the
// marks at the wrap, the searches at epochs 1 and 2 (or 0) would take
// unvisited nodes for visited and silently skip them.
func TestVisitSetEpochWrap(t *testing.T) {
	vecs := clusteredVecs(600, 16, 8, 9)
	ix := buildIndex(t, vecs)
	vs := ix.visits.Get().(*visitSet)
	defer ix.visits.Put(vs)
	vs.next(len(ix.nodes))
	for i := range vs.marks {
		vs.marks[i] = uint32(i % 3)
	}
	vs.epoch = math.MaxUint32 - 1
	ep := uint32(ix.entry)
	for i, q := range vecs[:3] {
		want := scanSearchLayer(ix, q, ep, 64, 0, make([]uint32, len(ix.nodes)), 1)
		got := ix.searchLayer(q, ep, 64, 0, vs)
		sameCands(t, fmt.Sprintf("search %d at epoch %d", i, vs.epoch), got, want)
	}
	if vs.epoch != 2 {
		t.Fatalf("epoch after three searches from MaxUint32-1 = %d, want 2 (wrapped past 0)", vs.epoch)
	}
}

// TestSearchAllocs pins Search's allocations: with the visit set pooled, only
// the returned []Result allocates. AllocsPerRun averages over 200 calls, so
// the odd pool miss after a GC does not lift the count; any new per-call
// allocation does.
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	vecs := clusteredVecs(1000, 32, 20, 1)
	ix := buildIndex(t, vecs)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ix.Search(vecs[i%len(vecs)], 11); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 1 {
		t.Fatalf("Search allocates %.0f times per call, want 1", allocs)
	}
}

// TestInsertAllocs pins Insert's allocations on a warmed index, averaged
// over 1000 fresh IDs: the node's level list, a neighbour list per level,
// and the neighbours' grown back-links and re-pruned lists, plus the
// amortised growth of the node list, the arena and the ID map. The vector
// goes into the arena, so it costs no allocation of its own. The mean,
// about 18.5, sits mid-way between counts, so one allocation more or less
// per insert shows and the odd pool miss does not.
func TestInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const warm, runs = 1000, 1000
	vecs := clusteredVecs(warm+runs+1, 32, 20, 1)
	ix := buildIndex(t, vecs[:warm])
	i := warm
	allocs := testing.AllocsPerRun(runs, func() {
		if err := ix.Insert(uint64(i), vecs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 18 {
		t.Fatalf("Insert allocates %.0f times per call, want 18", allocs)
	}
}
