package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := NewTree(Options{})
	if tr.Len() != 0 || tr.Height() != 1 || tr.TotalWeight() != 0 {
		t.Fatalf("empty tree: len=%d height=%d total=%v", tr.Len(), tr.Height(), tr.TotalWeight())
	}
	if _, ok := tr.SampleOne(rand.New(rand.NewSource(1))); ok {
		t.Fatal("SampleOne on empty tree returned a value")
	}
	if _, ok := tr.Weight(7); ok {
		t.Fatal("Weight on empty tree found a neighbor")
	}
	if tr.Delete(7) {
		t.Fatal("Delete on empty tree returned true")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperExample1(t *testing.T) {
	// Figure 3: v1 has neighbors {2:0.1, 3:0.4, 5:0.2}; v3 has {4:0.6, 7:0.7}.
	t3 := NewTree(Options{Capacity: 4})
	t3.Insert(4, 0.6)
	t3.Insert(7, 0.7)
	if t3.Len() != 2 || t3.Height() != 1 {
		t.Fatalf("T3: len=%d height=%d", t3.Len(), t3.Height())
	}
	if w, ok := t3.Weight(4); !ok || math.Abs(w-0.6) > 1e-12 {
		t.Fatalf("T3 weight(4) = %v,%v", w, ok)
	}
	if math.Abs(t3.TotalWeight()-1.3) > 1e-12 {
		t.Fatalf("T3 total = %v, want 1.3", t3.TotalWeight())
	}
}

func TestPaperExample2SplitOnInsert(t *testing.T) {
	// Figure 4: capacity 4, neighbors 1..4 then inserting 6 splits the leaf.
	tr := NewTree(Options{Capacity: 4, Alpha: 0})
	weights := map[uint64]float64{1: 0.3, 2: 0.4, 3: 0.5, 4: 0.3}
	for id, w := range weights {
		tr.Insert(id, w)
	}
	if tr.Height() != 1 {
		t.Fatalf("height = %d before overflow, want 1", tr.Height())
	}
	tr.Insert(6, 0.3)
	if tr.Height() != 2 {
		t.Fatalf("height = %d after overflow, want 2", tr.Height())
	}
	weights[6] = 0.3
	if tr.Len() != 5 {
		t.Fatalf("len = %d, want 5", tr.Len())
	}
	for id, w := range weights {
		if got, ok := tr.Weight(id); !ok || math.Abs(got-w) > 1e-12 {
			t.Fatalf("weight(%d) = %v,%v want %v", id, got, ok, w)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDuplicateUpdatesWeight(t *testing.T) {
	tr := NewTree(Options{})
	if !tr.Insert(5, 1.0) {
		t.Fatal("first insert reported update")
	}
	if tr.Insert(5, 2.5) {
		t.Fatal("second insert reported new")
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d, want 1", tr.Len())
	}
	if w, _ := tr.Weight(5); math.Abs(w-2.5) > 1e-12 {
		t.Fatalf("weight = %v, want 2.5", w)
	}
}

func TestUpdateWeight(t *testing.T) {
	tr := NewTree(Options{})
	tr.Insert(1, 1)
	if !tr.UpdateWeight(1, 9) {
		t.Fatal("UpdateWeight of present id returned false")
	}
	if tr.UpdateWeight(2, 1) {
		t.Fatal("UpdateWeight of absent id returned true")
	}
	if w, _ := tr.Weight(1); math.Abs(w-9) > 1e-12 {
		t.Fatalf("weight = %v, want 9", w)
	}
}

func buildSequential(t *testing.T, opt Options, n int) *Tree {
	t.Helper()
	tr := NewTree(opt)
	for i := 0; i < n; i++ {
		tr.Insert(uint64(i), 1.0+float64(i%7))
	}
	return tr
}

func TestManyInsertsSequential(t *testing.T) {
	for _, cap := range []int{4, 8, 64, 256} {
		for _, compress := range []bool{false, true} {
			tr := buildSequential(t, Options{Capacity: cap, Compress: compress}, 5000)
			if tr.Len() != 5000 {
				t.Fatalf("cap=%d len=%d", cap, tr.Len())
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("cap=%d compress=%v: %v", cap, compress, err)
			}
			for i := 0; i < 5000; i += 17 {
				if w, ok := tr.Weight(uint64(i)); !ok || math.Abs(w-(1.0+float64(i%7))) > 1e-9 {
					t.Fatalf("cap=%d weight(%d) = %v,%v", cap, i, w, ok)
				}
			}
		}
	}
}

func TestManyInsertsRandomOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ids := rng.Perm(8000)
	for _, alpha := range []int{0, 2, 16} {
		tr := NewTree(Options{Capacity: 32, Alpha: alpha})
		ref := map[uint64]float64{}
		for _, i := range ids {
			w := rng.Float64() + 0.1
			tr.Insert(uint64(i), w)
			ref[uint64(i)] = w
		}
		if tr.Len() != len(ref) {
			t.Fatalf("alpha=%d len=%d want %d", alpha, tr.Len(), len(ref))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("alpha=%d: %v", alpha, err)
		}
		for id, w := range ref {
			if got, ok := tr.Weight(id); !ok || math.Abs(got-w) > 1e-9 {
				t.Fatalf("alpha=%d weight(%d) = %v,%v want %v", alpha, id, got, ok, w)
			}
		}
	}
}

func TestDeleteBasic(t *testing.T) {
	tr := NewTree(Options{Capacity: 4})
	for i := uint64(0); i < 20; i++ {
		tr.Insert(i, 1)
	}
	for i := uint64(0); i < 20; i += 2 {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) returned false", i)
		}
	}
	if tr.Len() != 10 {
		t.Fatalf("len = %d, want 10", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		_, ok := tr.Weight(i)
		if (i%2 == 0) == ok {
			t.Fatalf("Weight(%d) presence = %v", i, ok)
		}
	}
	if tr.Delete(0) {
		t.Fatal("double delete returned true")
	}
}

func TestDeleteAllCollapsesTree(t *testing.T) {
	tr := NewTree(Options{Capacity: 4})
	const n = 300
	for i := uint64(0); i < n; i++ {
		tr.Insert(i, 1)
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d, expected >= 3 with capacity 4", tr.Height())
	}
	for i := uint64(0); i < n; i++ {
		if !tr.Delete(i) {
			t.Fatalf("Delete(%d) failed", i)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after deleting %d: %v", i, err)
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("after full deletion: len=%d height=%d", tr.Len(), tr.Height())
	}
	if math.Abs(tr.TotalWeight()) > 1e-6 {
		t.Fatalf("total weight = %v, want 0", tr.TotalWeight())
	}
}

func TestRandomizedChurnAgainstMap(t *testing.T) {
	for _, opt := range []Options{
		{Capacity: 4},
		{Capacity: 8, Alpha: 1},
		{Capacity: 16, Alpha: 4, Compress: true},
		{Capacity: 64, Compress: true},
	} {
		rng := rand.New(rand.NewSource(123))
		tr := NewTree(opt)
		ref := map[uint64]float64{}
		keys := func() []uint64 {
			out := make([]uint64, 0, len(ref))
			for k := range ref {
				out = append(out, k)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		for step := 0; step < 12000; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(ref) == 0: // insert
				id := uint64(rng.Intn(3000))
				w := rng.Float64() + 0.01
				wantNew := true
				if _, ok := ref[id]; ok {
					wantNew = false
				}
				if got := tr.Insert(id, w); got != wantNew {
					t.Fatalf("step %d: Insert(%d) new=%v want %v", step, id, got, wantNew)
				}
				ref[id] = w
			case op < 8: // delete
				ks := keys()
				id := ks[rng.Intn(len(ks))]
				if !tr.Delete(id) {
					t.Fatalf("step %d: Delete(%d) failed", step, id)
				}
				delete(ref, id)
			default: // update
				ks := keys()
				id := ks[rng.Intn(len(ks))]
				w := rng.Float64() + 0.01
				if !tr.UpdateWeight(id, w) {
					t.Fatalf("step %d: UpdateWeight(%d) failed", step, id)
				}
				ref[id] = w
			}
			if tr.Len() != len(ref) {
				t.Fatalf("step %d: len %d vs %d", step, tr.Len(), len(ref))
			}
			if step%509 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("step %d (cap=%d alpha=%d cp=%v): %v",
						step, opt.Capacity, opt.Alpha, opt.Compress, err)
				}
				for id, w := range ref {
					if got, ok := tr.Weight(id); !ok || math.Abs(got-w) > 1e-9 {
						t.Fatalf("step %d: weight(%d) = %v,%v want %v", step, id, got, ok, w)
					}
				}
			}
		}
	}
}

func TestNeighborsAndForEach(t *testing.T) {
	tr := NewTree(Options{Capacity: 8})
	want := map[uint64]float64{}
	for i := uint64(0); i < 100; i++ {
		w := float64(i) + 0.5
		tr.Insert(i*3, w)
		want[i*3] = w
	}
	ids, weights := tr.Neighbors()
	if len(ids) != len(want) {
		t.Fatalf("Neighbors returned %d ids, want %d", len(ids), len(want))
	}
	for i, id := range ids {
		if math.Abs(weights[i]-want[id]) > 1e-12 {
			t.Fatalf("Neighbors[%d]: id=%d w=%v want %v", i, id, weights[i], want[id])
		}
	}
	// ForEach early stop.
	visits := 0
	tr.ForEach(func(uint64, float64) bool { visits++; return false })
	if visits != 1 {
		t.Fatalf("ForEach visited %d after stop", visits)
	}
}

func TestSampleDistributionSingleLeaf(t *testing.T) {
	tr := NewTree(Options{Capacity: 16})
	weights := map[uint64]float64{1: 1, 2: 2, 3: 3, 4: 4}
	total := 0.0
	for id, w := range weights {
		tr.Insert(id, w)
		total += w
	}
	rng := rand.New(rand.NewSource(55))
	const trials = 100000
	counts := map[uint64]int{}
	for i := 0; i < trials; i++ {
		id, ok := tr.SampleOne(rng)
		if !ok {
			t.Fatal("SampleOne failed")
		}
		counts[id]++
	}
	chi2 := 0.0
	for id, w := range weights {
		expected := float64(trials) * w / total
		d := float64(counts[id]) - expected
		chi2 += d * d / expected
	}
	if chi2 > 16.27 { // 3 dof, p=0.001
		t.Fatalf("chi-square = %v, counts=%v", chi2, counts)
	}
}

func TestSampleDistributionMultiLevel(t *testing.T) {
	// Force a tall tree: capacity 4 and 64 neighbors with skewed weights.
	tr := NewTree(Options{Capacity: 4})
	rng := rand.New(rand.NewSource(77))
	weights := map[uint64]float64{}
	total := 0.0
	for i := uint64(0); i < 64; i++ {
		w := math.Pow(1.08, float64(i)) // geometric skew
		tr.Insert(i, w)
		weights[i] = w
		total += w
	}
	if tr.Height() < 3 {
		t.Fatalf("height = %d, want >= 3", tr.Height())
	}
	const trials = 400000
	counts := map[uint64]int{}
	for i := 0; i < trials; i++ {
		id, _ := tr.SampleOne(rng)
		counts[id]++
	}
	chi2 := 0.0
	for id, w := range weights {
		expected := float64(trials) * w / total
		d := float64(counts[id]) - expected
		chi2 += d * d / expected
	}
	// 63 dof, p=0.001 critical value ~103.4.
	if chi2 > 103.4 {
		t.Fatalf("chi-square = %v", chi2)
	}
}

func TestSampleN(t *testing.T) {
	tr := NewTree(Options{})
	for i := uint64(0); i < 10; i++ {
		tr.Insert(i, 1)
	}
	rng := rand.New(rand.NewSource(3))
	got := AppendSamples(tr, rng, 25, []uint64(nil))
	if len(got) != 25 {
		t.Fatalf("AppendSamples returned %d, want 25", len(got))
	}
	for _, id := range got {
		if id >= 10 {
			t.Fatalf("sampled unknown id %d", id)
		}
	}
	// Reuse destination buffer.
	buf := make([]uint64, 0, 8)
	got = AppendSamples(tr, rng, 5, buf)
	if len(got) != 5 {
		t.Fatalf("AppendSamples with dst returned %d", len(got))
	}
}

func TestAlphaSplitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(300)
		ids := make([]uint64, n)
		weights := make([]float64, n)
		seen := map[uint64]bool{}
		for i := range ids {
			for {
				v := rng.Uint64() % 100000
				if !seen[v] {
					seen[v] = true
					ids[i] = v
					break
				}
			}
			weights[i] = float64(ids[i]) * 0.25 // weight tied to id to verify tandem moves
		}
		k := alphaSplit(ids, weights, 0)
		if k != n/2 {
			t.Fatalf("alpha=0: pivot at %d, want exact median %d (n=%d)", k, n/2, n)
		}
		pivot := ids[k]
		for j := 0; j < k; j++ {
			if ids[j] >= pivot {
				t.Fatalf("left element %d >= pivot %d", ids[j], pivot)
			}
		}
		for j := k + 1; j < n; j++ {
			if ids[j] <= pivot {
				t.Fatalf("right element %d <= pivot %d", ids[j], pivot)
			}
		}
		for j := range ids {
			if math.Abs(weights[j]-float64(ids[j])*0.25) > 1e-12 {
				t.Fatalf("weight desynced from id at %d", j)
			}
		}
	}
}

func TestAlphaSplitSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, alpha := range []int{1, 4, 16, 1000} {
		for trial := 0; trial < 100; trial++ {
			n := 4 + rng.Intn(500)
			ids := make([]uint64, n)
			weights := make([]float64, n)
			perm := rng.Perm(n * 3)
			for i := range ids {
				ids[i] = uint64(perm[i])
				weights[i] = 1
			}
			k := alphaSplit(ids, weights, alpha)
			if k < 1 || k > n-1 {
				t.Fatalf("alpha=%d n=%d: pivot %d leaves an empty side", alpha, n, k)
			}
			target := n / 2
			effAlpha := alpha
			if m := target - 1; effAlpha > m {
				effAlpha = m
			}
			if m := n - 1 - target; effAlpha > m {
				effAlpha = m
			}
			if k < target-effAlpha || k > target+effAlpha {
				t.Fatalf("alpha=%d n=%d: pivot %d outside [%d,%d]",
					alpha, n, k, target-effAlpha, target+effAlpha)
			}
			pivot := ids[k]
			for j := 0; j < k; j++ {
				if ids[j] >= pivot {
					t.Fatalf("left violation")
				}
			}
			for j := k + 1; j < n; j++ {
				if ids[j] <= pivot {
					t.Fatalf("right violation")
				}
			}
		}
	}
}

func TestAlphaSplitTwoElements(t *testing.T) {
	ids := []uint64{9, 3}
	w := []float64{1, 2}
	k := alphaSplit(ids, w, 0)
	if k != 1 || ids[0] != 3 || ids[1] != 9 {
		t.Fatalf("k=%d ids=%v", k, ids)
	}
}

func TestCountersTableV(t *testing.T) {
	// Low-degree trees (single leaf) must produce zero non-leaf updates;
	// higher capacity shifts the mix toward leaves.
	shares := map[int]float64{}
	for _, cap := range []int{8, 64} {
		ctr := &Counters{}
		rng := rand.New(rand.NewSource(6))
		tr := NewTree(Options{Capacity: cap, Counters: ctr})
		for i := 0; i < 4000; i++ {
			tr.Insert(uint64(rng.Intn(100000)), 1)
		}
		shares[cap] = ctr.LeafShare()
	}
	if shares[64] <= shares[8] {
		t.Fatalf("leaf share should grow with capacity: %v", shares)
	}
	// A tree that never outgrows one leaf gives share 1.0.
	ctr := &Counters{}
	tr := NewTree(Options{Capacity: 64, Counters: ctr})
	for i := uint64(0); i < 50; i++ {
		tr.Insert(i, 1)
	}
	if s := ctr.LeafShare(); s != 1.0 {
		t.Fatalf("single-leaf share = %v, want 1.0", s)
	}
}

func TestCountersNilSafe(t *testing.T) {
	var c *Counters
	c.leaf(1)
	c.nonLeaf(1)
	c.splits(1)
	c.merges(1) // must not panic
}

func TestMemoryBytesCompressionShrinks(t *testing.T) {
	mk := func(compress bool) int64 {
		tr := NewTree(Options{Capacity: 256, Compress: compress})
		for i := uint64(0); i < 10000; i++ {
			tr.Insert(0x0100000000000000|i, 1)
		}
		return tr.MemoryBytes()
	}
	withCP, withoutCP := mk(true), mk(false)
	if withCP >= withoutCP {
		t.Fatalf("compressed %d >= uncompressed %d", withCP, withoutCP)
	}
	saving := 1 - float64(withCP)/float64(withoutCP)
	if saving < 0.15 {
		t.Fatalf("compression saving %.1f%%, want >= 15%%", saving*100)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	tr := buildSequential(t, Options{Capacity: 16}, 20000)
	// ceil(log_8(20000)) + slack: height must stay small.
	if tr.Height() > 6 {
		t.Fatalf("height = %d for 20000 neighbors at capacity 16", tr.Height())
	}
}

func TestQuickInsertLookup(t *testing.T) {
	prop := func(ids []uint64) bool {
		tr := NewTree(Options{Capacity: 8})
		ref := map[uint64]float64{}
		for i, id := range ids {
			w := float64(i%13) + 0.5
			tr.Insert(id, w)
			ref[id] = w
		}
		if tr.Len() != len(ref) {
			return false
		}
		for id, w := range ref {
			got, ok := tr.Weight(id)
			if !ok || math.Abs(got-w) > 1e-9 {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInsertDeleteInverse(t *testing.T) {
	prop := func(ids []uint64) bool {
		tr := NewTree(Options{Capacity: 8, Compress: true})
		uniq := map[uint64]bool{}
		for _, id := range ids {
			tr.Insert(id, 1)
			uniq[id] = true
		}
		for id := range uniq {
			if !tr.Delete(id) {
				return false
			}
		}
		return tr.Len() == 0 && tr.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertSequential(b *testing.B) {
	tr := NewTree(Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(uint64(i), 1)
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	tr := NewTree(Options{})
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(rng.Uint64()%1000000, 1)
	}
}

func BenchmarkSampleOne(b *testing.B) {
	tr := NewTree(Options{})
	for i := uint64(0); i < 100000; i++ {
		tr.Insert(i, 1+float64(i%9))
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SampleOne(rng)
	}
}

func BenchmarkDelete(b *testing.B) {
	tr := NewTree(Options{})
	for i := 0; i < b.N; i++ {
		tr.Insert(uint64(i), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Delete(uint64(i))
	}
}

func TestUniformSamplingDistribution(t *testing.T) {
	tr := NewTree(Options{Capacity: 8})
	// Heavily skewed weights; uniform sampling must ignore them.
	for i := uint64(0); i < 40; i++ {
		tr.Insert(i, float64(i*i)+0.001)
	}
	rng := rand.New(rand.NewSource(21))
	const trials = 120000
	counts := map[uint64]int{}
	for i := 0; i < trials; i++ {
		v, ok := tr.SampleOneUniform(rng)
		if !ok {
			t.Fatal("SampleOneUniform failed")
		}
		counts[v]++
	}
	expected := float64(trials) / 40
	chi2 := 0.0
	for i := uint64(0); i < 40; i++ {
		d := float64(counts[i]) - expected
		chi2 += d * d / expected
	}
	// 39 dof, p=0.001 critical value ~72.06.
	if chi2 > 72.06 {
		t.Fatalf("chi-square = %v, counts = %v", chi2, counts)
	}
}

func TestUniformSamplingAfterChurn(t *testing.T) {
	tr := NewTree(Options{Capacity: 4})
	rng := rand.New(rand.NewSource(5))
	for i := uint64(0); i < 200; i++ {
		tr.Insert(i, 1)
	}
	for i := uint64(0); i < 200; i += 2 {
		tr.Delete(i)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5000; trial++ {
		v, ok := tr.SampleOneUniform(rng)
		if !ok || v%2 == 0 {
			t.Fatalf("sampled deleted or invalid neighbor %d (ok=%v)", v, ok)
		}
	}
	out := AppendUniform(tr, rng, 10, []uint64(nil))
	if len(out) != 10 {
		t.Fatalf("AppendUniform returned %d", len(out))
	}
}

func TestUniformSamplingEmpty(t *testing.T) {
	tr := NewTree(Options{})
	if _, ok := tr.SampleOneUniform(rand.New(rand.NewSource(1))); ok {
		t.Fatal("sampled from empty tree")
	}
}

func TestLeafITSAblationChurn(t *testing.T) {
	// The CSTable-leaf ablation must behave identically (just slower).
	rng := rand.New(rand.NewSource(66))
	fts := NewTree(Options{Capacity: 8, LeafTable: LeafFTS})
	its := NewTree(Options{Capacity: 8, LeafTable: LeafITS})
	ref := map[uint64]float64{}
	for step := 0; step < 6000; step++ {
		id := uint64(rng.Intn(500))
		switch rng.Intn(3) {
		case 0, 1:
			w := rng.Float64() + 0.01
			fts.Insert(id, w)
			its.Insert(id, w)
			ref[id] = w
		case 2:
			a := fts.Delete(id)
			b := its.Delete(id)
			if a != b {
				t.Fatalf("step %d: delete divergence %v vs %v", step, a, b)
			}
			delete(ref, id)
		}
	}
	if fts.Len() != its.Len() || fts.Len() != len(ref) {
		t.Fatalf("sizes: fts=%d its=%d ref=%d", fts.Len(), its.Len(), len(ref))
	}
	if err := its.CheckInvariants(); err != nil {
		t.Fatalf("ITS-leaf invariants: %v", err)
	}
	for id, w := range ref {
		a, _ := fts.Weight(id)
		b, ok := its.Weight(id)
		if !ok || math.Abs(a-b) > 1e-9 || math.Abs(a-w) > 1e-9 {
			t.Fatalf("weight divergence for %d: %v vs %v (want %v)", id, a, b, w)
		}
	}
	// Sampling distributions agree.
	rngA := rand.New(rand.NewSource(9))
	rngB := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		a, _ := fts.SampleOne(rngA)
		b, _ := its.SampleOne(rngB)
		if a != b {
			t.Fatalf("sample divergence at draw %d: %d vs %d", i, a, b)
		}
	}
}

func TestApplyBatchMatchesSingleOps(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, cap := range []int{4, 16, 256} {
		batched := NewTree(Options{Capacity: cap})
		single := NewTree(Options{Capacity: cap})
		var ops []Op
		for i := 0; i < 8000; i++ {
			id := uint64(rng.Intn(1000))
			switch rng.Intn(5) {
			case 0:
				ops = append(ops, Op{Kind: OpDelete, ID: id})
			case 1:
				ops = append(ops, Op{Kind: OpUpdate, ID: id, Weight: rng.Float64() + 0.1})
			default:
				ops = append(ops, Op{Kind: OpInsert, ID: id, Weight: rng.Float64() + 0.1})
			}
		}
		singleOps := make([]Op, len(ops))
		copy(singleOps, ops)
		// Single path must see the same per-ID order the batch uses: sort
		// stable by ID first.
		sort.SliceStable(singleOps, func(i, j int) bool { return singleOps[i].ID < singleOps[j].ID })
		var sAdded, sRemoved int
		for _, op := range singleOps {
			switch op.Kind {
			case OpInsert:
				if single.Insert(op.ID, op.Weight) {
					sAdded++
				}
			case OpDelete:
				if single.Delete(op.ID) {
					sRemoved++
				}
			case OpUpdate:
				single.UpdateWeight(op.ID, op.Weight)
			}
		}
		added, removed := batched.ApplyBatch(ops)
		if added != sAdded || removed != sRemoved {
			t.Fatalf("cap=%d: batch (%d,%d) vs single (%d,%d)", cap, added, removed, sAdded, sRemoved)
		}
		if batched.Len() != single.Len() {
			t.Fatalf("cap=%d: len %d vs %d", cap, batched.Len(), single.Len())
		}
		if err := batched.CheckInvariants(); err != nil {
			t.Fatalf("cap=%d: %v", cap, err)
		}
		single.ForEach(func(id uint64, w float64) bool {
			got, ok := batched.Weight(id)
			if !ok || math.Abs(got-w) > 1e-9 {
				t.Fatalf("cap=%d: weight(%d) = %v,%v want %v", cap, id, got, ok, w)
			}
			return true
		})
	}
}

func TestApplyBatchEmptyAndSingleton(t *testing.T) {
	tr := NewTree(Options{})
	if a, r := tr.ApplyBatch(nil); a != 0 || r != 0 {
		t.Fatalf("empty batch: %d,%d", a, r)
	}
	if a, r := tr.ApplyBatch([]Op{{Kind: OpInsert, ID: 5, Weight: 1}}); a != 1 || r != 0 {
		t.Fatalf("singleton: %d,%d", a, r)
	}
	if w, ok := tr.Weight(5); !ok || w != 1 {
		t.Fatalf("weight = %v,%v", w, ok)
	}
}

func TestQuickApplyBatchInvariants(t *testing.T) {
	prop := func(ids []uint64, kinds []uint8) bool {
		tr := NewTree(Options{Capacity: 8, Compress: true})
		ops := make([]Op, len(ids))
		for i, id := range ids {
			k := OpInsert
			if i < len(kinds) {
				k = OpKind(kinds[i] % 3)
			}
			ops[i] = Op{Kind: k, ID: id % 300, Weight: float64(i%7) + 0.5}
		}
		tr.ApplyBatch(ops)
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkApplyBatchSorted(b *testing.B) {
	tr := NewTree(Options{})
	rng := rand.New(rand.NewSource(1))
	ops := make([]Op, 4096)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, ID: rng.Uint64() % 1000000, Weight: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ApplyBatch(ops)
	}
}

func BenchmarkLeafTableAblationInsert(b *testing.B) {
	for _, kind := range []LeafTableKind{LeafFTS, LeafITS} {
		b.Run(kind.String(), func(b *testing.B) {
			tr := NewTree(Options{LeafTable: kind})
			rng := rand.New(rand.NewSource(1))
			// Pre-fill so in-place updates dominate.
			for i := uint64(0); i < 10000; i++ {
				tr.Insert(i, 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Insert(rng.Uint64()%10000, 2)
			}
		})
	}
}

func TestSortSplitAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	a := NewTree(Options{Capacity: 8, Split: SplitAlpha})
	b := NewTree(Options{Capacity: 8, Split: SplitSort})
	ref := map[uint64]float64{}
	for i := 0; i < 5000; i++ {
		id := uint64(rng.Intn(2000))
		w := rng.Float64() + 0.1
		a.Insert(id, w)
		b.Insert(id, w)
		ref[id] = w
		if rng.Intn(6) == 0 {
			del := uint64(rng.Intn(2000))
			da := a.Delete(del)
			db := b.Delete(del)
			if da != db {
				t.Fatalf("step %d: delete divergence", i)
			}
			delete(ref, del)
		}
	}
	for _, tr := range []*Tree{a, b} {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("split=%v: %v", tr.opt.Split, err)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("split=%v: len %d want %d", tr.opt.Split, tr.Len(), len(ref))
		}
	}
	for id, w := range ref {
		wa, _ := a.Weight(id)
		wb, ok := b.Weight(id)
		if !ok || math.Abs(wa-wb) > 1e-9 || math.Abs(wa-w) > 1e-9 {
			t.Fatalf("weight divergence for %d", id)
		}
	}
}

func BenchmarkSplitStrategy(b *testing.B) {
	for _, strat := range []SplitStrategy{SplitAlpha, SplitSort} {
		b.Run(strat.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := NewTree(Options{Capacity: 256, Split: strat})
				for j := 0; j < 20000; j++ {
					tr.Insert(rng.Uint64()%1000000, 1)
				}
			}
		})
	}
}
