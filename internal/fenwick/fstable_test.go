package fenwick

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

// naive is a reference implementation holding raw weights.
type naive struct{ w []float64 }

func (n *naive) total() float64 {
	s := 0.0
	for _, w := range n.w {
		s += w
	}
	return s
}

func (n *naive) prefix(i int) float64 {
	s := 0.0
	for j := 0; j <= i; j++ {
		s += n.w[j]
	}
	return s
}

func (n *naive) sample(r float64) int {
	s := 0.0
	for i, w := range n.w {
		s += w
		if s > r {
			return i
		}
	}
	return len(n.w) - 1
}

func (n *naive) delete(i int) {
	last := len(n.w) - 1
	n.w[i] = n.w[last]
	n.w = n.w[:last]
}

func TestEmptyTable(t *testing.T) {
	var f FSTable
	if f.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", f.Len())
	}
	if f.Total() != 0 {
		t.Fatalf("Total() = %v, want 0", f.Total())
	}
	if got := f.Sample(0.5); got != -1 {
		t.Fatalf("Sample on empty = %d, want -1", got)
	}
	if w := f.Weights(); len(w) != 0 {
		t.Fatalf("Weights() = %v, want empty", w)
	}
}

func TestPaperExample3(t *testing.T) {
	// Example 3 of the paper: A = {0.3, 0.4, 0.1}.
	f := New([]float64{0.3, 0.4, 0.1})
	// F[0] = 0.3, F[1] = 0.7, F[2] = 0.1 per Eq. (4).
	wantF := []float64{0.3, 0.7, 0.1}
	for i, want := range wantF {
		if got := f.f[i]; !almostEqual(got, want) {
			t.Errorf("F[%d] = %v, want %v", i, got, want)
		}
	}
	if got := f.Total(); !almostEqual(got, 0.8) {
		t.Errorf("Total() = %v, want 0.8", got)
	}
}

func TestTheorem4SubtreeSum(t *testing.T) {
	// F[2^k - 1] must equal the strict prefix sum of the first 2^k weights.
	rng := rand.New(rand.NewSource(42))
	weights := make([]float64, 300)
	for i := range weights {
		weights[i] = rng.Float64() * 10
	}
	f := New(weights)
	for k := 0; (1 << k) <= len(weights); k++ {
		idx := (1 << k) - 1
		want := 0.0
		for j := 0; j <= idx; j++ {
			want += weights[j]
		}
		if got := f.f[idx]; !almostEqual(got, want) {
			t.Errorf("F[2^%d-1] = %v, want prefix %v", k, got, want)
		}
	}
}

func TestWeightRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 7, 8, 9, 64, 100, 257} {
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64() * 5
		}
		f := New(weights)
		for i, want := range weights {
			if got := f.Weight(i); !almostEqual(got, want) {
				t.Fatalf("n=%d Weight(%d) = %v, want %v", n, i, got, want)
			}
		}
		got := f.Weights()
		for i, want := range weights {
			if !almostEqual(got[i], want) {
				t.Fatalf("n=%d Weights()[%d] = %v, want %v", n, i, got[i], want)
			}
		}
	}
}

func TestPrefixMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	weights := make([]float64, 123)
	for i := range weights {
		weights[i] = rng.Float64()
	}
	f := New(weights)
	ref := &naive{w: weights}
	for i := range weights {
		if got, want := f.Prefix(i), ref.prefix(i); !almostEqual(got, want) {
			t.Fatalf("Prefix(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestUpdate(t *testing.T) {
	f := New([]float64{1, 2, 3, 4, 5})
	f.Update(2, 10)
	if got := f.Weight(2); !almostEqual(got, 10) {
		t.Fatalf("Weight(2) = %v after Update, want 10", got)
	}
	if got := f.Total(); !almostEqual(got, 22) {
		t.Fatalf("Total() = %v after Update, want 22", got)
	}
	// Prefix sums must reflect the change everywhere.
	wantPrefix := []float64{1, 3, 13, 17, 22}
	for i, want := range wantPrefix {
		if got := f.Prefix(i); !almostEqual(got, want) {
			t.Fatalf("Prefix(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestDeleteSwapSemantics(t *testing.T) {
	f := New([]float64{1, 2, 3, 4, 5})
	f.Delete(1) // weight 2 replaced by last weight 5
	if f.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", f.Len())
	}
	want := []float64{1, 5, 3, 4}
	got := f.Weights()
	for i := range want {
		if !almostEqual(got[i], want[i]) {
			t.Fatalf("Weights() = %v, want %v", got, want)
		}
	}
	// Deleting the final element needs no swap.
	f.Delete(3)
	want = []float64{1, 5, 3}
	got = f.Weights()
	for i := range want {
		if !almostEqual(got[i], want[i]) {
			t.Fatalf("after tail delete Weights() = %v, want %v", got, want)
		}
	}
}

func TestDeleteToEmpty(t *testing.T) {
	f := New([]float64{3})
	f.Delete(0)
	if f.Len() != 0 || f.Total() != 0 {
		t.Fatalf("table not empty after deleting only element: len=%d total=%v", f.Len(), f.Total())
	}
	f.Append(7)
	if got := f.Weight(0); !almostEqual(got, 7) {
		t.Fatalf("Weight(0) = %v after re-append, want 7", got)
	}
}

func TestSampleBoundaries(t *testing.T) {
	f := New([]float64{1, 2, 3})
	cases := []struct {
		r    float64
		want int
	}{
		{0, 0},
		{0.999, 0},
		{1.0, 1},
		{2.999, 1},
		{3.0, 2},
		{5.999, 2},
		{6.0, 2},   // clamped
		{100.0, 2}, // clamped
	}
	for _, c := range cases {
		if got := f.Sample(c.r); got != c.want {
			t.Errorf("Sample(%v) = %d, want %d", c.r, got, c.want)
		}
	}
}

func TestSampleMatchesNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 5, 16, 17, 100, 255, 256, 257} {
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = rng.Float64() * 3
		}
		f := New(weights)
		ref := &naive{w: weights}
		total := f.Total()
		for trial := 0; trial < 200; trial++ {
			r := rng.Float64() * total
			if got, want := f.Sample(r), ref.sample(r); got != want {
				t.Fatalf("n=%d Sample(%v) = %d, want %d (weights=%v)", n, r, got, want, weights)
			}
		}
	}
}

// rangeNarrowSample is the FTS search as Algorithm 5 states it, a
// left/right range narrowed over the virtual complete tree of size 2^m >= n.
// SampleMany must pick exactly the index it picks for every r.
func rangeNarrowSample(f []float64, r float64) int {
	n := len(f)
	if n == 0 {
		return -1
	}
	m := 1
	for m < n {
		m <<= 1
	}
	left, right := 0, m-1
	for left < right {
		mid := (left + right) / 2
		if mid >= n {
			right = mid
			continue
		}
		if f[mid] > r {
			right = mid
		} else {
			r -= f[mid]
			left = mid + 1
		}
	}
	if left >= n {
		left = n - 1
	}
	return left
}

// checkAgainstRangeNarrow requires Sample, SampleMany and, on a non-empty
// table, SampleEach to return the reference index for every r in rs.
// SampleEach runs each r twice, once on f and once on a two-entry table
// beside it, so f's search also runs next to a table with a different number
// of levels.
func checkAgainstRangeNarrow(t *testing.T, f *FSTable, rs []float64) {
	t.Helper()
	out := make([]int, len(rs))
	f.SampleMany(append([]float64(nil), rs...), out)
	pair := New([]float64{1, 1})
	var ts []*FSTable
	var eachRs []float64
	if f.Len() > 0 {
		for _, r := range rs {
			ts = append(ts, f, pair)
			eachRs = append(eachRs, r, r)
		}
	}
	each := make([]int, len(ts))
	SampleEach(ts, append([]float64(nil), eachRs...), each)
	for i, r := range rs {
		want := rangeNarrowSample(f.f, r)
		if got := f.Sample(r); got != want {
			t.Fatalf("n=%d Sample(%v) = %d, range-narrow search gives %d", f.Len(), r, got, want)
		}
		if out[i] != want {
			t.Fatalf("n=%d SampleMany draw %d (r=%v) = %d, range-narrow search gives %d", f.Len(), i, r, out[i], want)
		}
	}
	for i, r := range eachRs {
		if want := rangeNarrowSample(ts[i].f, r); each[i] != want {
			t.Fatalf("n=%d SampleEach draw %d (r=%v) = %d, range-narrow search gives %d", ts[i].Len(), i, r, each[i], want)
		}
	}
}

func TestSampleManyMatchesRangeNarrow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= 300; n++ {
		weights := make([]float64, n)
		for i := range weights {
			switch rng.Intn(5) {
			case 0:
				weights[i] = 0
			case 1:
				weights[i] = float64(rng.Intn(4)) // exact small integers: ties at range edges
			default:
				weights[i] = rng.Float64() * 3
			}
		}
		f := New(weights)
		total := f.Total()
		rs := []float64{0, math.Nextafter(total, 0), total, total + 1, 2 * total}
		for j := 0; j < 64; j++ {
			rs = append(rs, rng.Float64()*total)
		}
		for j := 0; j < n; j++ {
			rs = append(rs, f.Prefix(j)) // r exactly on a prefix boundary
		}
		checkAgainstRangeNarrow(t, f, rs)
	}
	// All-zero weights: every r clamps the same way in both searches.
	checkAgainstRangeNarrow(t, New(make([]float64, 37)), []float64{0, 1})
}

// TestSampleEachMixedTables batches draws over tables of every size up to
// 300, a third of their weights zero, so residuals meet trailing zero
// weights and rounding at the clamp edge.
func TestSampleEachMixedTables(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var tables []*FSTable
	for n := 1; n <= 300; n++ {
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(rng.Intn(3)) * rng.Float64()
		}
		tables = append(tables, New(weights))
	}
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(40)
		ts := make([]*FSTable, k)
		rs := make([]float64, k)
		for i := range ts {
			ts[i] = tables[rng.Intn(len(tables))]
			total := ts[i].Total()
			switch rng.Intn(4) {
			case 0:
				rs[i] = total // the clamp case
			case 1:
				rs[i] = ts[i].Prefix(rng.Intn(ts[i].Len()))
			default:
				rs[i] = rng.Float64() * total
			}
		}
		out := make([]int, k)
		SampleEach(ts, append([]float64(nil), rs...), out)
		for i, r := range rs {
			want := rangeNarrowSample(ts[i].f, r)
			if out[i] != want {
				t.Fatalf("trial %d: draw %d on n=%d (r=%v) = %d, range-narrow search gives %d", trial, i, ts[i].Len(), r, out[i], want)
			}
			if got := ts[i].Sample(r); got != want {
				t.Fatalf("trial %d: n=%d Sample(%v) = %d, range-narrow search gives %d", trial, ts[i].Len(), r, got, want)
			}
		}
	}
}

func TestSampleDistribution(t *testing.T) {
	// Chi-square goodness of fit: sampled frequencies should follow the
	// weight distribution.
	weights := []float64{1, 2, 3, 4, 10, 0.5, 0.5, 4}
	f := New(weights)
	rng := rand.New(rand.NewSource(1234))
	const trials = 200000
	counts := make([]int, len(weights))
	total := f.Total()
	for i := 0; i < trials; i++ {
		counts[f.Sample(rng.Float64()*total)]++
	}
	chi2 := 0.0
	for i, w := range weights {
		expected := float64(trials) * w / total
		d := float64(counts[i]) - expected
		chi2 += d * d / expected
	}
	// 7 degrees of freedom; p=0.001 critical value is 24.32.
	if chi2 > 24.32 {
		t.Fatalf("chi-square = %v exceeds 24.32; counts=%v", chi2, counts)
	}
}

func TestZeroWeightNeverSampled(t *testing.T) {
	weights := []float64{0, 5, 0, 5, 0}
	f := New(weights)
	rng := rand.New(rand.NewSource(5))
	total := f.Total()
	for i := 0; i < 5000; i++ {
		got := f.Sample(rng.Float64() * total)
		if got != 1 && got != 3 {
			t.Fatalf("sampled zero-weight index %d", got)
		}
	}
}

func TestRandomOpSequenceAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := NewWithCapacity(0)
	ref := &naive{}
	for step := 0; step < 20000; step++ {
		op := rng.Intn(4)
		switch {
		case op == 0 || ref.w == nil || len(ref.w) == 0:
			w := rng.Float64() * 4
			f.Append(w)
			ref.w = append(ref.w, w)
		case op == 1:
			i := rng.Intn(len(ref.w))
			w := rng.Float64() * 4
			f.Update(i, w)
			ref.w[i] = w
		case op == 2:
			i := rng.Intn(len(ref.w))
			f.Delete(i)
			ref.delete(i)
		case op == 3:
			i := rng.Intn(len(ref.w))
			d := rng.Float64() - 0.3
			if ref.w[i]+d < 0 {
				d = -ref.w[i]
			}
			f.Add(i, d)
			ref.w[i] += d
		}
		if f.Len() != len(ref.w) {
			t.Fatalf("step %d: Len mismatch %d vs %d", step, f.Len(), len(ref.w))
		}
		if step%997 == 0 {
			if !almostEqual(f.Total(), ref.total()) {
				t.Fatalf("step %d: Total %v vs %v", step, f.Total(), ref.total())
			}
			got := f.Weights()
			for i := range ref.w {
				if !almostEqual(got[i], ref.w[i]) {
					t.Fatalf("step %d: weight[%d] %v vs %v", step, i, got[i], ref.w[i])
				}
			}
			if len(ref.w) > 0 {
				r := rng.Float64() * ref.total()
				if g, w := f.Sample(r), ref.sample(r); g != w {
					t.Fatalf("step %d: Sample(%v) %d vs %d", step, r, g, w)
				}
			}
		}
	}
}

func TestQuickPropertyTotalEqualsPrefixOfLast(t *testing.T) {
	prop := func(raw []float64) bool {
		weights := make([]float64, 0, len(raw))
		for _, v := range raw {
			weights = append(weights, math.Abs(math.Mod(v, 100)))
		}
		if len(weights) == 0 {
			return true
		}
		f := New(weights)
		return almostEqual(f.Total(), f.Prefix(f.Len()-1))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPropertyAppendThenWeight(t *testing.T) {
	prop := func(raw []float64) bool {
		f := NewWithCapacity(len(raw))
		weights := make([]float64, 0, len(raw))
		for _, v := range raw {
			w := math.Abs(math.Mod(v, 50))
			weights = append(weights, w)
			f.Append(w)
		}
		for i, w := range weights {
			if !almostEqual(f.Weight(i), w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPropertySampleInRange(t *testing.T) {
	prop := func(raw []float64, rs []float64) bool {
		weights := make([]float64, 0, len(raw))
		for _, v := range raw {
			weights = append(weights, math.Abs(math.Mod(v, 50))+0.001)
		}
		if len(weights) == 0 {
			return true
		}
		f := New(weights)
		total := f.Total()
		for _, rv := range rs {
			r := math.Abs(math.Mod(rv, 1)) * total * 0.999999
			got := f.Sample(r)
			if got < 0 || got >= f.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	f := New([]float64{1, 2, 3})
	g := f.Clone()
	g.Update(0, 100)
	if got := f.Weight(0); !almostEqual(got, 1) {
		t.Fatalf("clone mutation leaked into original: Weight(0) = %v", got)
	}
}

func TestPanicsOnOutOfRange(t *testing.T) {
	f := New([]float64{1})
	for name, fn := range map[string]func(){
		"Prefix":      func() { f.Prefix(1) },
		"Weight":      func() { f.Weight(-1) },
		"Add":         func() { f.Add(5, 1) },
		"Delete":      func() { f.Delete(2) },
		"PrefixEmpty": func() { New(nil).Prefix(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkAppend(b *testing.B) {
	f := NewWithCapacity(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Append(1.5)
	}
}

func BenchmarkUpdate(b *testing.B) {
	const n = 1 << 12
	f := NewWithCapacity(n)
	for i := 0; i < n; i++ {
		f.Append(1)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Update(rng.Intn(n), 2)
	}
}

func BenchmarkSample(b *testing.B) {
	const n = 1 << 12
	f := NewWithCapacity(n)
	for i := 0; i < n; i++ {
		f.Append(1)
	}
	rng := rand.New(rand.NewSource(1))
	total := f.Total()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Sample(rng.Float64() * total)
	}
}

// BenchmarkSampleMany draws in batches of 32, the chunk the storage layer
// hands down per seed, over a table the size of a full default leaf (256)
// and a large one.
func BenchmarkSampleMany(b *testing.B) {
	for _, n := range []int{256, 1 << 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := NewWithCapacity(n)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < n; i++ {
				f.Append(rng.Float64() + 0.1)
			}
			total := f.Total()
			var rs [32]float64
			var out [32]int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range rs {
					rs[j] = rng.Float64() * total
				}
				f.SampleMany(rs[:], out[:])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/draw")
		})
	}
}
