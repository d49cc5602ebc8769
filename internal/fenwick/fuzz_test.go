package fenwick

import (
	"math"
	"testing"
)

// FuzzOps drives a random operation tape against the naive reference; the
// fuzzer explores operation interleavings beyond the seeded random tests.
func FuzzOps(f *testing.F) {
	f.Add([]byte{0, 10, 1, 5, 2, 0, 3, 1})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 1, 2, 0})
	f.Fuzz(func(t *testing.T, tape []byte) {
		fs := NewWithCapacity(0)
		var ref []float64
		for i := 0; i+1 < len(tape); i += 2 {
			op, arg := tape[i]%4, int(tape[i+1])
			switch {
			case op == 0 || len(ref) == 0:
				w := float64(arg%31) + 0.5
				fs.Append(w)
				ref = append(ref, w)
			case op == 1:
				idx := arg % len(ref)
				w := float64(arg%17) + 0.25
				fs.Update(idx, w)
				ref[idx] = w
			case op == 2:
				idx := arg % len(ref)
				last := len(ref) - 1
				ref[idx] = ref[last]
				ref = ref[:last]
				fs.Delete(idx)
			case op == 3:
				idx := arg % len(ref)
				fs.Add(idx, 0.5)
				ref[idx] += 0.5
			}
		}
		if fs.Len() != len(ref) {
			t.Fatalf("len %d vs %d", fs.Len(), len(ref))
		}
		got := fs.Weights()
		for i, w := range ref {
			if math.Abs(got[i]-w) > 1e-6 {
				t.Fatalf("weight[%d] = %v, want %v", i, got[i], w)
			}
		}
		// Prefix sums must be non-decreasing (weights are positive).
		prev := -1.0
		for i := 0; i < fs.Len(); i++ {
			p := fs.Prefix(i)
			if p < prev-1e-6 {
				t.Fatalf("prefix not monotone at %d", i)
			}
			prev = p
		}
		// The batched search must pick what the range-narrow search picks,
		// inside the table's weight range and at and past its end.
		total := fs.Total()
		rs := []float64{0, math.Nextafter(total, 0), total, total + 1}
		for _, b := range tape {
			rs = append(rs, float64(b)/255*total)
		}
		checkAgainstRangeNarrow(t, fs, rs)
	})
}
