//go:build amd64

package gnn

import (
	"math"
	"math/rand"
	"testing"
)

// guard is the sentinel around every kernel output: a NaN no kernel
// computes, so any write outside the output rows shows.
var guard = math.Float32frombits(0x7fa5a5a5)

// offsetSlice returns n random floats starting off elements into a buffer
// whose elements before and after them hold guard, and the buffer.
func offsetSlice(rng *rand.Rand, off, n int) (s, buf []float32) {
	buf = make([]float32, off+n+8)
	for i := range buf {
		buf[i] = guard
	}
	s = buf[off : off+n]
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s, buf
}

// checkGuards fails if an element of buf outside [off, off+n) is not guard.
func checkGuards(t *testing.T, name string, buf []float32, off, n int) {
	t.Helper()
	for i, v := range buf {
		if (i < off || i >= off+n) && math.Float32bits(v) != math.Float32bits(guard) {
			t.Fatalf("%s: wrote element %d outside [%d,%d)", name, i, off, off+n)
		}
	}
}

// TestAVX2KernelsMatchGoOnUnalignedSlices calls each assembly kernel on
// subslices starting 1-7 floats into their buffers, so every vector load
// and store is unaligned, and checks the result bit for bit against the Go
// loop it replaces and that nothing outside the output rows was written.
func TestAVX2KernelsMatchGoOnUnalignedSlices(t *testing.T) {
	if !hasAVX2 {
		t.Skip("the processor or the operating system lacks AVX2, so the assembly kernels never run")
	}
	rng := rand.New(rand.NewSource(71))
	for off := 1; off <= 7; off++ {
		for _, n := range []int{8, 16, 24, 32, 40, 64, 72} {
			const k, as, bs = 9, 3, 75
			o0, buf0 := offsetSlice(rng, off, n)
			o1, buf1 := offsetSlice(rng, 8-off, n)
			a0, _ := offsetSlice(rng, off, k*as)
			a1, _ := offsetSlice(rng, off, k*as)
			b, _ := offsetSlice(rng, off, k*bs)
			w0, w1 := append([]float32(nil), o0...), append([]float32(nil), o1...)
			for kk := 0; kk < k; kk++ {
				for j := 0; j < n; j++ {
					w0[j] += a0[kk*as] * b[kk*bs+j]
					w1[j] += a1[kk*as] * b[kk*bs+j]
				}
			}
			pairAVX2(&o0[0], &o1[0], &a0[0], &a1[0], as, &b[0], bs, k, n)
			sameBits(t, "pairAVX2 o0", NewMatrixFrom(1, n, o0), NewMatrixFrom(1, n, w0))
			sameBits(t, "pairAVX2 o1", NewMatrixFrom(1, n, o1), NewMatrixFrom(1, n, w1))
			checkGuards(t, "pairAVX2 o0", buf0, off, n)
			checkGuards(t, "pairAVX2 o1", buf1, 8-off, n)

			const groups, fanout, xs, xRows = 3, 4, 80, 20
			inv := float32(1) / fanout
			rows := make([]int32, groups*fanout)
			for i := range rows {
				rows[i] = int32(rng.Intn(xRows))
			}
			x, _ := offsetSlice(rng, off, xRows*xs)
			for _, idx := range [][]int32{rows, nil} {
				o, buf := offsetSlice(rng, off, (groups-1)*xs+n)
				want := append([]float32(nil), o...)
				for g := 0; g < groups; g++ {
					for p := g * fanout; p < (g+1)*fanout; p++ {
						r := p
						if idx != nil {
							r = int(idx[p])
						}
						for j := 0; j < n; j++ {
							want[g*xs+j] += inv * x[r*xs+j]
						}
					}
				}
				var r0 *int32
				if idx != nil {
					r0 = &idx[0]
				}
				poolAVX2(&o[0], xs, &x[0], xs, r0, groups, fanout, inv, n)
				sameBits(t, "poolAVX2", NewMatrixFrom(1, len(o), o), NewMatrixFrom(1, len(want), want))
				checkGuards(t, "poolAVX2", buf, off, len(o))
			}

			r, rbuf := offsetSlice(rng, off, n)
			rWant := append([]float32(nil), r...)
			reluGo(rWant)
			reluAVX2(&r[0], n)
			sameBits(t, "reluAVX2", NewMatrixFrom(1, n, r), NewMatrixFrom(1, n, rWant))
			checkGuards(t, "reluAVX2", rbuf, off, n)

			d, dbuf := offsetSlice(rng, 8-off, n)
			dWant := append([]float32(nil), d...)
			reluBackwardGo(dWant, r)
			reluBackAVX2(&d[0], &r[0], n)
			sameBits(t, "reluBackAVX2", NewMatrixFrom(1, n, d), NewMatrixFrom(1, n, dWant))
			checkGuards(t, "reluBackAVX2", dbuf, 8-off, n)
		}
	}
}

// TestTrainStepGoldenGoKernels runs the whole-step golden test with the
// pure-Go kernels, as a host without AVX2 would: the bits are the same.
func TestTrainStepGoldenGoKernels(t *testing.T) {
	defer func(v bool) { hasAVX2 = v }(hasAVX2)
	hasAVX2 = false
	checkTrainStepGolden(t)
}
