package ann

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// sqDistInput fills a and b with one class of input: random values, zeros,
// large magnitudes, subnormals, or random values with ±Inf and NaN mixed in.
func sqDistInput(rng *rand.Rand, class string, a, b []float32) {
	for i := range a {
		switch class {
		case "random":
			a[i], b[i] = float32(rng.NormFloat64()*4), float32(rng.NormFloat64()*4)
		case "zeros":
			a[i], b[i] = 0, 0
		case "large":
			a[i], b[i] = float32(rng.NormFloat64()*1e17), float32(rng.NormFloat64()*1e17)
		case "subnormal":
			a[i] = math.Float32frombits(rng.Uint32() & 0x807fffff)
			b[i] = math.Float32frombits(rng.Uint32() & 0x807fffff)
		case "special":
			specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
			a[i], b[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
			if rng.Intn(4) == 0 {
				a[i] = specials[rng.Intn(len(specials))]
			}
			if rng.Intn(4) == 0 {
				b[i] = specials[rng.Intn(len(specials))]
			}
		default:
			panic(class)
		}
	}
}

var sqDistClasses = []string{"random", "zeros", "large", "subnormal", "special"}

// sqDistRef returns the squared distance in float64 and whether the float32
// bound applies: every square is zero or a normal float32 and the sum stays
// under half of MaxFloat32, so no float32 step under- or overflows.
func sqDistRef(a, b []float32) (ref float64, bounded bool) {
	bounded = true
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sq := d * d
		if math.IsNaN(sq) || (sq != 0 && sq < 0x1p-126) {
			bounded = false
		}
		ref += sq
	}
	return ref, bounded && ref < math.MaxFloat32/2
}

// sqDistTol is the relative error bound of a float32 distance over n
// dimensions against the float64 reference, in units of 2^-24. Each square
// is off by at most 3 units (the rounded difference, squared, then the
// rounded product), and a term then passes through at most n/8 lane adds,
// three reduction adds and seven tail adds, each rounding by at most one
// unit of a non-negative partial sum: n/8+13 units, and one more for the
// higher-order terms.
func sqDistTol(n int) float64 { return float64(n/8+14) * 0x1p-24 }

// sameDist reports whether two distances have the same bits, or are both
// NaN: Go does not specify which payload an operation on two NaNs keeps.
func sameDist(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// checkSqDist fails unless sqDist and sqDistGo agree bit for bit on a and b
// and, where the bound applies, both lie within sqDistTol of the float64
// reference.
func checkSqDist(tb testing.TB, a, b []float32) {
	tb.Helper()
	want, got := sqDistGo(a, b), sqDist(a, b)
	if !sameDist(got, want) {
		tb.Fatalf("dim %d: sqDist = %v (%#08x), sqDistGo = %v (%#08x)", len(a), got, math.Float32bits(got), want, math.Float32bits(want))
	}
	ref, bounded := sqDistRef(a, b)
	if !bounded {
		return
	}
	tol := sqDistTol(len(a))
	for _, d := range []float32{got, want} {
		if math.Abs(float64(d)-ref) > tol*ref {
			tb.Fatalf("dim %d: distance %v against float64 %v, relative error above %.3g", len(a), d, ref, tol)
		}
	}
}

// TestSqDistKernelsAgree runs the AVX2 kernel and the pure-Go code on every
// dimension from 0 to 130, so every tail length and both loops of the
// kernel, over each input class, with a and b starting 0-7 floats into
// their buffers so that the kernel's loads fall at every alignment. The
// distances must be bit-identical.
func TestSqDistKernelsAgree(t *testing.T) {
	if !hasAVX2 {
		t.Skip("the processor or the operating system lacks AVX2, so the assembly kernel never runs")
	}
	rng := rand.New(rand.NewSource(37))
	for _, class := range sqDistClasses {
		for n := 0; n <= 130; n++ {
			for rep := 0; rep < 4; rep++ {
				abuf, bbuf := make([]float32, n+8), make([]float32, n+8)
				a, b := abuf[(n+rep)%8:][:n], bbuf[(3*n+rep)%8:][:n]
				sqDistInput(rng, class, a, b)
				checkSqDist(t, a, b)
			}
		}
	}
}

// TestSqDistWithinBound holds the distance of each path, the one sqDist
// takes on this host and the pure-Go one, within sqDistTol of a float64
// reference wherever no float32 step under- or overflows: random values,
// zeros and large magnitudes at every dimension from 0 to 130.
func TestSqDistWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, class := range []string{"random", "zeros", "large"} {
		for n := 0; n <= 130; n++ {
			a, b := make([]float32, n), make([]float32, n)
			sqDistInput(rng, class, a, b)
			if _, bounded := sqDistRef(a, b); !bounded {
				t.Fatalf("%s dim %d: input outside the bound's range", class, n)
			}
			checkSqDist(t, a, b)
		}
	}
}

// FuzzSqDist reads the input as little-endian float32s, the first half as a
// and the second as b, and requires the two paths to agree bit for bit and
// to stay within the bound of the float64 reference.
func FuzzSqDist(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for _, class := range sqDistClasses {
		for _, n := range []int{1, 7, 8, 9, 32, 33, 67} {
			a, b := make([]float32, n), make([]float32, n)
			sqDistInput(rng, class, a, b)
			buf := make([]byte, 0, 8*n)
			for _, v := range append(a, b...) {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
			f.Add(buf)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		a, b := make([]float32, n), make([]float32, n)
		for i := range a {
			a[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			b[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*(n+i):]))
		}
		checkSqDist(t, a, b)
	})
}
