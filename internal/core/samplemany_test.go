package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// perDrawSampleOne is the unbatched descent: a fresh total and a full
// root-to-leaf search for every draw. The batched paths must return exactly
// its neighbors for the same random stream.
func perDrawSampleOne(t *Tree, rng *rand.Rand) (uint64, bool) {
	if t.size == 0 {
		return 0, false
	}
	r := rng.Float64() * t.root.total()
	n := t.root
	for !n.isLeaf() {
		i := n.cs.Sample(r)
		if i > 0 {
			r -= n.cs.Prefix(i - 1)
		}
		n = n.children[i]
	}
	idx := n.fs.Sample(r)
	return n.ids.Get(idx), true
}

func TestBatchedDrawsMatchPerDrawDescent(t *testing.T) {
	const capacity = 8
	// Sizes that give heights 1, 2 and 3 at capacity 8.
	sizes := map[int]int{1: 6, 2: 30, 3: 200}
	for height := 1; height <= 3; height++ {
		for _, compress := range []bool{false, true} {
			for _, leaf := range []LeafTableKind{LeafFTS, LeafITS} {
				name := fmt.Sprintf("height=%d/compress=%v/leaf=%v", height, compress, leaf)
				t.Run(name, func(t *testing.T) {
					build := rand.New(rand.NewSource(int64(height)))
					tr := NewTree(Options{Capacity: capacity, Compress: compress, LeafTable: leaf})
					for tr.Len() < sizes[height] {
						w := build.Float64() * 5
						if build.Intn(6) == 0 {
							w = 0
						}
						tr.Insert(0x3100000000000000|uint64(build.Intn(1<<20)), w)
					}
					if tr.Height() != height {
						t.Fatalf("built height %d, want %d", tr.Height(), height)
					}
					for _, k := range []int{1, 10, 25, 33, 64} {
						seed := int64(100 + k)
						ref := rand.New(rand.NewSource(seed))
						want := make([]uint64, k)
						for i := range want {
							want[i], _ = perDrawSampleOne(tr, ref)
						}

						rng := rand.New(rand.NewSource(seed))
						got := AppendSamples(tr, rng, k, []uint64(nil))
						if !slices.Equal(got, want) {
							t.Fatalf("k=%d AppendSamples = %v, per-draw descent = %v", k, got, want)
						}
						if a, b := rng.Int63(), ref.Int63(); a != b {
							t.Fatalf("k=%d: AppendSamples left the rng in a different state than %d draws", k, k)
						}

						rng = rand.New(rand.NewSource(seed))
						us := make([]float64, k)
						for i := range us {
							us[i] = rng.Float64()
						}
						out := make([]uint64, k)
						if !tr.SampleMany(us, out) {
							t.Fatal("SampleMany reported an empty tree")
						}
						if !slices.Equal(out, want) {
							t.Fatalf("k=%d SampleMany = %v, per-draw descent = %v", k, out, want)
						}

						rng = rand.New(rand.NewSource(seed))
						for i := range out {
							out[i], _ = tr.SampleOne(rng)
						}
						if !slices.Equal(out, want) {
							t.Fatalf("k=%d SampleOne draws = %v, per-draw descent = %v", k, out, want)
						}
					}
				})
			}
		}
	}
}

func TestSampleManyEmptyTree(t *testing.T) {
	tr := NewTree(Options{})
	out := []uint64{7}
	if tr.SampleMany([]float64{0.5}, out) || out[0] != 7 {
		t.Fatalf("SampleMany on an empty tree = true or wrote %v", out)
	}
	rng := rand.New(rand.NewSource(1))
	if got := AppendSamples(tr, rng, 5, []uint64(nil)); len(got) != 0 {
		t.Fatalf("AppendSamples on an empty tree returned %v", got)
	}
	if a, b := rng.Int63(), rand.New(rand.NewSource(1)).Int63(); a != b {
		t.Fatal("AppendSamples consumed randomness on an empty tree")
	}
}
