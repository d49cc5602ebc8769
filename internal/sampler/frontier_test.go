package sampler

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
	"platod2gl/internal/storage"
)

// TestSampleNeighborsGroupsFrontier checks the serial frontier path against
// its definition: with one generator, NewRand(Seed+1), each distinct seed in
// first-occurrence order draws m·fanout samples in one store call, and its
// occurrence j takes block j of them; a seed without out-neighbors fills
// its slots with itself.
func TestSampleNeighborsGroupsFrontier(t *testing.T) {
	st := buildStore(t)
	rng := rand.New(rand.NewSource(4))
	seeds := make([]graph.VertexID, 500)
	for i := range seeds {
		seeds[i] = graph.VertexID(rng.Intn(130)) // 100.. have no out-edges
		if i%3 == 0 {
			seeds[i] = 7 // a hub that recurs
		}
	}
	for _, fanout := range []int{1, 3, 25} {
		got := New(st, Options{Seed: 17}).SampleNeighbors(seeds, 0, fanout).Neighbors

		want := make([]graph.VertexID, len(seeds)*fanout)
		ref := NewRand(18)
		var order []graph.VertexID
		occ := map[graph.VertexID][]int{}
		for i, v := range seeds {
			if occ[v] == nil {
				order = append(order, v)
			}
			occ[v] = append(occ[v], i)
		}
		for _, v := range order {
			draws := st.SampleNeighbors(v, 0, len(occ[v])*fanout, ref, nil)
			for j, pos := range occ[v] {
				for k := 0; k < fanout; k++ {
					if len(draws) == 0 {
						want[pos*fanout+k] = v
					} else {
						want[pos*fanout+k] = draws[j*fanout+k]
					}
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("fan-out %d: the grouped frontier differs from its definition", fanout)
		}
	}
}

// TestParallelFrontierWithHub: at Parallelism 4 a frontier whose hub holds
// most of the positions is sampled deterministically, every draw is a real
// neighbor of its position's vertex, and the result differs from the serial
// one (the runs did draw from their own generators).
func TestParallelFrontierWithHub(t *testing.T) {
	st := buildStore(t)
	seeds := make([]graph.VertexID, 3000)
	for i := range seeds {
		seeds[i] = 3
		if i%4 == 0 {
			seeds[i] = graph.VertexID(i / 4 % 100)
		}
	}
	par := New(st, Options{Parallelism: 4, Seed: 5})
	a := par.SampleNeighbors(seeds, 0, 6).Neighbors
	b := par.SampleNeighbors(seeds, 0, 6).Neighbors
	if !slices.Equal(a, b) {
		t.Fatal("the same seed produced different parallel samples")
	}
	for i, seed := range seeds {
		lo := 1000 + uint64(seed)*20
		for _, got := range a[i*6 : (i+1)*6] {
			if uint64(got) < lo || uint64(got) >= lo+20 {
				t.Fatalf("position %d: %v is not a neighbor of %v", i, got, seed)
			}
		}
	}
	if slices.Equal(a, New(st, Options{Seed: 5}).SampleNeighbors(seeds, 0, 6).Neighbors) {
		t.Fatal("parallel sampling drew the serial stream")
	}
}

// TestSamplerSharedAcrossGoroutines: one Sampler (view.Local and
// platod2gl.Graph share theirs) called from several goroutines at once,
// each with its own frontiers, returns what it returns called alone; the
// pooled scratch is never shared by two calls. Run it under -race.
func TestSamplerSharedAcrossGoroutines(t *testing.T) {
	st := buildStore(t)
	for _, par := range []int{0, 2} {
		smp := New(st, Options{Parallelism: par, Seed: 8})
		batches := make([][]graph.VertexID, 4)
		want := make([][]graph.VertexID, len(batches))
		for b := range batches {
			for i := 0; i < 100+50*b; i++ {
				batches[b] = append(batches[b], graph.VertexID((i*(b+3))%100))
			}
			want[b] = smp.SampleSubgraph(batches[b], graph.MetaPath{0, 1}, []int{4, 3}).Layers[1].Nodes
		}
		var wg sync.WaitGroup
		for b := range batches {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				for r := 0; r < 20; r++ {
					got := smp.SampleSubgraph(batches[b], graph.MetaPath{0, 1}, []int{4, 3}).Layers[1].Nodes
					if !slices.Equal(got, want[b]) {
						t.Errorf("parallelism %d, batch %d: a concurrent call returned other samples", par, b)
						return
					}
				}
			}(b)
		}
		wg.Wait()
	}
}

// TestFrontierOccurrencesIndependent is the distribution check of frontier
// sampling. A frontier repeats one vertex of neighbor weights 1:2:3:4 m
// times among 80 other vertices, so the parallel path splits it too. Over
// many sampler seeds, the draws of each occurrence must follow the weights,
// and the first draws of two adjacent occurrences must follow the product
// distribution: occurrences that shared one block of draws would put all
// their mass on its diagonal.
func TestFrontierOccurrencesIndependent(t *testing.T) {
	st := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16, Compress: true}})
	const hub = 1
	weights := []float64{1, 2, 3, 4}
	for i, w := range weights {
		st.AddEdge(graph.Edge{Src: hub, Dst: graph.VertexID(10 + i), Weight: w})
	}
	for v := graph.VertexID(100); v < 180; v++ {
		st.AddEdge(graph.Edge{Src: v, Dst: 5, Weight: 1})
	}
	const m, trials = 4, 3000
	var seeds []graph.VertexID
	var at []int // the hub's positions
	for v := graph.VertexID(100); v < 180; v++ {
		if v%20 == 0 && len(at) < m {
			at = append(at, len(seeds))
			seeds = append(seeds, hub)
		}
		seeds = append(seeds, v)
	}
	for _, k := range []int{1, 3} {
		for _, par := range []int{0, 2} {
			marg := make([][4]float64, m)
			pair := make([][16]float64, m-1)
			for trial := 0; trial < trials; trial++ {
				out := New(st, Options{Parallelism: par, Seed: int64(trial) * 7}).SampleNeighbors(seeds, 0, k).Neighbors
				for j, pos := range at {
					for _, id := range out[pos*k : (pos+1)*k] {
						marg[j][id-10]++
					}
					if j > 0 {
						pair[j-1][4*(out[at[j-1]*k]-10)+out[pos*k]-10]++
					}
				}
			}
			for j := range marg {
				if c := chiSquare(marg[j][:], weights); c > 16.27 { // 3 dof, p = 0.001
					t.Errorf("k=%d, parallelism %d: occurrence %d's draws miss the weights: chi-square %.1f, counts %v", k, par, j, c, marg[j])
				}
			}
			product := make([]float64, 16)
			for a, wa := range weights {
				for b, wb := range weights {
					product[4*a+b] = wa * wb
				}
			}
			for j := range pair {
				if c := chiSquare(pair[j][:], product); c > 37.70 { // 15 dof, p = 0.001
					t.Errorf("k=%d, parallelism %d: occurrences %d and %d are not independent: chi-square %.1f", k, par, j, j+1, c)
				}
			}
		}
	}
}

// chiSquare is Pearson's statistic of counts against expected proportions.
func chiSquare(counts, expected []float64) float64 {
	var n, sum float64
	for i := range counts {
		n += counts[i]
		sum += expected[i]
	}
	c := 0.0
	for i, o := range counts {
		e := n * expected[i] / sum
		c += (o - e) * (o - e) / e
	}
	return c
}

// sample2hopInput is the benchmark's sample-2hop setup: WeChat-sim scaled to
// 500 000 events in a compressed store, and batches of 512 seeds drawn by
// out-degree under the User-Live relation.
func sample2hopInput(tb testing.TB, batches int) (*storage.DynamicStore, [][]graph.VertexID) {
	tb.Helper()
	spec := dataset.WeChatSim()
	spec = spec.Scale(500_000 / float64(spec.TotalEvents()))
	st := storage.NewDynamicStore(storage.Options{Tree: core.Options{Compress: true}})
	gen := dataset.NewGenerator(spec, dataset.BuildMix, 1)
	for left := 500_000; left > 0; left -= 8192 {
		st.ApplyBatch(gen.Next(min(left, 8192)))
	}
	rng := rand.New(rand.NewSource(2))
	all := New(st, Options{}).SampleNodesByDegree(0, batches*512, rng)
	seeds := make([][]graph.VertexID, batches)
	for i := range seeds {
		seeds[i] = all[i*512 : (i+1)*512]
	}
	return st, seeds
}

// samplePath is sample-2hop's meta-path: User -> Live -> User.
var samplePath = graph.MetaPath{0, dataset.ReverseOffset}

// BenchmarkSampleSubgraph times sample-2hop's call, fan-outs 25×10 from 512
// degree-weighted seeds, one client, and reports seeds per second.
func BenchmarkSampleSubgraph(b *testing.B) {
	st, batches := sample2hopInput(b, 32)
	smp := New(st, Options{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.SampleSubgraph(batches[i%len(batches)], samplePath, []int{25, 10})
	}
	b.ReportMetric(float64(b.N*512)/b.Elapsed().Seconds(), "seeds/s")
}

// TestSampleSubgraphAllocs pins a 2-hop SampleSubgraph at 4 allocations per
// call once the pooled scratch is warm: the Subgraph, its layer slice and
// the two layers' node slices.
func TestSampleSubgraphAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	smp := New(buildStore(t), Options{Seed: 1})
	seeds := make([]graph.VertexID, 256)
	for i := range seeds {
		seeds[i] = graph.VertexID(i % 100)
	}
	call := func() { smp.SampleSubgraph(seeds, graph.MetaPath{0, 1}, []int{10, 5}) }
	call()
	if got := testing.AllocsPerRun(50, call); got != 4 {
		t.Fatalf("SampleSubgraph allocates %.0f times per call, want 4", got)
	}
}
