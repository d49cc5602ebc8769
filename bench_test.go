// Benchmarks mapping one-to-one onto the PlatoD2GL paper's tables and
// figures (see DESIGN.md's per-experiment index). Each family reproduces
// the measured quantity of its artifact at laptop scale; the full
// paper-style sweep with formatted tables is cmd/platod2gl-bench.
//
//	go test -bench=. -benchmem
package platod2gl_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"platod2gl"
	"platod2gl/internal/bench"
	"platod2gl/internal/core"
	"platod2gl/internal/cstable"
	"platod2gl/internal/dataset"
	"platod2gl/internal/fenwick"
	"platod2gl/internal/graph"
	"platod2gl/internal/sampler"
	"platod2gl/internal/storage"
)

// ---------------------------------------------------------------- Table II

// BenchmarkTable2 measures per-op cost of the ITS CSTable vs the FTS
// FSTable (update / delete / sample) across leaf sizes — Table II's
// complexity claims, empirically.
func BenchmarkTable2(b *testing.B) {
	for _, n := range []int{1 << 8, 1 << 12} {
		weights := make([]float64, n)
		rng := rand.New(rand.NewSource(1))
		for i := range weights {
			weights[i] = rng.Float64() + 0.1
		}
		b.Run(fmt.Sprintf("ITSUpdate/n=%d", n), func(b *testing.B) {
			t := cstable.New(weights)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Update(i%n, 1.5)
			}
		})
		b.Run(fmt.Sprintf("FTSUpdate/n=%d", n), func(b *testing.B) {
			t := fenwick.New(weights)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Update(i%n, 1.5)
			}
		})
		b.Run(fmt.Sprintf("ITSDelete/n=%d", n), func(b *testing.B) {
			t := cstable.New(weights)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Delete(i % (n - 1))
				t.Append(1)
			}
		})
		b.Run(fmt.Sprintf("FTSDelete/n=%d", n), func(b *testing.B) {
			t := fenwick.New(weights)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Delete(i % (n - 1))
				t.Append(1)
			}
		})
		b.Run(fmt.Sprintf("ITSSample/n=%d", n), func(b *testing.B) {
			t := cstable.New(weights)
			total := t.Total()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Sample(float64(i%997) / 997 * total)
			}
		})
		b.Run(fmt.Sprintf("FTSSample/n=%d", n), func(b *testing.B) {
			t := fenwick.New(weights)
			total := t.Total()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Sample(float64(i%997) / 997 * total)
			}
		})
	}
}

// ----------------------------------------------------------- shared fixture

const (
	fixtureEdges = 30_000
	fixtureBatch = 4096
)

var (
	fixtureOnce   sync.Once
	fixtureSpec   *dataset.Spec
	fixtureStores map[bench.SystemName]storage.TopologyStore
	fixtureSeeds  []graph.VertexID
)

// fixture builds the WeChat-sim graph once per process for every system.
func fixture(b *testing.B) {
	b.Helper()
	fixtureOnce.Do(func() {
		fixtureSpec = bench.WeChatScaled(fixtureEdges)
		fixtureStores = map[bench.SystemName]storage.TopologyStore{}
		for _, sys := range bench.AllSystems {
			st := bench.NewStore(sys, 4)
			bench.Load(st, fixtureSpec, dataset.BuildMix, fixtureEdges, fixtureBatch, 1)
			fixtureStores[sys] = st
		}
		fixtureSeeds = fixtureStores[bench.SysD2GL].Sources(0)
	})
	if len(fixtureSeeds) == 0 {
		b.Fatal("fixture has no sources")
	}
}

// ------------------------------------------------------------------ Fig. 8

// BenchmarkFig8_Build measures full graph-building time per system on the
// WeChat-sim stream (Fig. 8; one iteration = one complete build).
func BenchmarkFig8_Build(b *testing.B) {
	spec := bench.WeChatScaled(15_000)
	for _, sys := range bench.AllSystems {
		b.Run(string(sys), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := bench.NewStore(sys, 4)
				bench.Load(st, spec, dataset.BuildMix, 15_000, fixtureBatch, 1)
			}
			b.ReportMetric(float64(15_000*2)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// ------------------------------------------------------------------ Fig. 9

// BenchmarkFig9_Update measures dynamic-update batch latency per system and
// batch size on the pre-built WeChat-sim graph (Fig. 9).
func BenchmarkFig9_Update(b *testing.B) {
	fixture(b)
	for _, sys := range []bench.SystemName{bench.SysPlatoGL, bench.SysD2GL} {
		for _, batch := range []int{1 << 10, 1 << 14} {
			b.Run(fmt.Sprintf("%s/batch=%d", sys, batch), func(b *testing.B) {
				batches := bench.PrepareBatches(fixtureSpec, dataset.DynamicMix, 8, batch, 99)
				st := fixtureStores[sys]
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.ApplyBatch(batches[i%len(batches)])
				}
			})
		}
	}
}

// --------------------------------------------------------------- Table IV

// BenchmarkTable4_MemBuild builds each system once per iteration and
// reports structural bytes per stored edge (Table IV).
func BenchmarkTable4_MemBuild(b *testing.B) {
	spec := bench.WeChatScaled(15_000)
	for _, sys := range bench.AllSystems {
		b.Run(string(sys), func(b *testing.B) {
			var bytesPerEdge float64
			for i := 0; i < b.N; i++ {
				st := bench.NewStore(sys, 4)
				bench.Load(st, spec, dataset.BuildMix, 15_000, fixtureBatch, 1)
				bytesPerEdge = float64(st.MemoryBytes()) / float64(st.NumEdges())
			}
			b.ReportMetric(bytesPerEdge, "B/edge")
		})
	}
}

// ---------------------------------------------------------------- Table V

// BenchmarkTable5_OpMix builds the WeChat-sim graph at several samtree
// capacities, reporting the leaf-update share (Table V).
func BenchmarkTable5_OpMix(b *testing.B) {
	spec := bench.WeChatScaled(15_000)
	for _, capacity := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("capacity=%d", capacity), func(b *testing.B) {
			var share float64
			for i := 0; i < b.N; i++ {
				counters := &core.Counters{}
				st := storage.NewDynamicStore(storage.Options{
					Tree:    core.Options{Capacity: capacity, Compress: true, Counters: counters},
					Workers: 4,
				})
				bench.Load(st, spec, dataset.BuildMix, 15_000, fixtureBatch, 1)
				share = counters.LeafShare()
			}
			b.ReportMetric(share*100, "leaf%")
		})
	}
}

// ----------------------------------------------------------------- Fig. 10

// BenchmarkFig10_Neighbor measures batched neighbor sampling (50 per seed)
// per system (Fig. 10 a-c).
func BenchmarkFig10_Neighbor(b *testing.B) {
	fixture(b)
	seeds := make([]graph.VertexID, 1024)
	for i := range seeds {
		seeds[i] = fixtureSeeds[i%len(fixtureSeeds)]
	}
	for _, sys := range bench.AllSystems {
		b.Run(string(sys), func(b *testing.B) {
			smp := sampler.New(fixtureStores[sys], sampler.Options{Parallelism: 4, Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smp.SampleNeighbors(seeds, 0, 50)
			}
		})
	}
}

// BenchmarkFig10_Subgraph measures 2-hop meta-path subgraph sampling
// (fanouts 25, 10) per system (Fig. 10 d-f).
func BenchmarkFig10_Subgraph(b *testing.B) {
	fixture(b)
	seeds := make([]graph.VertexID, 256)
	for i := range seeds {
		seeds[i] = fixtureSeeds[i%len(fixtureSeeds)]
	}
	path := graph.MetaPath{0, dataset.ReverseOffset}
	for _, sys := range bench.AllSystems {
		b.Run(string(sys), func(b *testing.B) {
			smp := sampler.New(fixtureStores[sys], sampler.Options{Parallelism: 4, Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				smp.SampleSubgraph(seeds, path, []int{25, 10})
			}
		})
	}
}

// ----------------------------------------------------------------- Fig. 11

// BenchmarkFig11a_BatchSize sweeps the dynamic-update batch size on
// PlatoD2GL (Fig. 11a).
func BenchmarkFig11a_BatchSize(b *testing.B) {
	fixture(b)
	for _, batch := range []int{1 << 8, 1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			batches := bench.PrepareBatches(fixtureSpec, dataset.DynamicMix, 4, batch, 7)
			st := fixtureStores[bench.SysD2GL]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.ApplyBatch(batches[i%len(batches)])
			}
		})
	}
}

// BenchmarkFig11b_Capacity sweeps the samtree node capacity (Fig. 11b; one
// iteration = one full build).
func BenchmarkFig11b_Capacity(b *testing.B) {
	spec := bench.WeChatScaled(15_000)
	for _, capacity := range []int{1 << 6, 1 << 8, 1 << 10} {
		b.Run(fmt.Sprintf("capacity=%d", capacity), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := storage.NewDynamicStore(storage.Options{
					Tree:    core.Options{Capacity: capacity, Compress: true},
					Workers: 4,
				})
				bench.Load(st, spec, dataset.DynamicMix, 15_000, fixtureBatch, 1)
			}
		})
	}
}

// BenchmarkFig11c_Threads sweeps the batch-update worker count (Fig. 11c).
func BenchmarkFig11c_Threads(b *testing.B) {
	spec := bench.WeChatScaled(fixtureEdges)
	for _, threads := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			st := storage.NewDynamicStore(storage.Options{
				Tree:    core.Options{Compress: true},
				Workers: threads,
			})
			bench.Load(st, spec, dataset.BuildMix, fixtureEdges, fixtureBatch, 1)
			batches := bench.PrepareBatches(spec, dataset.DynamicMix, 4, 1<<13, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.ApplyBatch(batches[i%len(batches)])
			}
		})
	}
}

// BenchmarkFig11d_Alpha sweeps the α-Split slackness (Fig. 11d; one
// iteration = one full build).
func BenchmarkFig11d_Alpha(b *testing.B) {
	spec := bench.WeChatScaled(15_000)
	for _, alpha := range []int{0, 8, 128} {
		b.Run(fmt.Sprintf("alpha=%d", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := storage.NewDynamicStore(storage.Options{
					Tree:    core.Options{Alpha: alpha, Compress: true},
					Workers: 4,
				})
				bench.Load(st, spec, dataset.BuildMix, 15_000, fixtureBatch, 1)
			}
		})
	}
}

// ------------------------------------------------------------- GNN (Fig. 1)

// BenchmarkGNN_Epoch measures one epoch of 2-layer GraphSAGE training over
// dynamically sampled neighborhoods (the Fig. 1 workload).
func BenchmarkGNN_Epoch(b *testing.B) {
	const n, classes, dim = 1000, 4, 16
	g := platod2gl.New(platod2gl.WithSeed(1))
	g.AssignSyntheticFeatures(0, n, dim, classes, 0.5, 1)
	rng := rand.New(rand.NewSource(2))
	ids := make([]platod2gl.VertexID, n)
	byClass := make([][]platod2gl.VertexID, classes)
	for i := range ids {
		ids[i] = platod2gl.MakeVertexID(0, uint64(i))
		l, _ := g.Label(ids[i])
		byClass[l] = append(byClass[l], ids[i])
	}
	for _, id := range ids {
		l, _ := g.Label(id)
		peers := byClass[l]
		for j := 0; j < 6; j++ {
			g.AddEdge(platod2gl.Edge{Src: id, Dst: peers[rng.Intn(len(peers))], Weight: 1})
		}
	}
	model := platod2gl.NewModel(dim, 32, classes, rng)
	tr := g.NewTrainer(model, 0, 8, 4, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.TrainEpoch(i, ids, 64, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------- extension benchmarks

// BenchmarkUniformSample measures the count-guided uniform descent.
func BenchmarkUniformSample(b *testing.B) {
	fixture(b)
	st := fixtureStores[bench.SysD2GL]
	rng := rand.New(rand.NewSource(1))
	counts, got := []int{10}, make([]int, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(fixtureSeeds)
		st.SampleFrontier(fixtureSeeds[j:j+1], 0, counts, true, rng, nil, got)
	}
}

// BenchmarkRandomWalk measures weighted random walks over the fixture.
func BenchmarkRandomWalk(b *testing.B) {
	fixture(b)
	smp := sampler.New(fixtureStores[bench.SysD2GL], sampler.Options{Parallelism: 2, Seed: 1})
	seeds := make([]graph.VertexID, 256)
	for i := range seeds {
		seeds[i] = fixtureSeeds[i%len(fixtureSeeds)]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.RandomWalk(seeds, 0, 5)
	}
}

// BenchmarkLinkTrainStep measures one link-prediction training step.
func BenchmarkLinkTrainStep(b *testing.B) {
	g := platod2gl.New(platod2gl.WithSeed(1))
	rng := rand.New(rand.NewSource(2))
	const n, dim = 500, 8
	g.AssignSyntheticFeatures(0, n, dim, 2, 0.3, 1)
	ids := make([]platod2gl.VertexID, n)
	var edges []platod2gl.Edge
	for i := range ids {
		ids[i] = platod2gl.MakeVertexID(0, uint64(i))
	}
	for _, id := range ids {
		for j := 0; j < 5; j++ {
			e := platod2gl.Edge{Src: id, Dst: ids[rng.Intn(n)], Weight: 1}
			g.AddEdge(e)
			edges = append(edges, e)
		}
	}
	tr := g.NewLinkTrainer(platod2gl.NewLinkModel(dim, 16, rng), 0, 5, 0.01, ids, 3)
	batch := edges[:64]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.TrainStep(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGATTrainStep measures one attention-GNN training step.
func BenchmarkGATTrainStep(b *testing.B) {
	g := platod2gl.New(platod2gl.WithSeed(1))
	rng := rand.New(rand.NewSource(2))
	const n, dim = 500, 8
	g.AssignSyntheticFeatures(0, n, dim, 4, 0.3, 1)
	ids := make([]platod2gl.VertexID, n)
	for i := range ids {
		ids[i] = platod2gl.MakeVertexID(0, uint64(i))
	}
	for _, id := range ids {
		for j := 0; j < 5; j++ {
			g.AddEdge(platod2gl.Edge{Src: id, Dst: ids[rng.Intn(n)], Weight: 1})
		}
	}
	tr := g.NewGATTrainer(platod2gl.NewGATModel(dim, 16, 4, rng), 0, 5, 0.01)
	batch, err := tr.SampleBatch(ids[:64])
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.TrainStep(batch)
	}
}
