package view_test

import (
	"math/rand"
	"testing"

	"platod2gl/internal/cluster"
	"platod2gl/internal/core"
	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// Client-side benchmarks for the cluster view's hot paths. The fan-out
// scratch (per-shard seed partitions, occurrence runs, coalescing table)
// is pooled in internal/cluster and the wire codec encodes without
// reflection, so steady-state allocs/op here is the regression signal for
// the pooling — run with -benchmem.

func benchLocalCluster(b *testing.B, servers int) *cluster.LocalCluster {
	b.Helper()
	lc := cluster.NewLocalClusterOptions(servers, cluster.LocalOptions{
		StoreFactory: func(int) (storage.TopologyStore, *kvstore.Store) {
			return storage.NewDynamicStore(storage.Options{
				Tree: core.Options{Capacity: 64}}), kvstore.New()
		},
	})
	b.Cleanup(lc.Shutdown)
	return lc
}

func benchCluster(b *testing.B, servers int) *view.Cluster {
	b.Helper()
	lc := benchLocalCluster(b, servers)
	client := lc.Client()
	var events []graph.Event
	for i := 0; i < 4096; i++ {
		events = append(events, graph.Event{Kind: graph.AddEdge,
			Edge: graph.Edge{Src: graph.VertexID(i % 512), Dst: graph.VertexID(i), Weight: 1}})
	}
	if err := client.ApplyBatch(events); err != nil {
		b.Fatal(err)
	}
	return view.NewCluster(client, 7)
}

func BenchmarkClusterViewSample(b *testing.B) {
	v := benchCluster(b, 4)
	seeds := make([]graph.VertexID, 256)
	for i := range seeds {
		// Duplicates on purpose: the coalescing map and occurrence lists are
		// part of the measured path.
		seeds[i] = graph.VertexID(i % 128)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.SampleNeighbors(seeds, 0, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterViewDegrees(b *testing.B) {
	v := benchCluster(b, 4)
	nodes := make([]graph.VertexID, 256)
	for i := range nodes {
		nodes[i] = graph.VertexID(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.Degrees(nodes, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterViewSampleBatch builds training batches through
// view.Cluster at train-cluster's shape: 2 shards, 256 seeds, fanouts
// 10×5, 64 features, 8 classes, over 4096 vertices with 10 out-edges each.
// calls/batch counts the view calls one batch makes.
func BenchmarkClusterViewSampleBatch(b *testing.B) {
	const (
		n, degree, dim, classes = 4096, 10, 64, 8
		batch                   = 256
	)
	client := benchLocalCluster(b, 2).Client()
	rng := rand.New(rand.NewSource(35))
	nodes := make([]graph.VertexID, n)
	for i := range nodes {
		nodes[i] = graph.MakeVertexID(0, uint64(i))
	}
	events := make([]graph.Event, 0, n*degree)
	for _, src := range nodes {
		for k := 0; k < degree; k++ {
			e := graph.Edge{Src: src, Dst: nodes[rng.Intn(n)], Weight: 1 + rng.Float64()}
			events = append(events, graph.Event{Kind: graph.AddEdge, Edge: e})
		}
	}
	if err := client.ApplyBatch(events); err != nil {
		b.Fatal(err)
	}
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = rng.Float32()
	}
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i % classes)
	}
	if err := client.SetFeatures(nodes, dim, data, labels); err != nil {
		b.Fatal(err)
	}
	m := &view.CallMetrics{}
	v := view.Instrument(view.NewCluster(client, 7), m)
	tr := gnn.NewTrainer(gnn.NewModel(dim, 32, classes, rng), v, 0, 10, 5, 0.01)
	seeds := make([][]graph.VertexID, 8)
	for i := range seeds {
		seeds[i] = make([]graph.VertexID, batch)
		for j := range seeds[i] {
			seeds[i][j] = nodes[rng.Intn(n)]
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	calls0 := m.Calls.Load()
	for i := 0; i < b.N; i++ {
		if _, err := tr.SampleBatch(seeds[i%len(seeds)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Calls.Load()-calls0)/float64(b.N), "calls/batch")
}
