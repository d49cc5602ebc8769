// Conformance: Local and Cluster must be interchangeable behind GraphView —
// same dense-result shapes, same self-loop fallback, identical attribute
// reads — so a trainer wired to one backend trains unchanged on the other.
package view_test

import (
	"math/rand"
	"sort"
	"testing"

	"platod2gl/internal/cluster"
	"platod2gl/internal/core"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/sampler"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// buildViews constructs the same graph behind a Local view and a 2-shard
// single-replica Cluster view: n vertices with deterministic edges,
// features, and labels, plus one isolated vertex (the last seed) exercising
// the self-loop fallback.
func buildViews(t testing.TB) (local, remote view.GraphView, seeds []graph.VertexID, adj map[graph.VertexID]map[graph.VertexID]bool, shutdown func()) {
	t.Helper()
	local, client, seeds, adj, shutdown := buildBackends(t)
	return local, view.NewCluster(client, 1), seeds, adj, shutdown
}

// buildBackends is buildViews with the cluster's client in place of its
// view.
func buildBackends(t testing.TB) (local view.GraphView, client *cluster.Client, seeds []graph.VertexID, adj map[graph.VertexID]map[graph.VertexID]bool, shutdown func()) {
	t.Helper()
	const (
		n   = 40
		dim = 4
	)
	store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}})
	attrs := kvstore.New()
	client, stop := cluster.NewLocalCluster(2, func(int) (storage.TopologyStore, *kvstore.Store) {
		return storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}}), kvstore.New()
	})

	rng := rand.New(rand.NewSource(1))
	adj = make(map[graph.VertexID]map[graph.VertexID]bool)
	var events []graph.Event
	nodes := make([]graph.VertexID, n)
	data := make([]float32, 0, n*dim)
	labels := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		nodes[i] = graph.MakeVertexID(0, uint64(i))
		for d := 0; d < dim; d++ {
			data = append(data, float32(i)+float32(d)/10)
		}
		labels = append(labels, int32(i%3))
	}
	// Vertex n-1 stays isolated: no out-edges, exercising the fallback.
	for i := 0; i < n-1; i++ {
		src := nodes[i]
		adj[src] = make(map[graph.VertexID]bool)
		for j := 0; j < 4; j++ {
			dst := nodes[rng.Intn(n)]
			adj[src][dst] = true
			e := graph.Edge{Src: src, Dst: dst, Weight: 1 + rng.Float64()}
			store.AddEdge(e)
			events = append(events, graph.Event{Kind: graph.AddEdge, Edge: e, Timestamp: int64(i)})
		}
	}
	for i, id := range nodes {
		attrs.SetFeatures(id, data[i*dim:(i+1)*dim])
		attrs.SetLabel(id, labels[i])
	}
	if err := client.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := client.SetFeatures(nodes, dim, data, labels); err != nil {
		t.Fatal(err)
	}

	local = view.NewLocal(store, attrs, sampler.Options{Parallelism: 2, Seed: 1})
	return local, client, nodes, adj, stop
}

func TestConformanceAttributeReads(t *testing.T) {
	local, remote, nodes, _, shutdown := buildViews(t)
	defer shutdown()
	const dim = 4
	// Mix in an unknown vertex: both backends must return a zero row and
	// label 0 for it.
	probe := append(append([]graph.VertexID{}, nodes...), graph.MakeVertexID(9, 77))

	lf, err := local.Features(probe, dim)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := remote.Features(probe, dim)
	if err != nil {
		t.Fatal(err)
	}
	if len(lf) != len(probe)*dim || len(rf) != len(lf) {
		t.Fatalf("feature lengths local=%d remote=%d", len(lf), len(rf))
	}
	for i := range lf {
		if lf[i] != rf[i] {
			t.Fatalf("feature[%d]: local %v != remote %v", i, lf[i], rf[i])
		}
	}

	ll, err := local.Labels(probe)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := remote.Labels(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ll {
		if ll[i] != rl[i] {
			t.Fatalf("label[%d]: local %d != remote %d", i, ll[i], rl[i])
		}
	}

	ld, err := local.Degrees(probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := remote.Degrees(probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ld {
		if ld[i] != rd[i] {
			t.Fatalf("degree[%d] (%v): local %d != remote %d", i, probe[i], ld[i], rd[i])
		}
	}
}

func TestConformanceSources(t *testing.T) {
	local, remote, _, _, shutdown := buildViews(t)
	defer shutdown()
	ls, err := local.Sources(0)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := remote.Sources(0)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	if len(ls) != len(rs) {
		t.Fatalf("sources: local %d != remote %d", len(ls), len(rs))
	}
	for i := range ls {
		if ls[i] != rs[i] {
			t.Fatalf("sources[%d]: local %v != remote %v", i, ls[i], rs[i])
		}
	}
}

func TestConformanceSamplingShapes(t *testing.T) {
	local, remote, nodes, adj, shutdown := buildViews(t)
	defer shutdown()
	seeds := []graph.VertexID{nodes[0], nodes[3], nodes[7], nodes[3]}
	const fanout = 6
	for name, v := range map[string]view.GraphView{"local": local, "cluster": remote} {
		nb, err := v.SampleNeighbors(seeds, 0, fanout)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(nb) != len(seeds)*fanout {
			t.Fatalf("%s: SampleNeighbors length %d, want %d", name, len(nb), len(seeds)*fanout)
		}
		for i, got := range nb {
			seed := seeds[i/fanout]
			if got != seed && !adj[seed][got] {
				t.Fatalf("%s: sample[%d] = %v is neither a neighbor of %v nor the seed", name, i, got, seed)
			}
		}

		// Layer h holds the draws of frontier h: the 3 distinct seeds, then
		// those and the distinct hop-1 draws.
		layers, err := v.SampleSubgraph(seeds, graph.MetaPath{0, 0}, []int{3, 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var front graph.Grouping
		if len(layers) != 2 || len(layers[0]) != 3*3 || len(layers[1]) != len(front.Frontier(seeds, layers[:1]))*2 {
			t.Fatalf("%s: subgraph layer sizes %d/%d", name, len(layers[0]), len(layers[1]))
		}

		// Invalid arguments are errors on every backend, never a panic.
		if _, err := v.SampleNeighbors(seeds, 0, -1); err == nil {
			t.Fatalf("%s: SampleNeighbors with fanout -1 returned no error", name)
		}
		if _, err := v.SampleSubgraph(seeds, graph.MetaPath{0, 0}, []int{3, -2}); err == nil {
			t.Fatalf("%s: SampleSubgraph with fanout -2 returned no error", name)
		}
		if _, err := v.SampleSubgraph(seeds, graph.MetaPath{0, 0}, []int{3}); err == nil {
			t.Fatalf("%s: SampleSubgraph with 2 relations and 1 fanout returned no error", name)
		}
	}
}

func TestConformanceSelfLoopFallback(t *testing.T) {
	local, remote, nodes, _, shutdown := buildViews(t)
	defer shutdown()
	isolated := nodes[len(nodes)-1]
	unknown := graph.MakeVertexID(9, 1234)
	for name, v := range map[string]view.GraphView{"local": local, "cluster": remote} {
		nb, err := v.SampleNeighbors([]graph.VertexID{isolated, unknown}, 0, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := []graph.VertexID{isolated, isolated, isolated, unknown, unknown, unknown}
		for i := range want {
			if nb[i] != want[i] {
				t.Fatalf("%s: fallback sample[%d] = %v, want %v", name, i, nb[i], want[i])
			}
		}
	}
}
