package cluster

import (
	"testing"

	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
	"platod2gl/internal/wire"
)

func newCluster(t testing.TB, n int) (*Client, func()) {
	t.Helper()
	client, shutdown := NewLocalCluster(n, func(int) (storage.TopologyStore, *kvstore.Store) {
		return storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16, Compress: true}}),
			kvstore.New()
	})
	return client, shutdown
}

func TestApplyBatchAndStats(t *testing.T) {
	client, shutdown := newCluster(t, 4)
	defer shutdown()
	var events []graph.Event
	for i := uint64(0); i < 1000; i++ {
		events = append(events, graph.Event{
			Kind:      graph.AddEdge,
			Edge:      graph.Edge{Src: graph.VertexID(i % 100), Dst: graph.VertexID(1000 + i), Weight: 1},
			Timestamp: int64(i),
		})
	}
	if err := client.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumEdges != 1000 {
		t.Fatalf("NumEdges = %d, want 1000", stats.NumEdges)
	}
	if stats.MemoryBytes <= 0 {
		t.Fatalf("MemoryBytes = %d", stats.MemoryBytes)
	}
	// Sources are partitioned hash-by-source, so per-server NumSources sum
	// to the 100 distinct sources in the stream.
	if stats.NumSources != 100 {
		t.Fatalf("NumSources = %d, want 100", stats.NumSources)
	}
}

func TestDistributedDegreeAndSampling(t *testing.T) {
	client, shutdown := newCluster(t, 3)
	defer shutdown()
	var events []graph.Event
	for src := uint64(0); src < 50; src++ {
		for j := uint64(0); j < 10; j++ {
			events = append(events, graph.Event{
				Kind: graph.AddEdge,
				Edge: graph.Edge{
					Src: graph.VertexID(src), Dst: graph.VertexID(1000 + src*10 + j),
					Weight: float64(j + 1),
				},
			})
		}
	}
	if err := client.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	nodes := []graph.VertexID{0, 25, 49, 999}
	degs, err := client.Degree(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 10, 10, 0}
	for i := range want {
		if degs[i] != want[i] {
			t.Fatalf("Degree(%v) = %d, want %d", nodes[i], degs[i], want[i])
		}
	}
	seeds := []graph.VertexID{0, 10, 20, 30, 40}
	got, err := client.SampleNeighbors(seeds, 0, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(seeds)*6 {
		t.Fatalf("got %d samples", len(got))
	}
	for i, seed := range seeds {
		for j := 0; j < 6; j++ {
			n := got[i*6+j]
			lo := 1000 + uint64(seed)*10
			if uint64(n) < lo || uint64(n) >= lo+10 {
				t.Fatalf("seed %v sampled foreign neighbor %v", seed, n)
			}
		}
	}
	// Unknown seed falls back to itself.
	fb, err := client.SampleNeighbors([]graph.VertexID{7777}, 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range fb {
		if n != 7777 {
			t.Fatalf("fallback = %v", n)
		}
	}
}

func TestDistributedSubgraph(t *testing.T) {
	client, shutdown := newCluster(t, 2)
	defer shutdown()
	var events []graph.Event
	for src := uint64(0); src < 20; src++ {
		for j := uint64(0); j < 5; j++ {
			dst := 100 + src*5 + j
			events = append(events,
				graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{
					Src: graph.VertexID(src), Dst: graph.VertexID(dst), Type: 0, Weight: 1}},
				graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{
					Src: graph.VertexID(dst), Dst: graph.VertexID(10000 + dst), Type: 1, Weight: 1}},
			)
		}
	}
	if err := client.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	layers, err := client.SampleSubgraph([]graph.VertexID{1, 2}, graph.MetaPath{0, 1}, []int{3, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != 2 || len(layers[0]) != 6 || len(layers[1]) != 12 {
		t.Fatalf("layer sizes: %d/%d", len(layers[0]), len(layers[1]))
	}
	for i, n := range layers[1] {
		parent := layers[0][i/2]
		if uint64(n) != 10000+uint64(parent) {
			t.Fatalf("hop2[%d] = %v, parent %v", i, n, parent)
		}
	}
	// Mismatched fanouts error.
	if _, err := client.SampleSubgraph([]graph.VertexID{1}, graph.MetaPath{0}, []int{1, 2}, 0); err == nil {
		t.Fatal("expected meta-path mismatch error")
	}
}

func TestFeaturesRPC(t *testing.T) {
	attrsByServer := make([]*kvstore.Store, 2)
	_, shutdown := NewLocalCluster(2, func(i int) (storage.TopologyStore, *kvstore.Store) {
		attrsByServer[i] = kvstore.New()
		return storage.NewDynamicStore(storage.Options{}), attrsByServer[i]
	})
	defer shutdown()
	// Place features on every server (replicated attributes).
	id := graph.MakeVertexID(0, 5)
	for _, a := range attrsByServer {
		a.SetFeatures(id, []float32{1, 2, 3})
	}
	var reply FeatureReply
	// Direct service-level call through one peer, read through the codec:
	// the reply is encoded from the store and decoded into a destination.
	svcStore := storage.NewDynamicStore(storage.Options{})
	svc := NewService(svcStore, attrsByServer[0])
	if err := svc.features(&FeatureArgs{Nodes: []graph.VertexID{id}, Dim: 3}, &reply); err != nil {
		t.Fatal(err)
	}
	data := make([]float32, 3)
	got := FeatureReply{dim: 3, out: data, occ: runsOf([][]int{{0}})}
	r := wire.NewReader(reply.appendWire(nil))
	got.decodeWire(r)
	if err := r.Done(); err != nil || got.floats != 3 || data[2] != 3 {
		t.Fatalf("Features = %v (%d floats, %v)", data, got.floats, err)
	}
	// Missing attribute store errors.
	noAttrs := NewService(svcStore, nil)
	if err := noAttrs.features(&FeatureArgs{}, &reply); err == nil {
		t.Fatal("expected error without attribute store")
	}
}

func TestDistributedMatchesLocalStore(t *testing.T) {
	// The same event stream through a 4-server cluster and a local store
	// must produce identical total edge counts and degrees.
	client, shutdown := newCluster(t, 4)
	defer shutdown()
	local := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}})

	gen := dataset.NewGenerator(dataset.OGBNSim().Scale(2e-5), dataset.DynamicMix, 3)
	for batch := 0; batch < 5; batch++ {
		events := gen.Next(2000)
		cp := make([]graph.Event, len(events))
		copy(cp, events)
		if err := client.ApplyBatch(cp); err != nil {
			t.Fatal(err)
		}
		local.ApplyBatch(events)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumEdges != local.NumEdges() {
		t.Fatalf("edges: cluster %d vs local %d", stats.NumEdges, local.NumEdges())
	}
	srcs := local.Sources(0)
	if len(srcs) > 200 {
		srcs = srcs[:200]
	}
	degs, err := client.Degree(srcs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range srcs {
		if degs[i] != local.Degree(src, 0) {
			t.Fatalf("degree(%v): cluster %d vs local %d", src, degs[i], local.Degree(src, 0))
		}
	}
}

func TestNegativeFanoutRejected(t *testing.T) {
	client, shutdown := newCluster(t, 1)
	defer shutdown()
	client.ApplyBatch([]graph.Event{{Kind: graph.AddEdge, Edge: graph.Edge{Src: 1, Dst: 2, Weight: 1}}})
	if _, err := client.SampleNeighbors([]graph.VertexID{1}, 0, -1, 0); err == nil {
		t.Fatal("expected error for negative fanout")
	}
}

func TestSetAndGetFeaturesAcrossCluster(t *testing.T) {
	client, shutdown := newCluster(t, 3)
	defer shutdown()
	const dim = 4
	nodes := make([]graph.VertexID, 50)
	data := make([]float32, len(nodes)*dim)
	labels := make([]int32, len(nodes))
	for i := range nodes {
		nodes[i] = graph.MakeVertexID(0, uint64(i))
		for d := 0; d < dim; d++ {
			data[i*dim+d] = float32(i*10 + d)
		}
		labels[i] = int32(i % 3)
	}
	if err := client.SetFeatures(nodes, dim, data, labels); err != nil {
		t.Fatal(err)
	}
	got, err := client.Features(nodes, dim)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("feature[%d] = %v, want %v", i, got[i], data[i])
		}
	}
	// Payload size validation.
	if err := client.SetFeatures(nodes, dim, data[:3], nil); err == nil {
		t.Fatal("expected payload-size error")
	}
}

func TestDistributedTrainingDataPath(t *testing.T) {
	// End-to-end distributed mini-batch assembly: topology updates, feature
	// push, neighbor sampling, and feature gather all through the cluster.
	client, shutdown := newCluster(t, 4)
	defer shutdown()
	const dim = 8
	var events []graph.Event
	nodes := make([]graph.VertexID, 100)
	data := make([]float32, len(nodes)*dim)
	for i := range nodes {
		nodes[i] = graph.MakeVertexID(0, uint64(i))
		data[i*dim] = float32(i)
		for j := 0; j < 5; j++ {
			events = append(events, graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{
				Src: nodes[i], Dst: nodes[(i+j+1)%len(nodes)], Weight: 1}})
		}
	}
	if err := client.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := client.SetFeatures(nodes, dim, data, nil); err != nil {
		t.Fatal(err)
	}
	seeds := nodes[:16]
	neigh, err := client.SampleNeighbors(seeds, 0, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	feats, err := client.Features(neigh, dim)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != len(neigh)*dim {
		t.Fatalf("gathered %d floats for %d nodes", len(feats), len(neigh))
	}
	// Every gathered row must match its node's pushed feature.
	for i, n := range neigh {
		if feats[i*dim] != float32(n.Local()) {
			t.Fatalf("row %d: feature %v for node %v", i, feats[i*dim], n)
		}
	}
}

func TestServerFailureSurfacesError(t *testing.T) {
	// Kill one of three servers mid-session: calls routed to it must fail
	// loudly rather than silently dropping data.
	lc := NewLocalClusterOptions(3, LocalOptions{
		StoreFactory: func(int) (storage.TopologyStore, *kvstore.Store) {
			return storage.NewDynamicStore(storage.Options{}), kvstore.New()
		},
	})
	defer lc.Shutdown()
	client := lc.Client()

	var events []graph.Event
	for i := uint64(0); i < 300; i++ {
		events = append(events, graph.Event{Kind: graph.AddEdge,
			Edge: graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1000), Weight: 1}})
	}
	if err := client.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	lc.StopShard(1)
	if err := client.ApplyBatch(events); err == nil {
		t.Fatal("ApplyBatch succeeded with a dead server")
	}
	seeds := make([]graph.VertexID, 50)
	for i := range seeds {
		seeds[i] = graph.VertexID(i)
	}
	if _, err := client.SampleNeighbors(seeds, 0, 3, 1); err == nil {
		t.Fatal("SampleNeighbors succeeded with a dead server")
	}
	if _, err := client.Stats(); err == nil {
		t.Fatal("Stats succeeded with a dead server")
	}
}
