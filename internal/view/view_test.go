package view_test

import (
	"testing"

	"platod2gl/internal/cluster"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// cursorView is a GraphView stub that only carries a sampling cursor.
type cursorView struct {
	view.GraphView
	pos int64
}

func (v *cursorView) SamplePos() int64       { return v.pos }
func (v *cursorView) SetSamplePos(pos int64) { v.pos = pos }

// TestSampleCursorThroughWrappers: the cursor helpers must reach a cursored
// view through Instrument and WithLatency wrapper chains.
func TestSampleCursorThroughWrappers(t *testing.T) {
	cv := &cursorView{}
	wrapped := view.WithLatency(view.Instrument(cv, &view.CallMetrics{}), 0)
	view.SetSamplePos(wrapped, 41)
	if got := view.SamplePos(wrapped); got != 41 {
		t.Fatalf("cursor through wrappers = %d, want 41", got)
	}
	if cv.pos != 41 {
		t.Fatal("cursor did not reach the backing view")
	}
	// Cursor-less views are a harmless no-op.
	plain := struct{ view.GraphView }{}
	view.SetSamplePos(plain, 9)
	if got := view.SamplePos(plain); got != 0 {
		t.Fatalf("cursor-less view reported %d", got)
	}
}

// degradedCluster builds a two-shard LocalCluster whose client degrades
// sampling per shard, loads a ring graph (each node links to the nodes 1, 2
// and 5 ahead) and stops shard dead. It returns the client, the nodes and
// their adjacency.
func degradedCluster(t *testing.T, n, dead int) (*cluster.Client, []graph.VertexID, map[graph.VertexID]map[graph.VertexID]bool) {
	t.Helper()
	lc := cluster.NewLocalClusterOptions(2, cluster.LocalOptions{
		Client: cluster.Options{Degraded: true},
		StoreFactory: func(int) (storage.TopologyStore, *kvstore.Store) {
			return storage.NewDynamicStore(storage.Options{}), kvstore.New()
		},
	})
	t.Cleanup(lc.Shutdown)
	client := lc.Client()

	nodes := make([]graph.VertexID, n)
	for i := range nodes {
		nodes[i] = graph.MakeVertexID(0, uint64(i))
	}
	adj := make(map[graph.VertexID]map[graph.VertexID]bool)
	var events []graph.Event
	for i, src := range nodes {
		adj[src] = make(map[graph.VertexID]bool)
		for _, d := range []int{1, 2, 5} {
			dst := nodes[(i+d)%n]
			adj[src][dst] = true
			events = append(events, graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{Src: src, Dst: dst, Weight: 1}})
		}
	}
	if err := client.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	lc.StopShard(dead)
	return client, nodes, adj
}

// TestClusterDegradedSamplingPerShard: with Options.Degraded, a stopped
// shard costs only its own seeds their neighbourhoods. SampleSubgraph stays
// full-length, the dead shard's seeds hold self-loops, every healthy shard's
// seeds hold real neighbours, and each degraded shard sub-request is
// counted.
func TestClusterDegradedSamplingPerShard(t *testing.T) {
	const dead = 1
	client, nodes, adj := degradedCluster(t, 32, dead)

	fanouts := []int{3, 2}
	layers, err := view.NewCluster(client, 1).SampleSubgraph(nodes, graph.MetaPath{0, 0}, fanouts)
	if err != nil {
		t.Fatalf("degraded SampleSubgraph failed: %v", err)
	}
	frontier := nodes
	for hop, f := range fanouts {
		if len(layers[hop]) != len(frontier)*f {
			t.Fatalf("hop %d: %d nodes, want %d", hop, len(layers[hop]), len(frontier)*f)
		}
		for i, seed := range frontier {
			onDead := cluster.ShardOf(seed, 2) == dead
			for _, got := range layers[hop][i*f : (i+1)*f] {
				if onDead && got != seed {
					t.Fatalf("hop %d: seed %v on the dead shard sampled %v, want a self-loop", hop, seed, got)
				}
				if !onDead && !adj[seed][got] {
					t.Fatalf("hop %d: seed %v on a healthy shard sampled %v, not a neighbour", hop, seed, got)
				}
			}
		}
		frontier = layers[hop]
	}
	if got := client.Metrics().DegradedShards.Load(); got != int64(len(fanouts)) {
		t.Fatalf("DegradedShards = %d, want %d (one per hop)", got, len(fanouts))
	}
}

// TestClusterFeaturesNeverDegrade: attribute reads on a stopped shard fail
// even with Options.Degraded on — fabricated features would silently poison
// training.
func TestClusterFeaturesNeverDegrade(t *testing.T) {
	const dead = 1
	client, nodes, _ := degradedCluster(t, 32, dead)

	var deadNode graph.VertexID
	for _, v := range nodes {
		if cluster.ShardOf(v, 2) == dead {
			deadNode = v
			break
		}
	}
	if _, err := view.NewCluster(client, 1).Features([]graph.VertexID{deadNode}, 4); err == nil {
		t.Fatal("Features on a stopped shard succeeded; attribute reads must not degrade")
	}
	if got := client.Metrics().DegradedShards.Load(); got != 0 {
		t.Fatalf("DegradedShards = %d after a Features call, want 0", got)
	}
}

// TestClusterSubgraphHopsIndependent: A -> {B1, B2}, each B -> {C1, C2},
// weights 1, fan-outs 1x1, sampled through a two-server cluster behind
// view.Cluster, one view per base seed. The client seeds hop h with
// seed+7919h and shard p with seed+p, so the two hops' generators are
// seeded a constant apart; over 4000 seeds the joint (B, C) counts must
// still follow the product distribution (chi-square, 3 degrees of freedom,
// p = 0.001).
func TestClusterSubgraphHopsIndependent(t *testing.T) {
	lc := cluster.NewLocalClusterOptions(2, cluster.LocalOptions{
		StoreFactory: func(int) (storage.TopologyStore, *kvstore.Store) {
			return storage.NewDynamicStore(storage.Options{}), kvstore.New()
		},
	})
	t.Cleanup(lc.Shutdown)
	client := lc.Client()
	a := graph.MakeVertexID(0, 1)
	bs := []graph.VertexID{graph.MakeVertexID(1, 10), graph.MakeVertexID(1, 11)}
	cs := []graph.VertexID{graph.MakeVertexID(2, 20), graph.MakeVertexID(2, 21)}
	var events []graph.Event
	for _, b := range bs {
		events = append(events, graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{Src: a, Dst: b, Type: 0, Weight: 1}})
		for _, c := range cs {
			events = append(events, graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{Src: b, Dst: c, Type: 1, Weight: 1}})
		}
	}
	if err := client.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	index := func(v graph.VertexID, of []graph.VertexID) int {
		for i, w := range of {
			if v == w {
				return i
			}
		}
		t.Fatalf("sampled %v, want one of %v", v, of)
		return 0
	}
	const n = 4000
	var joint [4]float64
	for seed := int64(0); seed < n; seed++ {
		layers, err := view.NewCluster(client, seed).SampleSubgraph([]graph.VertexID{a}, graph.MetaPath{0, 1}, []int{1, 1})
		if err != nil {
			t.Fatal(err)
		}
		joint[2*index(layers[0][0], bs)+index(layers[1][0], cs)]++
	}
	chi := 0.0
	for _, o := range joint {
		chi += (o - n/4) * (o - n/4) / (n / 4)
	}
	if chi > 16.27 {
		t.Fatalf("hops 1 and 2 are not independent: chi-square %.1f, counts (B,C) %v", chi, joint)
	}
}
