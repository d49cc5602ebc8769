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
	var front graph.Grouping
	for hop, f := range fanouts {
		frontier := front.Frontier(nodes, layers[:hop])
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
