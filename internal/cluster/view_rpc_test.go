// Tests for the GraphView-facing RPC surface: the labels round-trip added
// to the Features RPC, the Sources fan-out, and duplicate-id coalescing in
// the sampling, feature, label and degree payloads.
package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"platod2gl/internal/core"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

// TestSetFeaturesRejectsMismatchedLabels: a label list that is neither
// empty nor one per node is refused with the server's error before any
// shard is written, instead of indexing past its end or dropping the extra
// labels.
func TestSetFeaturesRejectsMismatchedLabels(t *testing.T) {
	client, shutdown := newCluster(t, 2)
	defer shutdown()
	nodes := []graph.VertexID{graph.MakeVertexID(0, 1), graph.MakeVertexID(0, 2), graph.MakeVertexID(0, 3)}
	data := []float32{1, 2, 3}
	for _, labels := range [][]int32{{1}, {1, 2, 3, 4}} {
		err := client.SetFeatures(nodes, 1, data, labels)
		if want := fmt.Sprintf("cluster: %d labels for %d nodes", len(labels), len(nodes)); err == nil || err.Error() != want {
			t.Fatalf("SetFeatures(3 nodes, %d labels) = %v, want %q", len(labels), err, want)
		}
	}
	got, _, err := client.FeaturesLabels(nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []float32{0, 0, 0}) {
		t.Fatalf("refused writes stored rows %v", got)
	}
}

func TestFeaturesLabelsRoundTrip(t *testing.T) {
	client, shutdown := newCluster(t, 2)
	defer shutdown()
	const dim = 3
	nodes := []graph.VertexID{
		graph.MakeVertexID(0, 1), graph.MakeVertexID(0, 2),
		graph.MakeVertexID(0, 3), graph.MakeVertexID(0, 4),
	}
	data := make([]float32, len(nodes)*dim)
	labels := make([]int32, len(nodes))
	for i := range nodes {
		for d := 0; d < dim; d++ {
			data[i*dim+d] = float32(i*10 + d)
		}
		labels[i] = int32(i % 3)
	}
	if err := client.SetFeatures(nodes, dim, data, labels); err != nil {
		t.Fatal(err)
	}

	// One fan-out returns both features and labels, in node order.
	gotData, gotLabels, err := client.FeaturesLabels(nodes, dim)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if gotData[i] != data[i] {
			t.Fatalf("feature[%d] = %v, want %v", i, gotData[i], data[i])
		}
	}
	for i := range labels {
		if gotLabels[i] != labels[i] {
			t.Fatalf("label[%d] = %d, want %d", i, gotLabels[i], labels[i])
		}
	}

	// Labels-only read skips the feature payload.
	_, onlyLabels, err := client.FeaturesLabels(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range labels {
		if onlyLabels[i] != labels[i] {
			t.Fatalf("Labels[%d] = %d, want %d", i, onlyLabels[i], labels[i])
		}
	}

	// Unknown vertices keep the dense conventions: zero rows, label 0.
	unknown := []graph.VertexID{graph.MakeVertexID(7, 99)}
	d, l, err := client.FeaturesLabels(unknown, dim)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range d {
		if v != 0 {
			t.Fatalf("unknown feature[%d] = %v", i, v)
		}
	}
	if l[0] != 0 {
		t.Fatalf("unknown label = %d", l[0])
	}
}

func TestSourcesAcrossShards(t *testing.T) {
	client, shutdown := newCluster(t, 3)
	defer shutdown()
	var events []graph.Event
	want := map[graph.VertexID]bool{}
	for i := uint64(0); i < 40; i++ {
		src := graph.MakeVertexID(0, i)
		want[src] = true
		events = append(events, graph.Event{
			Kind:      graph.AddEdge,
			Edge:      graph.Edge{Src: src, Dst: graph.MakeVertexID(1, i), Type: 2, Weight: 1},
			Timestamp: int64(i),
		})
	}
	// An edge of a different type must not surface under type 2.
	events = append(events, graph.Event{
		Kind: graph.AddEdge,
		Edge: graph.Edge{Src: graph.MakeVertexID(0, 999), Dst: 1, Type: 5, Weight: 1},
	})
	if err := client.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	srcs, err := client.Sources(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != len(want) {
		t.Fatalf("Sources returned %d vertices, want %d", len(srcs), len(want))
	}
	for i, s := range srcs {
		if !want[s] {
			t.Fatalf("unexpected source %v", s)
		}
		if i > 0 && srcs[i-1] >= s {
			t.Fatalf("Sources not sorted ascending at %d: %v >= %v", i, srcs[i-1], s)
		}
	}
}

func TestSampleNeighborsCoalescesDuplicateSeeds(t *testing.T) {
	client, shutdown := newCluster(t, 2)
	defer shutdown()
	var events []graph.Event
	for i := uint64(0); i < 8; i++ {
		src := graph.MakeVertexID(0, i)
		for j := uint64(0); j < 4; j++ {
			events = append(events, graph.Event{
				Kind: graph.AddEdge,
				Edge: graph.Edge{Src: src, Dst: graph.MakeVertexID(1, 100+j), Weight: 1},
			})
		}
	}
	if err := client.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}

	// 3 distinct seeds, each repeated 4 times.
	distinct := []graph.VertexID{
		graph.MakeVertexID(0, 0), graph.MakeVertexID(0, 1), graph.MakeVertexID(0, 2),
	}
	var seeds []graph.VertexID
	for r := 0; r < 4; r++ {
		seeds = append(seeds, distinct...)
	}
	const fanout = 5
	before := client.Metrics().Snapshot()
	out, err := client.SampleNeighbors(seeds, 0, fanout, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(seeds)*fanout {
		t.Fatalf("result length %d, want %d", len(out), len(seeds)*fanout)
	}
	// Every occurrence of a seed shares the one coalesced sample block.
	for i, s := range seeds {
		first := -1
		for j, s2 := range seeds[:i] {
			if s2 == s {
				first = j
				break
			}
		}
		if first < 0 {
			continue
		}
		for k := 0; k < fanout; k++ {
			if out[i*fanout+k] != out[first*fanout+k] {
				t.Fatalf("seed %v occurrence %d diverged from occurrence %d at slot %d", s, i, first, k)
			}
		}
	}
	// All samples are genuine out-neighbors (dst range 100..103).
	for i, v := range out {
		vt, idx := v.Type(), v.Local()
		if vt != 1 || idx < 100 || idx > 103 {
			t.Fatalf("sample[%d] = %v not a neighbor", i, v)
		}
	}
	after := client.Metrics().Snapshot()
	dups := int64(len(seeds) - len(distinct))
	if got := after.CoalescedSeeds - before.CoalescedSeeds; got != dups {
		t.Fatalf("CoalescedSeeds += %d, want %d", got, dups)
	}
	wantBytes := dups * 8 * int64(1+fanout)
	if got := after.CoalescedBytes - before.CoalescedBytes; got != wantBytes {
		t.Fatalf("CoalescedBytes += %d, want %d", got, wantBytes)
	}

	// SampleSubgraph frontiers repeat vertices heavily; the hop-2 fan-out
	// must keep coalescing (counter strictly grows).
	layers, err := client.SampleSubgraph(distinct, graph.MetaPath{0, 0}, []int{4, 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(layers[0]) != len(distinct)*4 || len(layers[1]) != len(distinct)*4*2 {
		t.Fatalf("layer sizes %d/%d", len(layers[0]), len(layers[1]))
	}
}

// TestFeaturesLabelsDegreeCoalesceDuplicateIDs asks for a 10×-duplicated id
// list, shuffled, and checks every answer against the same call on the
// distinct ids one at a time: coalescing must be invisible except in
// CoalescedRows.
func TestFeaturesLabelsDegreeCoalesceDuplicateIDs(t *testing.T) {
	client, shutdown := newCluster(t, 3)
	defer shutdown()
	const dim, reps = 4, 10
	var distinct []graph.VertexID
	var events []graph.Event
	for i := uint64(0); i < 12; i++ {
		id := graph.MakeVertexID(0, i)
		distinct = append(distinct, id)
		for j := uint64(0); j < i%5; j++ {
			events = append(events, graph.Event{
				Kind: graph.AddEdge,
				Edge: graph.Edge{Src: id, Dst: graph.MakeVertexID(1, j), Weight: 1},
			})
		}
	}
	// One id the cluster has never seen: zero row, label 0, degree 0.
	distinct = append(distinct, graph.MakeVertexID(7, 99))
	if err := client.ApplyBatch(events); err != nil {
		t.Fatal(err)
	}
	data := make([]float32, 12*dim)
	labels := make([]int32, 12)
	for i := range data {
		data[i] = float32(i) + 0.5
	}
	for i := range labels {
		labels[i] = int32(i%3 + 1)
	}
	if err := client.SetFeatures(distinct[:12], dim, data, labels); err != nil {
		t.Fatal(err)
	}

	ids := make([]graph.VertexID, 0, reps*len(distinct))
	for r := 0; r < reps; r++ {
		ids = append(ids, distinct...)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	dups := int64(len(ids) - len(distinct))

	type answer struct {
		row   []float32
		label int32
		deg   int
	}
	want := map[graph.VertexID]answer{}
	for _, id := range distinct {
		row, lbl, err := client.FeaturesLabels([]graph.VertexID{id}, dim)
		if err != nil {
			t.Fatal(err)
		}
		deg, err := client.Degree([]graph.VertexID{id}, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = answer{row, lbl[0], deg[0]}
	}

	rowsMoved := func(name string, call func() error) {
		t.Helper()
		before := client.Metrics().Snapshot()
		if err := call(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after := client.Metrics().Snapshot()
		if got := after.CoalescedRows - before.CoalescedRows; got != dups {
			t.Fatalf("%s: CoalescedRows += %d, want %d", name, got, dups)
		}
		if after.CoalescedSeeds != before.CoalescedSeeds {
			t.Fatalf("%s: CoalescedSeeds moved by %d", name, after.CoalescedSeeds-before.CoalescedSeeds)
		}
	}
	checkRows := func(name string, got []float32) {
		t.Helper()
		for i, id := range ids {
			for d, v := range want[id].row {
				if got[i*dim+d] != v {
					t.Fatalf("%s: id %v (index %d) col %d = %v, want %v", name, id, i, d, got[i*dim+d], v)
				}
			}
		}
	}
	checkLabels := func(name string, got []int32) {
		t.Helper()
		for i, id := range ids {
			if got[i] != want[id].label {
				t.Fatalf("%s: id %v (index %d) label %d, want %d", name, id, i, got[i], want[id].label)
			}
		}
	}

	rowsMoved("Features", func() error {
		got, err := client.Features(ids, dim)
		if err == nil {
			checkRows("Features", got)
		}
		return err
	})
	rowsMoved("FeaturesLabels", func() error {
		got, lbl, err := client.FeaturesLabels(ids, dim)
		if err == nil {
			checkRows("FeaturesLabels", got)
			checkLabels("FeaturesLabels", lbl)
		}
		return err
	})
	rowsMoved("Labels", func() error {
		_, lbl, err := client.FeaturesLabels(ids, 0)
		if err == nil {
			checkLabels("Labels", lbl)
		}
		return err
	})
	rowsMoved("Degree", func() error {
		deg, err := client.Degree(ids, 0)
		if err == nil {
			for i, id := range ids {
				if deg[i] != want[id].deg {
					t.Fatalf("Degree: id %v (index %d) = %d, want %d", id, i, deg[i], want[id].deg)
				}
			}
		}
		return err
	})
}

// perSeedSample is the server's sampling loop before it shared the local
// sampler's frontier path: one generator seeded seed+1, one SampleNeighbors
// call per seed in order, and the seed itself in the slots of a seed
// without out-neighbors.
func perSeedSample(store *storage.DynamicStore, seeds []graph.VertexID, et graph.EdgeType, fanout int, seed int64) []graph.VertexID {
	rng := rand.New(rand.NewSource(seed + 1))
	out := make([]graph.VertexID, len(seeds)*fanout)
	for i, s := range seeds {
		base := i * fanout
		got := store.SampleNeighbors(s, et, fanout, rng, out[base:base])
		for j := len(got); j < fanout; j++ {
			out[base+j] = s
		}
	}
	return out
}

// TestServiceSampleNeighborsMatchesPerSeedLoop: the client sends distinct
// seeds, and for those the server's reply is bit for bit what the per-seed
// loop draws under the same request seed, over trees of one and of several
// leaves, absent seeds, an absent relation and fan-outs 1 to 25.
func TestServiceSampleNeighborsMatchesPerSeedLoop(t *testing.T) {
	store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16, Compress: true}})
	rng := rand.New(rand.NewSource(3))
	var seeds []graph.VertexID
	for i := uint64(0); i < 300; i++ {
		src := graph.MakeVertexID(0, i)
		seeds = append(seeds, src)
		if i%7 == 0 {
			continue // no out-edges: a self-loop block
		}
		for d := 0; d < 1+rng.Intn(120); d++ {
			store.AddEdge(graph.Edge{Src: src, Dst: graph.MakeVertexID(1, uint64(rng.Intn(5000))), Weight: rng.Float64() + 0.01})
		}
	}
	rng.Shuffle(len(seeds), func(i, j int) { seeds[i], seeds[j] = seeds[j], seeds[i] })
	svc := NewService(store, kvstore.New())
	for _, et := range []graph.EdgeType{0, 3} {
		for _, fanout := range []int{1, 2, 10, 25} {
			for _, seed := range []int64{0, 42} {
				args := &SampleArgs{Seeds: seeds, Type: et, Fanout: fanout, Seed: seed}
				var reply SampleReply
				if err := svc.sampleNeighbors(args, &reply); err != nil {
					t.Fatal(err)
				}
				want := perSeedSample(store, seeds, et, fanout, seed)
				if !slices.Equal(reply.Neighbors, want) {
					t.Fatalf("relation %d, fan-out %d, seed %d: the reply differs from the per-seed loop", et, fanout, seed)
				}
			}
		}
	}
}
