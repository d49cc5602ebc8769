// Training batches through the fused feature-and-label fetch: every backend
// and wrapper builds the batch the separate Features and Labels calls
// build, and a cluster batch costs three fan-outs.
package view_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
	"platod2gl/internal/obs"
	"platod2gl/internal/view"
)

const (
	batchDim     = 4
	batchClasses = 3
	batchF1      = 3
	batchF2      = 2
)

// batchSeeds are buildViews' first 16 vertices, two of them twice, and the
// isolated last one.
func batchSeeds(nodes []graph.VertexID) []graph.VertexID {
	seeds := append([]graph.VertexID{}, nodes[:16]...)
	return append(seeds, nodes[3], nodes[9], nodes[len(nodes)-1])
}

func batchTrainer(v view.GraphView) *gnn.Trainer {
	model := gnn.NewModel(batchDim, 8, batchClasses, rand.New(rand.NewSource(1)))
	return gnn.NewTrainer(model, v, 0, batchF1, batchF2, 0.01)
}

// separateBatch builds the batch the way SampleBatch did before labels rode
// the features' call: SampleBlock, then Labels of the seeds.
func separateBatch(t *testing.T, v view.GraphView, seeds []graph.VertexID) *gnn.Batch {
	t.Helper()
	b, err := gnn.SampleBlock(v, seeds, 0, batchF1, batchF2, batchDim)
	if err != nil {
		t.Fatal(err)
	}
	if b.Labels, err = v.Labels(seeds); err != nil {
		t.Fatal(err)
	}
	return b
}

// sameBatch fails t unless got and want hold the same samples, rows,
// feature bits and labels.
func sameBatch(t *testing.T, name string, got, want *gnn.Batch) {
	t.Helper()
	if !slices.Equal(got.Hop1, want.Hop1) || !slices.Equal(got.Hop2, want.Hop2) {
		t.Fatalf("%s: samples differ", name)
	}
	if !slices.Equal(got.Rows, want.Rows) || got.NSelf != want.NSelf {
		t.Fatalf("%s: rows %v (NSelf %d), want %v (NSelf %d)", name, got.Rows, got.NSelf, want.Rows, want.NSelf)
	}
	if got.X.Rows != want.X.Rows || got.X.Cols != want.X.Cols {
		t.Fatalf("%s: X is %dx%d, want %dx%d", name, got.X.Rows, got.X.Cols, want.X.Rows, want.X.Cols)
	}
	for i := range want.X.Data {
		if math.Float32bits(got.X.Data[i]) != math.Float32bits(want.X.Data[i]) {
			t.Fatalf("%s: X[%d] = %v, want %v", name, i, got.X.Data[i], want.X.Data[i])
		}
	}
	if !slices.Equal(got.Labels, want.Labels) {
		t.Fatalf("%s: labels %v, want %v", name, got.Labels, want.Labels)
	}
}

// graphViewOnly hides every method but GraphView's, so
// view.FeaturesLabels takes its fallback.
type graphViewOnly struct{ view.GraphView }

// TestSampleBatchMatchesSeparateCalls: through Trainer.SampleBatch, Local,
// a 2-shard Cluster, and a wrapper without FeaturesLabels over each build
// the X, Rows and Labels that SampleBlock plus Labels of the seeds build.
// The cluster's sampling cursor is rewound between the two builds, so both
// draw the same samples.
func TestSampleBatchMatchesSeparateCalls(t *testing.T) {
	local, remote, nodes, _, shutdown := buildViews(t)
	defer shutdown()
	seeds := batchSeeds(nodes)
	for _, c := range []struct {
		name  string
		v     view.GraphView
		fused bool
	}{
		{"local", local, true},
		{"cluster", remote, true},
		{"local fallback", graphViewOnly{local}, false},
		{"cluster fallback", graphViewOnly{remote}, false},
	} {
		if _, ok := c.v.(view.FeatureLabeler); ok != c.fused {
			t.Fatalf("%s: FeatureLabeler = %v, want %v", c.name, ok, c.fused)
		}
		pos := view.SamplePos(remote)
		got, err := batchTrainer(c.v).SampleBatch(seeds)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		view.SetSamplePos(remote, pos)
		sameBatch(t, c.name, got, separateBatch(t, c.v, seeds))
	}
}

// fusedRecorder counts which attribute calls reach it.
type fusedRecorder struct {
	view.GraphView
	fused, features, labels int
}

func (r *fusedRecorder) FeaturesLabels(nodes []graph.VertexID, dim int) ([]float32, []int32, error) {
	r.fused++
	return make([]float32, len(nodes)*dim), make([]int32, len(nodes)), nil
}

func (r *fusedRecorder) Features(nodes []graph.VertexID, dim int) ([]float32, error) {
	r.features++
	return r.GraphView.Features(nodes, dim)
}

func (r *fusedRecorder) Labels(nodes []graph.VertexID) ([]int32, error) {
	r.labels++
	return r.GraphView.Labels(nodes)
}

// TestWrappersForwardFeaturesLabels: Instrument and WithLatency pass the
// fused call through as one call, timed under its own label, and a wrapper
// over a view without it falls back to Features and Labels.
func TestWrappersForwardFeaturesLabels(t *testing.T) {
	local, _, nodes, _, shutdown := buildViews(t)
	defer shutdown()
	rec := &fusedRecorder{GraphView: local}
	m := &view.CallMetrics{}
	m.Register(obs.NewRegistry())
	if !slices.Contains(m.Latency.Labels(), "FeaturesLabels") {
		t.Fatalf("call labels %v lack FeaturesLabels", m.Latency.Labels())
	}
	wrapped := view.Instrument(view.WithLatency(rec, 0), m)
	if _, _, err := view.FeaturesLabels(wrapped, nodes[:5], batchDim); err != nil {
		t.Fatal(err)
	}
	if rec.fused != 1 || rec.features != 0 || rec.labels != 0 {
		t.Fatalf("fused %d, features %d, labels %d calls reached the view; want 1, 0, 0", rec.fused, rec.features, rec.labels)
	}
	if n := m.Latency.With("FeaturesLabels").Count(); n != 1 {
		t.Fatalf("%d FeaturesLabels calls timed, want 1", n)
	}

	plain := &fusedRecorder{GraphView: local}
	wrapped = view.Instrument(view.WithLatency(graphViewOnly{plain}, 0), m)
	x, labels, err := view.FeaturesLabels(wrapped, nodes[:5], batchDim)
	if err != nil {
		t.Fatal(err)
	}
	if plain.fused != 0 || plain.features != 1 || plain.labels != 1 {
		t.Fatalf("fallback: fused %d, features %d, labels %d calls; want 0, 1, 1", plain.fused, plain.features, plain.labels)
	}
	wantX, _ := local.Features(nodes[:5], batchDim)
	wantLabels, _ := local.Labels(nodes[:5])
	if !slices.Equal(x, wantX) || !slices.Equal(labels, wantLabels) {
		t.Fatalf("fallback gathered %v %v, want %v %v", x, labels, wantX, wantLabels)
	}
}

// TestClusterSampleBatchFanOuts: one SampleBatch through view.Cluster makes
// three fan-outs over the two shards — hop 1, hop 2, and features with
// labels — where separate Features and Labels calls made four.
func TestClusterSampleBatchFanOuts(t *testing.T) {
	_, client, nodes, _, shutdown := buildBackends(t)
	defer shutdown()
	m := client.Metrics()
	attempts := func(method string) int64 { return m.ClientLatency.With(method).Count() }
	sample0, features0 := attempts("SampleNeighbors"), attempts("Features")
	if _, err := batchTrainer(view.NewCluster(client, 1)).SampleBatch(batchSeeds(nodes)); err != nil {
		t.Fatal(err)
	}
	// Every fan-out of this batch reaches both shards, once each.
	sample, features := attempts("SampleNeighbors")-sample0, attempts("Features")-features0
	if sample != 2*2 || features != 1*2 {
		t.Fatalf("one batch made %d SampleNeighbors and %d Features shard calls, want 4 and 2 (3 fan-outs)", sample, features)
	}
}
