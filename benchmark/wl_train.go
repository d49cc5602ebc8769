package main

import (
	"fmt"
	"math/rand"
	"time"

	"platod2gl/internal/cluster"
	"platod2gl/internal/dataset"
	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
	"platod2gl/internal/pipeline"
	"platod2gl/internal/view"
)

// trainCluster is the closed-loop training workload: one GraphSAGE trainer
// fed by the prefetch pipeline through view.Cluster and the fan-out client
// from a two-shard cluster on loopback TCP.
type trainCluster struct {
	e      *env
	tb     *testbed
	client *cluster.Client
	tview  *tracedView // nil unless traced
	tr     *gnn.Trainer
	load   pipeline.Loader
	pm     *pipeline.Metrics
	nodes  []graph.VertexID
	rng    *rand.Rand
	steps  int
	losses []float64
}

const (
	trainShards  = 2
	forwardEvery = 8 // traced run: re-run Forward alone on one batch in this many
)

func (w *trainCluster) setup(e *env) error {
	w.e = e
	// The OGBN row of Table III scaled down: one Product-Product relation,
	// so the trainer's single relation reaches two hops.
	spec := scaled(dataset.OGBNSim(), e.sz.trainEvents)
	var err error
	if w.tb, err = bootCluster(e, trainShards, 1, false); err != nil {
		return err
	}
	w.client = w.tb.dial(e, tBuilder, e.seed)
	if err := load(w.client, dataset.NewGenerator(spec, dataset.BuildMix, e.seed), e.sz.trainEvents, 8192); err != nil {
		return err
	}
	n := int(spec.Relations[0].NumSrc)
	if w.nodes, err = pushFeatures(w.client, dataset.VTProduct, n, e.sz.dim, e.sz.classes, e.seed); err != nil {
		return err
	}

	cv := view.NewCluster(w.client, e.seed)
	var trainView, loadView view.GraphView = cv, cv.Prefetch()
	if e.traced() {
		w.tview = &tracedView{inner: loadView, tr: e.tr, tk: tBuilder}
		loadView = w.tview
	}
	w.rng = rand.New(rand.NewSource(e.seed + 2))
	model := gnn.NewModel(e.sz.dim, e.sz.hidden, e.sz.classes, w.rng)
	w.tr = gnn.NewTrainer(model, trainView, 0, e.sz.trainF1, e.sz.trainF2, 0.01)
	// The builder samples through the prefetch-class twin of the view and
	// shares the trainer's model, as platod2gl-train wires it.
	loader := *w.tr
	loader.View = loadView
	w.load = loader.SampleBatch
	if e.traced() {
		w.pm = &pipeline.Metrics{}
		w.load = func(seeds []graph.VertexID) (*gnn.Batch, error) {
			s := e.tr.open(kPipeBuild, tBuilder, 0)
			defer e.tr.close(s)
			return loader.SampleBatch(seeds)
		}
	}
	return nil
}

// batches cuts fresh shuffles of the vertex set into seed batches, enough of
// them that no drive runs out.
func (w *trainCluster) batches() [][]graph.VertexID {
	const want = 1 << 14
	var out [][]graph.VertexID
	for len(out) < want {
		out = append(out, pipeline.SeedBatches(w.nodes, w.e.sz.trainBatch, w.rng)...)
	}
	return out
}

func (w *trainCluster) drive(d time.Duration) *window {
	win := &window{extra: map[string]float64{}}
	tr := w.e.tr
	p := pipeline.Run(w.batches(), w.load, pipeline.Config{Depth: 4, Workers: 1, Metrics: w.pm})
	before, counted := w.pm.Snapshot(), w.tb.counts(w.client)
	start := time.Now()
	last := start
	var forwardNs, forwards int64
	until(d, func() {
		req := tr.open(kRequest, tLoad0, uint32(w.steps))
		nx := tr.open(kPipeNext, tLoad0, 0)
		r, ok := p.Next()
		tr.close(nx)
		win.attempted++
		if !ok || r.Err != nil {
			win.failed++
			tr.close(req)
			return
		}
		st := tr.open(kTrainStep, tLoad0, 0)
		loss := w.tr.TrainStep(r.Batch)
		tr.close(st)
		now := time.Now()
		win.lat = append(win.lat, timed{end: int64(now.Sub(start)), ms: float64(now.Sub(last)) / 1e6})
		last = now
		w.losses = append(w.losses, loss)
		w.steps++
		tr.close(req)
		if st >= 0 && w.steps%forwardEvery == 0 {
			t0 := time.Now()
			w.tr.Forward(r.Batch)
			forwardNs += int64(time.Since(t0))
			forwards++
			last = time.Now() // the replay is the benchmark's time, not the trainer's
		}
	})
	win.wall = time.Since(start)
	win.done = completions(win.lat, int64(w.e.sz.trainBatch))
	p.Close()
	p.Stop()
	win.extra["gnn.forward_ms"] = ratio(float64(forwardNs), float64(forwards)) / 1e6
	after := w.pm.Snapshot()
	hits, stalls := after.PrefetchHits-before.PrefetchHits, after.Stalls-before.Stalls
	win.extra["pipeline.hit_rate"] = ratio(float64(hits), float64(hits+stalls))
	counted.since(w.tb, w.client, win.extra)
	return win
}

// check holds training to what it is for: the loss has come down and the
// model classifies the vertices it trained on.
func (w *trainCluster) check(*window) []string {
	var bad []string
	tail := w.losses[len(w.losses)*4/5:]
	if len(tail) == 0 {
		return []string{"no training step completed"}
	}
	if l := mean(tail); !(l < w.e.sz.maxLoss) {
		bad = append(bad, fmt.Sprintf("mean loss over the last %d steps is %.4f, limit %.4f", len(tail), l, w.e.sz.maxLoss))
	}
	acc, err := w.tr.Accuracy(w.nodes[:min(len(w.nodes), 1024)])
	if err != nil {
		bad = append(bad, "accuracy: "+err.Error())
	} else if acc < w.e.sz.minAccuracy {
		bad = append(bad, fmt.Sprintf("seed accuracy %.3f, floor %.3f", acc, w.e.sz.minAccuracy))
	}
	return bad
}

func (w *trainCluster) bytesPerEdge() float64 { return w.tb.bytesPerEdge() }

func (w *trainCluster) layers(win *window, l *ledger, out map[string]float64) {
	steps := total(&l.n, kTrainStep)
	builds := total(&l.n, kPipeBuild)
	wall := float64(win.wall)
	out["pipeline.build_ms_per_batch"] = ratio(total(&l.dur, kPipeBuild), builds) / 1e6
	out["pipeline.stall_share"] = ratio(total(&l.dur, kPipeNext), wall)
	out["gnn.train_step_ms"] = ratio(total(&l.dur, kTrainStep), steps) / 1e6
	out["gnn.busy_share"] = ratio(total(&l.dur, kTrainStep), wall)
	clusterLayers(w.e, w.tb, w.tview, l, win, builds, tBuilder, out)
}

func (w *trainCluster) close() {
	if w.tb != nil {
		w.tb.close()
	}
}
