package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"platod2gl/internal/checkpoint"
	"platod2gl/internal/cluster"
	"platod2gl/internal/dataset"
	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
	"platod2gl/internal/serve"
	"platod2gl/internal/view"
)

// serveKNN is the latency-limited serving workload: open-loop KNN queries
// (a fresh forward pass through view.Cluster plus an HNSW search) at a ladder
// of fixed rates, then a closed-loop stretch that measures capacity, all
// while a paced writer churns the graph the queries sample from.
//
// The index refresher is not running during the window. At this commit any
// continuous churn makes it re-embed every indexed vertex each round, and one
// round of upserts tombstones half the index, which triggers a compaction that
// blocks every search for seconds: queries fail, and whether one lands in the
// measured rung decides the run. The traced run measures exactly that after
// its window (refreshProbe) and reports it per layer, never gating.
type serveKNN struct {
	e       *env
	tb      *testbed
	gen     *dataset.Generator
	front   *cluster.Client
	churn   *cluster.Client
	tview   *tracedView
	eng     *serve.Engine
	metrics *serve.Metrics
	ids     []graph.VertexID // the indexed vertices queries are drawn from
	back    *cluster.Client
	rng     *rand.Rand

	queries [][]float32 // a sample of the embeddings KNN returned, for replay
}

const (
	serveShards = 2
	keepQueries = 512
)

func (w *serveKNN) setup(e *env) error {
	w.e = e
	spec := scaled(dataset.OGBNSim(), e.sz.serveEvents)
	var err error
	if w.tb, err = bootCluster(e, serveShards, 1, false); err != nil {
		return err
	}
	w.front = w.tb.dial(e, tLoad0, e.seed)
	w.back = w.tb.dial(e, tBackground, e.seed+1)
	w.churn = w.tb.dial(e, tChurn, e.seed+2)
	w.gen = dataset.NewGenerator(spec, dataset.DynamicMix, e.seed)
	if err := load(w.front, w.gen, e.sz.serveEvents, 8192); err != nil {
		return err
	}
	if _, err := pushFeatures(w.front, dataset.VTProduct, int(spec.Relations[0].NumSrc), e.sz.dim, e.sz.classes, e.seed); err != nil {
		return err
	}

	cv := view.NewCluster(w.front, e.seed)
	cv.SetCallBudget(e.sz.knnDeadline)
	var gv view.GraphView = cv
	if e.traced() {
		w.tview = &tracedView{inner: cv, tr: e.tr, tk: tLoad0}
		gv = w.tview
	}
	w.rng = rand.New(rand.NewSource(e.seed + 3))
	// The weights are a seeded initialisation, not a trained model: what is
	// measured is the cost of serving, which does not depend on them.
	model := gnn.NewModel(e.sz.dim, e.sz.hidden, e.sz.classes, w.rng)
	w.metrics = &serve.Metrics{}
	w.eng, err = serve.New(serve.Config{
		View:  gv,
		State: checkpoint.Capture(checkpoint.Manifest{Seed: e.seed}, model.Params(), nil),
		Rel:   0, F1: e.sz.serveF1, F2: e.sz.serveF2,
		Workers: e.procs, Timeout: e.sz.knnDeadline,
		IndexSeed: e.seed, Metrics: w.metrics,
	})
	if err != nil {
		return err
	}
	// Bulk indexing is not an interactive request: it gets a minute.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := w.eng.Warm(ctx, e.sz.warmBatch); err != nil {
		return fmt.Errorf("warm index: %w", err)
	}
	w.eng.Index().ForEach(func(id uint64, _ []float32) bool {
		w.ids = append(w.ids, graph.VertexID(id))
		return true
	})
	sort.Slice(w.ids, func(i, j int) bool { return w.ids[i] < w.ids[j] })
	if len(w.ids) <= e.sz.serveK {
		return fmt.Errorf("serve-knn: only %d vertices were indexed", len(w.ids))
	}

	return nil
}

// knn issues one query due at the given time and returns the embedding it
// was answered from. A query is late, and counts as failed, when its answer
// arrives more than the deadline after it was due.
func (w *serveKNN) knn(id graph.VertexID, due time.Time) ([]float32, error) {
	ctx, cancel := context.WithDeadline(context.Background(), due.Add(w.e.sz.knnDeadline))
	defer cancel()
	s := w.e.tr.open(kKNN, tLoad0, 0)
	hits, vec, err := w.eng.KNN(ctx, id, w.e.sz.serveK)
	w.e.tr.close(s)
	if err != nil {
		return nil, err
	}
	if len(hits) != w.e.sz.serveK {
		return nil, fmt.Errorf("knn returned %d hits, want %d", len(hits), w.e.sz.serveK)
	}
	if time.Since(due) > w.e.sz.knnDeadline {
		return nil, context.DeadlineExceeded
	}
	return vec, nil
}

// startChurn begins paced batches of updates from the stream the graph was
// built from; the returned function stops them and waits for the writer.
func (w *serveKNN) startChurn() (stop func()) {
	halt, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		gap := time.Duration(float64(w.e.sz.churnBatch) / w.e.sz.churnRate * float64(time.Second))
		tick := time.NewTicker(gap)
		defer tick.Stop()
		for {
			select {
			case <-halt:
				return
			case <-tick.C:
				// A bi-directed spec emits two events per step.
				w.churn.ApplyBatch(w.gen.Next(w.e.sz.churnBatch / 2))
			}
		}
	}()
	return func() { close(halt); <-done }
}

// refreshProbe runs the refresher against the churn for d while queries
// arrive at the second rung's rate, and reports what they saw.
func (w *serveKNN) refreshProbe(d time.Duration, out map[string]float64) {
	ref, err := serve.NewRefresher(serve.RefreshConfig{
		Engine: w.eng, Source: serve.ClusterChanges{Client: w.back},
		View:     view.NewCluster(w.back, w.e.seed+1).Background(),
		Interval: w.e.sz.refreshEvery, Metrics: w.metrics,
	})
	if err != nil {
		return
	}
	compacted := w.metrics.Ann.Compactions.Load()
	halt := w.startChurn()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ref.Run(ctx)
	}()
	due := poissonSchedule(w.rng, w.e.sz.serveRates[1], d)
	t0 := time.Now()
	arrivals := runOpenLoop(t0, due, 1024, func(i int) error {
		_, err := w.knn(w.ids[(i*61)%len(w.ids)], t0.Add(due[i]))
		return err
	})
	cancel()
	<-done
	halt()
	var obs []timed
	fails := 0
	for _, a := range arrivals {
		obs = append(obs, timed{ms: float64(a.latency()) / 1e6})
		if a.err != nil {
			fails++
		}
	}
	out["serve.refresh_p99_ms"] = percentile(latencies(obs), 0.99)
	out["serve.refresh_fail_share"] = ratio(float64(fails), float64(len(arrivals)))
	out["serve.refresh_lag_s"] = w.metrics.Snapshot().RefreshLagP99Ns / 1e9
	out["ann.compactions"] = float64(w.metrics.Ann.Compactions.Load() - compacted)
}

func (w *serveKNN) drive(d time.Duration) *window {
	win := &window{extra: map[string]float64{}}
	tr := w.e.tr
	counted := w.tb.counts(w.front)
	shedBefore := w.metrics.Shed.Load()
	start := time.Now()

	halt := w.startChurn()
	defer halt()

	// The first half of the drive climbs the ladder, the second half is the
	// closed loop that throughput and the latency percentiles are read from.
	ladder := d / 2
	sloRate, met := 0.0, true
	for rung, rate := range w.e.sz.serveRates {
		span := ladder / time.Duration(len(w.e.sz.serveRates))
		due := poissonSchedule(w.rng, rate, span)
		ids := make([]graph.VertexID, len(due))
		for i := range ids {
			ids[i] = w.ids[w.rng.Intn(len(w.ids))]
		}
		t0 := time.Now()
		var mu sync.Mutex
		arrivals := runOpenLoop(t0, due, 1024, func(i int) error {
			vec, err := w.knn(ids[i], t0.Add(due[i]))
			if err == nil && i%8 == 0 {
				mu.Lock()
				if len(w.queries) < keepQueries {
					w.queries = append(w.queries, vec)
				}
				mu.Unlock()
			}
			return err
		})
		var obs []timed
		var fails int64
		for i, a := range arrivals {
			obs = append(obs, timed{end: int64(a.done), ms: float64(a.latency()) / 1e6})
			win.lagMs = append(win.lagMs, float64(a.lateness())/1e6)
			if a.err != nil {
				fails++
			}
			if tr != nil {
				tr.add(kRequest, tLoad0, uint32(i), int64(t0.Add(a.due).Sub(tr.t0)), int64(t0.Add(a.done).Sub(tr.t0)))
			}
		}
		win.attempted += int64(len(arrivals))
		win.failed += fails
		lat := latencies(obs)
		win.extra[fmt.Sprintf("serve.rung%d_p50_ms", rung+1)] = percentile(lat, 0.50)
		win.extra[fmt.Sprintf("serve.rung%d_p99_ms", rung+1)] = percentile(lat, 0.99)
		// A rung meets the limit when its p99 does, almost nothing failed, and
		// its last quarter is no slower: a backlog that grows shows there.
		tailObs := obs[len(obs)*3/4:]
		ok := percentile(lat, 0.99) <= float64(w.e.sz.knnLimit)/1e6 &&
			ratio(float64(fails), float64(len(arrivals))) <= 0.001 &&
			percentile(latencies(tailObs), 0.99) <= float64(w.e.sz.knnLimit)/1e6
		if met = met && ok && len(arrivals) > 0; met {
			sloRate = rate
		}
	}
	win.extra["serve.slo_rate_per_s"] = sloRate

	// Closed loop: as many callers as the engine has workers, each sending its
	// next query when the last returns. The gated latencies are taken here and
	// not on the ladder: at the ladder's rates the processors idle between
	// queries, and what a query then waits for is mostly the host waking them,
	// which varied by a factor of two between runs of the same binary.
	closed := d - ladder
	t0 := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < w.e.procs; c++ {
		rng := rand.New(rand.NewSource(w.rng.Int63()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n, fails int64
			var waits []timed
			until(closed, func() {
				at := time.Now()
				req := tr.open(kRequest, tLoad0, uint32(n))
				_, err := w.knn(w.ids[rng.Intn(len(w.ids))], at)
				tr.close(req)
				n++
				if err != nil {
					fails++
					return
				}
				waits = append(waits, timed{int64(time.Since(t0)), float64(time.Since(at)) / 1e6})
			})
			mu.Lock()
			win.lat = append(win.lat, waits...)
			win.attempted += n
			win.failed += fails
			mu.Unlock()
		}()
	}
	wg.Wait()
	win.measured = time.Since(t0)
	win.done = completions(win.lat, 1)

	win.wall = time.Since(start)
	win.extra["serve.shed"] = float64(w.metrics.Shed.Load() - shedBefore)
	counted.since(w.tb, w.front, win.extra)
	return win
}

// check requires the index to find what a brute-force scan of the same
// vectors finds: recall@10 over a fixed sample of indexed vectors. A hit
// counts when it lies within the true k-th distance, so ties do not matter.
func (w *serveKNN) check(win *window) []string {
	recall := w.recall()
	win.extra["ann.recall_at_10"] = recall
	if recall < w.e.sz.minRecall {
		return []string{fmt.Sprintf("recall@%d is %.3f against brute force, floor %.2f", w.e.sz.serveK, recall, w.e.sz.minRecall)}
	}
	return nil
}

func (w *serveKNN) recall() float64 {
	type point struct {
		id  uint64
		vec []float32
	}
	var pts []point
	w.eng.Index().ForEach(func(id uint64, vec []float32) bool {
		pts = append(pts, point{id, append([]float32(nil), vec...)})
		return true
	})
	sort.Slice(pts, func(i, j int) bool { return pts[i].id < pts[j].id })
	k := w.e.sz.serveK
	hits, want := 0, 0
	dists := make([]float64, 0, len(pts))
	for q := 0; q < 100; q++ {
		query := pts[(q*31)%len(pts)]
		dists = dists[:0]
		for _, p := range pts {
			if p.id != query.id {
				dists = append(dists, sqDist(query.vec, p.vec))
			}
		}
		sort.Float64s(dists)
		cutoff := dists[k-1] + 1e-9
		got, err := w.eng.Index().Search(query.vec, k+1)
		if err != nil {
			return 0
		}
		found := 0
		for _, h := range got {
			if h.ID != query.id && float64(h.Dist) <= cutoff && found < k {
				found++
			}
		}
		hits += found
		want += k
	}
	return ratio(float64(hits), float64(want))
}

func sqDist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

func (w *serveKNN) bytesPerEdge() float64 { return w.tb.bytesPerEdge() }

func (w *serveKNN) layers(win *window, l *ledger, out map[string]float64) {
	queries := total(&l.n, kKNN)
	clusterLayers(w.e, w.tb, w.tview, l, win, queries, tLoad0, out)

	// Replays, outside the window: the index alone on the embeddings KNN
	// returned, and upserts of vectors the index already holds.
	ix := w.eng.Index()
	var searchNs int64
	for _, q := range w.queries {
		t0 := time.Now()
		ix.Search(q, w.e.sz.serveK+1)
		searchNs += int64(time.Since(t0))
	}
	searchUs := ratio(float64(searchNs), float64(len(w.queries))) / 1e3
	var insertNs, inserts int64
	for i := 0; i < 200 && i < len(w.ids); i++ {
		id := uint64(w.ids[(i*37)%len(w.ids)])
		vec, ok := ix.Vector(id)
		if !ok {
			continue
		}
		t0 := time.Now()
		ix.Insert(id, vec)
		insertNs += int64(time.Since(t0))
		inserts++
	}
	out["ann.search_us"] = searchUs
	out["ann.insert_us"] = ratio(float64(insertNs), float64(inserts)) / 1e3
	// What a query spends outside the view and outside the index: admission,
	// the forward pass, assembling the answer.
	self := ratio(total(&l.self, kKNN), queries)/1e3 - searchUs
	out["serve.knn_self_us"] = self
	// The forward pass alone: Embed, which is KNN without the search, less
	// the time its two view calls take.
	var forwardNs int64
	const embeds = 100
	for i := 0; i < embeds; i++ {
		id := w.ids[(i*53)%len(w.ids)]
		before := w.tview.busy.Load()
		t0 := time.Now()
		w.eng.Embed(context.Background(), []graph.VertexID{id})
		forwardNs += int64(time.Since(t0)) - (w.tview.busy.Load() - before)
	}
	out["gnn.forward_ms"] = float64(forwardNs) / embeds / 1e6
	w.refreshProbe(win.wall/2, out)
}

func (w *serveKNN) close() {
	if w.tb != nil {
		w.tb.close()
	}
}
