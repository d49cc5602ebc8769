package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"platod2gl/internal/checkpoint"
	"platod2gl/internal/cluster"
	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/sampler"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// world is the shared test universe: the synthetic graph as raw data (for
// pushing to a cluster), its adjacency (the oracle for top-k checks), label
// lookup, and a trained checkpoint directory.
type world struct {
	nodes  []graph.VertexID
	events []graph.Event
	feats  []float32
	labels map[graph.VertexID]int32
	adj    map[graph.VertexID]map[graph.VertexID]bool
	ckpt   string
	cfg    config
}

// newWorld synthesizes the homophilous graph with the training binary's
// construction, trains a small checkpoint over a local copy, and returns
// everything a serving test needs.
func newWorld(t *testing.T, nodes, classes, dim, degree int, seed int64) *world {
	t.Helper()
	cfg := config{nodes: nodes, classes: classes, dim: dim, degree: degree, seed: seed, f1: 4, f2: 3}
	staging := kvstore.New()
	dataset.AssignFeatures(staging, 0, uint64(nodes), dim, classes, 2.0, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	byClass := make([][]graph.VertexID, classes)
	ids := make([]graph.VertexID, nodes)
	labels := make(map[graph.VertexID]int32, nodes)
	for i := range ids {
		ids[i] = graph.MakeVertexID(0, uint64(i))
		l, _ := staging.Label(ids[i])
		labels[ids[i]] = l
		byClass[l] = append(byClass[l], ids[i])
	}
	var events []graph.Event
	adj := make(map[graph.VertexID]map[graph.VertexID]bool, nodes)
	for _, id := range ids {
		l, _ := staging.Label(id)
		peers := byClass[l]
		for j := 0; j < degree; j++ {
			dst := peers[rng.Intn(len(peers))]
			if rng.Intn(4) == 0 {
				dst = ids[rng.Intn(nodes)]
			}
			events = append(events, graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{Src: id, Dst: dst, Weight: 1}})
			if adj[id] == nil {
				adj[id] = make(map[graph.VertexID]bool)
			}
			adj[id][dst] = true
		}
	}
	w := &world{
		nodes: ids, events: events,
		feats:  staging.GatherFeatures(ids, dim),
		labels: labels, adj: adj,
		ckpt: t.TempDir(), cfg: cfg,
	}
	w.train(t)
	return w
}

// train fits a 2-layer model over a local copy of the world and writes one
// checkpoint — the artifact platod2gl-serve boots from.
func (w *world) train(t *testing.T) {
	t.Helper()
	store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Compress: true}})
	store.ApplyBatch(w.events)
	attrs := kvstore.New()
	for i, id := range w.nodes {
		attrs.SetFeatures(id, w.feats[i*w.cfg.dim:(i+1)*w.cfg.dim])
		attrs.SetLabel(id, w.labels[id])
	}
	gv := view.NewLocal(store, attrs, sampler.Options{Parallelism: 2, Seed: w.cfg.seed})
	rng := rand.New(rand.NewSource(w.cfg.seed + 2))
	model := gnn.NewModel(w.cfg.dim, 16, w.cfg.classes, rng)
	tr := gnn.NewTrainer(model, gv, 0, w.cfg.f1, w.cfg.f2, 0.02)
	for e := 0; e < 3; e++ {
		if _, err := tr.TrainEpoch(e, w.nodes, 64, rng); err != nil {
			t.Fatalf("train epoch %d: %v", e, err)
		}
	}
	st := checkpoint.Capture(checkpoint.Manifest{Seed: w.cfg.seed}, model.Params(), nil)
	if _, err := checkpoint.Save(w.ckpt, st, checkpoint.SaveOptions{Keep: 1}); err != nil {
		t.Fatalf("save checkpoint: %v", err)
	}
}

// startTCPCluster boots n live graph servers on loopback TCP, loads the
// world into them, and returns the addresses plus a loader client for churn.
func (w *world) startTCPCluster(t *testing.T, n int) ([]string, *cluster.Client) {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		svc := cluster.NewService(
			storage.NewDynamicStore(storage.Options{Tree: core.Options{Compress: true}}),
			kvstore.New(),
		)
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		addrs[i] = lis.Addr().String()
		srv := cluster.NewServer(svc)
		go srv.Serve(lis)
		t.Cleanup(func() { lis.Close() })
	}
	client, err := cluster.Dial(addrs, cluster.Options{})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	if err := client.ApplyBatch(w.events); err != nil {
		t.Fatalf("push edges: %v", err)
	}
	labels := make([]int32, len(w.nodes))
	for i, id := range w.nodes {
		labels[i] = w.labels[id]
	}
	if err := client.SetFeatures(w.nodes, w.cfg.dim, w.feats, labels); err != nil {
		t.Fatalf("push features: %v", err)
	}
	return addrs, client
}

// serveHandle is one running run() invocation.
type serveHandle struct {
	ready readyInfo
	stop  chan struct{}
	done  chan error
	out   *strings.Builder
}

// startServe launches run in a goroutine and waits for the ready hook.
func startServe(t *testing.T, cfg config) *serveHandle {
	t.Helper()
	h := &serveHandle{stop: make(chan struct{}), done: make(chan error, 1), out: &strings.Builder{}}
	readyCh := make(chan readyInfo, 1)
	cfg.onReady = func(r readyInfo) { readyCh <- r }
	cfg.stop = h.stop
	go func() { h.done <- run(cfg, h.out) }()
	select {
	case h.ready = <-readyCh:
	case err := <-h.done:
		t.Fatalf("serve exited before ready: %v\n%s", err, h.out.String())
	case <-time.After(60 * time.Second):
		t.Fatalf("serve never became ready\n%s", h.out.String())
	}
	return h
}

// shutdown closes the stop hook and waits for a clean exit.
func (h *serveHandle) shutdown(t *testing.T) {
	t.Helper()
	close(h.stop)
	select {
	case err := <-h.done:
		if err != nil {
			t.Fatalf("serve shutdown: %v\n%s", err, h.out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("serve did not shut down\n%s", h.out.String())
	}
}

// noKeepAliveClient keeps the goroutine-leak check honest: idle keep-alive
// connections would otherwise pin client-side goroutines past shutdown.
func noKeepAliveClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   30 * time.Second,
	}
}

func getJSON(t *testing.T, hc *http.Client, url string, into any) int {
	t.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitGoroutineBaseline polls until the goroutine count settles back near
// the baseline, failing with a stack dump on timeout.
func waitGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d > baseline %d+3\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestServeSmokeCluster is the CI serve-smoke drill: train a tiny
// checkpoint, boot platod2gl-serve against a 2-shard live-TCP cluster,
// issue /embed and /knn queries, check the answers against the graph, and
// verify a clean stop leaks nothing.
func TestServeSmokeCluster(t *testing.T) {
	w := newWorld(t, 400, 4, 8, 6, 1)
	addrs, _ := w.startTCPCluster(t, 2)
	baseline := runtime.NumGoroutine()

	h := startServe(t, config{
		servers: strings.Join(addrs, ","), addr: "127.0.0.1:0", metricsAddr: "127.0.0.1:0",
		checkpointDir: w.ckpt, seed: 1, f1: 4, f2: 3,
		workers: 4, requestTimeout: 30 * time.Second, warmBatch: 128,
		refreshInterval: 200 * time.Millisecond, refreshBatch: 128,
	})
	hc := noKeepAliveClient()
	base := "http://" + h.ready.addr

	var health healthResponse
	if code := getJSON(t, hc, base+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if health.Status != "ok" || health.Indexed != len(w.nodes) {
		t.Fatalf("healthz %+v, want ok with %d indexed", health, len(w.nodes))
	}

	var emb embedResponse
	if code := getJSON(t, hc, base+"/embed?ids=0,1,2", &emb); code != http.StatusOK {
		t.Fatalf("/embed = %d", code)
	}
	if len(emb.Embeddings) != 3 || len(emb.Embeddings[0]) != health.Dim {
		t.Fatalf("embed shape %dx%d, want 3x%d", len(emb.Embeddings), len(emb.Embeddings[0]), health.Dim)
	}

	// Top-k quality: neighbors must be dominated by the query's class (the
	// graph is homophilous; random would be ~1/4), the query's true graph
	// neighbors must show up across the sample, and the query itself never.
	const k = 10
	same, total, trueHits := 0, 0, 0
	for i := 0; i < 30; i++ {
		q := w.nodes[(i*13)%len(w.nodes)]
		var res knnResponse
		if code := getJSON(t, hc, fmt.Sprintf("%s/knn?id=%d&k=%d", base, uint64(q), k), &res); code != http.StatusOK {
			t.Fatalf("/knn = %d", code)
		}
		if len(res.Neighbors) != k {
			t.Fatalf("knn returned %d hits, want %d", len(res.Neighbors), k)
		}
		if len(res.Embedding) != health.Dim {
			t.Fatalf("knn embedding dim %d, want %d", len(res.Embedding), health.Dim)
		}
		for _, hit := range res.Neighbors {
			id := graph.VertexID(hit.ID)
			if id == q {
				t.Fatalf("knn for %d returned the query itself", uint64(q))
			}
			if w.labels[id] == w.labels[q] {
				same++
			}
			if w.adj[q][id] {
				trueHits++
			}
			total++
		}
	}
	if share := float64(same) / float64(total); share < 0.5 {
		t.Fatalf("same-class share %.3f over %d hits, want >= 0.5", share, total)
	}
	if trueHits == 0 {
		t.Fatal("no true graph neighbors surfaced across 30 top-10 queries")
	}

	// Bad requests are 4xx, not 5xx.
	if code := getJSON(t, hc, base+"/embed", nil); code != http.StatusBadRequest {
		t.Fatalf("/embed without ids = %d, want 400", code)
	}
	if code := getJSON(t, hc, base+"/knn?id=zebra", nil); code != http.StatusBadRequest {
		t.Fatalf("/knn with junk id = %d, want 400", code)
	}

	// Metrics endpoint is live and carries the serve family.
	mresp, err := hc.Get("http://" + h.ready.metricsAddr + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mb := new(strings.Builder)
	if _, err := io.Copy(mb, mresp.Body); err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	mresp.Body.Close()
	for _, want := range []string{"platod2gl_serve_knn_requests_total", "platod2gl_serve_index_size", "platod2gl_serve_embeddings_stale"} {
		if !strings.Contains(mb.String(), want) {
			t.Fatalf("metrics exposition missing %s", want)
		}
	}
	// /debug/vars carries the same registry under "platod2gl".
	var vars struct {
		Platod2gl map[string]any `json:"platod2gl"`
	}
	if code := getJSON(t, hc, "http://"+h.ready.metricsAddr+"/debug/vars", &vars); code != http.StatusOK {
		t.Fatalf("/debug/vars = %d", code)
	}
	if n, ok := vars.Platod2gl["platod2gl_serve_knn_requests_total"].(float64); !ok || n == 0 {
		t.Fatalf("/debug/vars platod2gl.platod2gl_serve_knn_requests_total = %v, want the served count", vars.Platod2gl["platod2gl_serve_knn_requests_total"])
	}

	h.shutdown(t)
	if !strings.Contains(h.out.String(), "shutdown: served") {
		t.Fatalf("no shutdown summary:\n%s", h.out.String())
	}
	hc.CloseIdleConnections()
	waitGoroutineBaseline(t, baseline)
}

// TestServeLocalMode exercises the -local backend end to end: the binary
// rebuilds the synthetic graph itself and serves without any cluster.
func TestServeLocalMode(t *testing.T) {
	w := newWorld(t, 300, 3, 8, 6, 7)
	h := startServe(t, config{
		local: true, addr: "127.0.0.1:0",
		checkpointDir: w.ckpt,
		nodes:         300, classes: 3, dim: 8, degree: 6, seed: 7,
		f1: 4, f2: 3, workers: 2, requestTimeout: 30 * time.Second,
		warmBatch: 128, refreshInterval: time.Hour,
	})
	hc := noKeepAliveClient()
	base := "http://" + h.ready.addr
	var health healthResponse
	if code := getJSON(t, hc, base+"/healthz", &health); code != http.StatusOK || health.Indexed == 0 {
		t.Fatalf("healthz = %d, %+v", code, health)
	}
	var res knnResponse
	if code := getJSON(t, hc, base+"/knn?id=5&k=5", &res); code != http.StatusOK {
		t.Fatalf("/knn = %d", code)
	}
	if len(res.Neighbors) != 5 {
		t.Fatalf("knn returned %d hits, want 5", len(res.Neighbors))
	}
	h.shutdown(t)
}

func TestServeRejectsMissingConfig(t *testing.T) {
	if err := run(config{addr: "127.0.0.1:0"}, &strings.Builder{}); err == nil {
		t.Fatal("expected error without -checkpoint-dir")
	}
	if err := run(config{addr: "127.0.0.1:0", checkpointDir: t.TempDir()}, &strings.Builder{}); err == nil {
		t.Fatal("expected error with an empty checkpoint dir")
	}
	w := newWorld(t, 100, 2, 8, 4, 3)
	if err := run(config{addr: "127.0.0.1:0", checkpointDir: w.ckpt}, &strings.Builder{}); err == nil {
		t.Fatal("expected error without a backend")
	}
}
