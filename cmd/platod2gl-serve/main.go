// Command platod2gl-serve is the online inference tier: it loads the newest
// training checkpoint, warms an in-process HNSW index with one embedding per
// source vertex, and answers embedding and k-NN queries over HTTP while a
// background refresher keeps the index tracking the live graph.
//
// Backends (pick one):
//
//	-local            serve a rebuilt synthetic graph in-process (demo mode:
//	                  same -nodes/-classes/-dim/-degree/-seed flags as
//	                  platod2gl-train reproduce the trained graph)
//	-servers a,b,c    serve against live platod2gl-server processes
//
// Usage:
//
//	platod2gl-train -local -checkpoint-dir /tmp/ckpt
//	platod2gl-serve -local -checkpoint-dir /tmp/ckpt -addr :8080
//	curl 'localhost:8080/knn?id=42&k=10'
//	curl 'localhost:8080/embed?ids=1,2,3'
//
// API:
//
//	GET /embed?ids=1,2,3   current embeddings, one row per id
//	GET /knn?id=42&k=10    nearest indexed vertices to id's live embedding
//	GET /healthz           readiness + index size
//
// -metrics-addr serves /metrics (Prometheus) and /debug/vars (JSON) with
// the platod2gl_serve_* family: request/shed counters, latency histograms,
// serve_embeddings_stale, serve_refresh_lag_seconds, and index size. See
// docs/OPERATIONS.md, "Serving".
//
// SIGTERM (or Ctrl-C) stops admission, drains in-flight requests, and exits
// cleanly.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"platod2gl/internal/checkpoint"
	"platod2gl/internal/cluster"
	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/obs"
	"platod2gl/internal/sampler"
	"platod2gl/internal/serve"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// config collects every knob so tests can drive run directly.
type config struct {
	local   bool
	servers string

	addr        string
	metricsAddr string

	checkpointDir string

	// Synthetic-graph shape for -local (must match the training run).
	nodes   int
	classes int
	dim     int
	degree  int
	seed    int64

	f1, f2         int
	workers        int
	requestTimeout time.Duration
	callBudget     time.Duration

	warmBatch       int
	refreshInterval time.Duration
	refreshBatch    int
	noRefresh       bool

	// Test hooks. onReady fires once the HTTP API is listening and the
	// index is warm; stop requests the same graceful shutdown as SIGTERM.
	onReady func(ready readyInfo)
	stop    <-chan struct{}
}

// readyInfo hands tests the bound addresses and live internals.
type readyInfo struct {
	addr        string
	metricsAddr string
	engine      *serve.Engine
	metrics     *serve.Metrics
}

func main() {
	var cfg config
	flag.BoolVar(&cfg.local, "local", false, "serve a rebuilt synthetic graph in-process")
	flag.StringVar(&cfg.servers, "servers", "", "comma-separated addresses of live graph servers")
	flag.StringVar(&cfg.addr, "addr", ":8080", "HTTP address for the query API")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "HTTP address serving /metrics and /debug/vars (empty = disabled)")
	flag.StringVar(&cfg.checkpointDir, "checkpoint-dir", "", "directory holding training checkpoints (required)")
	flag.IntVar(&cfg.nodes, "nodes", 2000, "synthetic graph size (-local)")
	flag.IntVar(&cfg.classes, "classes", 4, "number of classes (-local)")
	flag.IntVar(&cfg.dim, "dim", 16, "feature dimension (-local)")
	flag.IntVar(&cfg.degree, "degree", 8, "out-edges per vertex (-local)")
	flag.Int64Var(&cfg.seed, "seed", 1, "RNG seed; must match the training run for -local")
	flag.IntVar(&cfg.f1, "f1", 8, "hop-1 fanout (match training)")
	flag.IntVar(&cfg.f2, "f2", 5, "hop-2 fanout (match training)")
	flag.IntVar(&cfg.workers, "workers", 4, "concurrent forward passes")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", 2*time.Second, "per-request deadline")
	flag.DurationVar(&cfg.callBudget, "call-budget", 0, "end-to-end deadline per view call, propagated to servers (0 = none)")
	flag.IntVar(&cfg.warmBatch, "warm-batch", 256, "vertices per bulk-indexing batch at startup")
	flag.DurationVar(&cfg.refreshInterval, "refresh-interval", 2*time.Second, "staleness poll cadence")
	flag.IntVar(&cfg.refreshBatch, "refresh-batch", 128, "vertices per background re-embed batch")
	flag.BoolVar(&cfg.noRefresh, "no-refresh", false, "disable the background index refresher")
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// synthGraph rebuilds the training binary's synthetic homophilous graph —
// flag-for-flag the same construction, so -local serving sees the graph the
// checkpoint was trained on.
func synthGraph(cfg config) (*storage.DynamicStore, *kvstore.Store) {
	store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Compress: true}})
	attrs := kvstore.New()
	dataset.AssignFeatures(attrs, 0, uint64(cfg.nodes), cfg.dim, cfg.classes, 2.0, cfg.seed)
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	byClass := make([][]graph.VertexID, cfg.classes)
	nodes := make([]graph.VertexID, cfg.nodes)
	for i := range nodes {
		nodes[i] = graph.MakeVertexID(0, uint64(i))
		l, _ := attrs.Label(nodes[i])
		byClass[l] = append(byClass[l], nodes[i])
	}
	for _, id := range nodes {
		l, _ := attrs.Label(id)
		peers := byClass[l]
		for j := 0; j < cfg.degree; j++ {
			dst := peers[rng.Intn(len(peers))]
			if rng.Intn(4) == 0 {
				dst = nodes[rng.Intn(cfg.nodes)]
			}
			store.AddEdge(graph.Edge{Src: id, Dst: dst, Weight: 1})
		}
	}
	return store, attrs
}

// buildView wires the serving backend: the interactive view, a
// background-priority twin for the refresher, the change source, and a
// cleanup func.
func buildView(cfg config) (gv, refreshGV view.GraphView, src serve.ChangeSource, cleanup func(), err error) {
	switch {
	case cfg.local:
		store, attrs := synthGraph(cfg)
		opt := sampler.Options{Parallelism: cfg.workers, Seed: cfg.seed}
		v := view.NewLocal(store, attrs, opt)
		// One coarse single-shard digest: the attribute store's incremental
		// digest XOR the edge count. Edge count is not order-independent the
		// way the cluster's topology digest is, but local mode owns its
		// store in-process, so any mutation moves it.
		src = serve.ChangeFunc(func(context.Context) ([]uint64, error) {
			return []uint64{attrs.Digest() ^ uint64(store.NumEdges())}, nil
		})
		return v, v, src, func() {}, nil

	case cfg.servers != "":
		addrs := strings.Split(cfg.servers, ",")
		client, err := cluster.Dial(addrs, cluster.DefaultOptions())
		if err != nil {
			return nil, nil, nil, nil, err
		}
		cv := view.NewCluster(client, cfg.seed)
		if cfg.callBudget > 0 {
			cv.SetCallBudget(cfg.callBudget)
		}
		return cv, cv.Background(), serve.ClusterChanges{Client: client}, func() { client.Close() }, nil
	}
	return nil, nil, nil, nil, fmt.Errorf("pick a backend: -local or -servers a,b,c")
}

func run(cfg config, out io.Writer) error {
	if cfg.checkpointDir == "" {
		return fmt.Errorf("-checkpoint-dir is required: serving loads a trained model")
	}
	cm := &checkpoint.Metrics{}
	st, path, err := checkpoint.LoadLatest(cfg.checkpointDir, cm)
	if err != nil {
		if errors.Is(err, checkpoint.ErrNoCheckpoint) {
			return fmt.Errorf("no checkpoint in %s: train first (platod2gl-train -checkpoint-dir %s)", cfg.checkpointDir, cfg.checkpointDir)
		}
		return fmt.Errorf("load checkpoint: %w", err)
	}

	gv, refreshGV, changeSrc, cleanup, err := buildView(cfg)
	if err != nil {
		return err
	}
	defer cleanup()

	metrics := &serve.Metrics{}
	eng, err := serve.New(serve.Config{
		View: gv, State: st, Rel: 0, F1: cfg.f1, F2: cfg.f2,
		Workers: cfg.workers, Timeout: cfg.requestTimeout,
		IndexSeed: cfg.seed, Metrics: metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded %s: embedding dim %d, %d classes\n", path, eng.Dim(), eng.Classes())

	warmStart := time.Now()
	indexed, err := eng.Warm(context.Background(), cfg.warmBatch)
	if err != nil {
		return fmt.Errorf("warm index: %w", err)
	}
	fmt.Fprintf(out, "warmed index: %d vertices in %s\n", indexed, time.Since(warmStart).Round(time.Millisecond))

	// Metrics endpoint: /metrics and /debug/vars, shut down with the run.
	if cfg.metricsAddr != "" {
		reg := obs.NewRegistry()
		metrics.Register(reg)
		cm.Register(reg)
		eng.RegisterIndexGauges(reg)
		bound, shutdown, err := obs.Serve(cfg.metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics listen: %w", err)
		}
		cfg.metricsAddr = bound
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := shutdown(ctx); err != nil {
				log.Printf("metrics shutdown: %v", err)
			}
		}()
	}

	// The refresher closes the dynamic loop; its sampling rides the
	// background admission class on cluster backends.
	refreshCtx, stopRefresh := context.WithCancel(context.Background())
	defer stopRefresh()
	refreshDone := make(chan struct{})
	if cfg.noRefresh {
		close(refreshDone)
	} else {
		ref, err := serve.NewRefresher(serve.RefreshConfig{
			Engine: eng, Source: changeSrc, View: refreshGV,
			Interval: cfg.refreshInterval, Batch: cfg.refreshBatch, Metrics: metrics,
		})
		if err != nil {
			return err
		}
		go func() {
			defer close(refreshDone)
			ref.Run(refreshCtx)
		}()
	}

	lis, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("api listen: %w", err)
	}
	apiSrv := &http.Server{Handler: apiMux(eng)}
	serveErr := make(chan error, 1)
	go func() {
		if err := apiSrv.Serve(lis); err != nil && err != http.ErrServerClosed {
			serveErr <- err
		}
	}()
	fmt.Fprintf(out, "serving on %s (workers %d, request timeout %s, refresh every %s)\n",
		lis.Addr(), cfg.workers, cfg.requestTimeout, cfg.refreshInterval)
	if cfg.onReady != nil {
		cfg.onReady(readyInfo{addr: lis.Addr().String(), metricsAddr: cfg.metricsAddr, engine: eng, metrics: metrics})
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigCh)
	select {
	case err := <-serveErr:
		return fmt.Errorf("api server: %w", err)
	case <-sigCh:
	case <-cfg.stop:
	}

	// Graceful drain: stop the refresher, then the API with a bounded
	// deadline so wedged requests cannot hold the process open.
	stopRefresh()
	<-refreshDone
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := apiSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("api shutdown: %w", err)
	}
	s := metrics.Snapshot()
	fmt.Fprintf(out, "shutdown: served %d embed + %d knn requests (%d errors, %d shed), refreshed %d\n",
		s.EmbedRequests, s.KNNRequests, s.Errors, s.Shed, s.Refreshed)
	return nil
}

// ---------------------------------------------------------------------------
// HTTP API

type knnHit struct {
	ID   uint64  `json:"id"`
	Dist float32 `json:"dist"`
}

type knnResponse struct {
	ID        uint64    `json:"id"`
	K         int       `json:"k"`
	Neighbors []knnHit  `json:"neighbors"`
	Embedding []float32 `json:"embedding"`
}

type embedResponse struct {
	IDs        []uint64    `json:"ids"`
	Embeddings [][]float32 `json:"embeddings"`
}

type healthResponse struct {
	Status  string `json:"status"`
	Indexed int    `json:"indexed"`
	Dim     int    `json:"dim"`
}

func apiMux(eng *serve.Engine) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, healthResponse{Status: "ok", Indexed: eng.Index().Len(), Dim: eng.Dim()})
	})
	mux.HandleFunc("/embed", func(w http.ResponseWriter, r *http.Request) {
		ids, err := parseIDs(r.URL.Query().Get("ids"))
		if err != nil || len(ids) == 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("embed needs ids=1,2,3: %v", err))
			return
		}
		embs, err := eng.Embed(r.Context(), ids)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		resp := embedResponse{IDs: make([]uint64, len(ids)), Embeddings: embs}
		for i, id := range ids {
			resp.IDs[i] = uint64(id)
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/knn", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		id, err := strconv.ParseUint(q.Get("id"), 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("knn needs id=<vertex>: %w", err))
			return
		}
		k := 10
		if ks := q.Get("k"); ks != "" {
			if k, err = strconv.Atoi(ks); err != nil || k <= 0 {
				httpError(w, http.StatusBadRequest, fmt.Errorf("bad k %q", ks))
				return
			}
		}
		res, emb, err := eng.KNN(r.Context(), graph.VertexID(id), k)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		resp := knnResponse{ID: id, K: k, Neighbors: make([]knnHit, len(res)), Embedding: emb}
		for i, h := range res {
			resp.Neighbors[i] = knnHit{ID: uint64(h.ID), Dist: h.Dist}
		}
		writeJSON(w, http.StatusOK, resp)
	})
	return mux
}

// statusFor maps engine errors to HTTP codes: admission sheds and deadline
// misses are load conditions (429), everything else is a server fault.
func statusFor(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusTooManyRequests
	}
	return http.StatusInternalServerError
}

func parseIDs(s string) ([]graph.VertexID, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]graph.VertexID, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad vertex id %q", p)
		}
		out = append(out, graph.VertexID(v))
	}
	return out, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("serve: encode response: %v", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
