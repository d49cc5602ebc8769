// Command platod2gl-train runs distributed GNN training end to end: it
// builds a synthetic homophilous classification graph, loads it into a
// storage backend, and trains a two-layer GraphSAGE classifier through the
// async prefetching mini-batch pipeline (internal/pipeline), reporting
// per-epoch loss/accuracy plus prefetch-stall and RPC-coalescing metrics.
//
// Backends (pick one):
//
//	-local            train against an in-process store (no RPC)
//	-shards N         spin up N in-process graph servers and train over RPC
//	-servers a,b,c    train against live platod2gl-server processes
//
// Usage:
//
//	platod2gl-train -local -nodes 2000 -epochs 5
//	platod2gl-train -shards 4 -workers 4 -depth 8
//	platod2gl-train -servers :7090,:7091 -epochs 3
//
// -sample-delay injects per-call view latency to demonstrate how pipeline
// depth/workers hide storage waits (compare -workers 1 vs -workers 8).
//
// Resilience (see docs/OPERATIONS.md, "Training resilience"):
//
//	-checkpoint-dir d     write durable checkpoints into d
//	-checkpoint-every N   checkpoint after every N epochs (default 1)
//	-checkpoint-keep K    retain the K newest checkpoints (default 3)
//	-resume               resume from the newest usable checkpoint in d
//	-degrade-sampling     answer a dead shard's sampling with self-loops
//
// The cluster client (cluster.DefaultOptions) is the only retry layer: it
// retries transient errors, waits out open circuit breakers and fails reads
// over to sibling replicas.
//
// SIGTERM (or Ctrl-C) drains the batch being trained, writes a final
// checkpoint, and exits cleanly; a later -resume run continues mid-epoch.
// See docs/TRAINING.md for the full walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"platod2gl/internal/checkpoint"
	"platod2gl/internal/cluster"
	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/gnn"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/obs"
	"platod2gl/internal/pipeline"
	"platod2gl/internal/sampler"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// config collects every knob so tests can drive run directly.
type config struct {
	local   bool
	shards  int
	servers string

	nodes   int
	classes int
	dim     int
	hidden  int
	degree  int

	epochs int
	batch  int
	f1, f2 int
	lr     float64
	seed   int64

	depth       int
	workers     int
	sampleDelay time.Duration
	metricsAddr string

	checkpointDir   string
	checkpointEvery int
	checkpointKeep  int
	resume          bool
	degradeSampling bool
	callBudget      time.Duration

	// Test hooks. onCluster receives the in-process cluster built for
	// -shards (chaos tests stop/restart shards through it); onStep fires
	// after every trained mini-batch with the epoch and the 1-based count of
	// batches applied so far this epoch.
	onCluster func(*cluster.LocalCluster)
	onStep    func(epoch, step int)
}

func main() {
	var cfg config
	flag.BoolVar(&cfg.local, "local", false, "train against an in-process store (no RPC)")
	flag.IntVar(&cfg.shards, "shards", 0, "spin up this many in-process graph servers and train over RPC")
	flag.StringVar(&cfg.servers, "servers", "", "comma-separated addresses of live graph servers")
	flag.IntVar(&cfg.nodes, "nodes", 2000, "synthetic graph size")
	flag.IntVar(&cfg.classes, "classes", 4, "number of classes")
	flag.IntVar(&cfg.dim, "dim", 16, "feature dimension")
	flag.IntVar(&cfg.hidden, "hidden", 32, "hidden layer width")
	flag.IntVar(&cfg.degree, "degree", 8, "out-edges per vertex")
	flag.IntVar(&cfg.epochs, "epochs", 5, "training epochs")
	flag.IntVar(&cfg.batch, "batch", 64, "mini-batch size")
	flag.IntVar(&cfg.f1, "f1", 8, "hop-1 fanout")
	flag.IntVar(&cfg.f2, "f2", 5, "hop-2 fanout")
	flag.Float64Var(&cfg.lr, "lr", 0.02, "learning rate")
	flag.Int64Var(&cfg.seed, "seed", 1, "RNG seed (data, model init, shuffling)")
	flag.IntVar(&cfg.depth, "depth", 4, "prefetch pipeline depth (batches in flight)")
	flag.IntVar(&cfg.workers, "workers", 2, "concurrent batch builders (1 = deterministic)")
	flag.DurationVar(&cfg.sampleDelay, "sample-delay", 0, "injected per-call view latency (demonstrates overlap)")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "HTTP address serving /metrics (Prometheus) and /debug/vars (JSON) (empty = disabled)")
	flag.StringVar(&cfg.checkpointDir, "checkpoint-dir", "", "directory for durable training checkpoints (empty = disabled)")
	flag.IntVar(&cfg.checkpointEvery, "checkpoint-every", 1, "checkpoint after every N epochs")
	flag.IntVar(&cfg.checkpointKeep, "checkpoint-keep", 3, "retain the newest N checkpoints")
	flag.BoolVar(&cfg.resume, "resume", false, "resume from the newest checkpoint in -checkpoint-dir")
	flag.BoolVar(&cfg.degradeSampling, "degrade-sampling", false, "answer a dead shard's sampling with self-loops instead of failing the batch")
	flag.DurationVar(&cfg.callBudget, "call-budget", 0, "end-to-end deadline per view call, propagated to servers (0 = none)")
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// synthGraph builds the homophilous classification benchmark: features and
// labels in a staging kvstore, plus same-class edges with 25% noise.
func synthGraph(cfg config) (nodes []graph.VertexID, events []graph.Event, feats []float32, labels []int32) {
	staging := kvstore.New()
	dataset.AssignFeatures(staging, 0, uint64(cfg.nodes), cfg.dim, cfg.classes, 2.0, cfg.seed)
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	byClass := make([][]graph.VertexID, cfg.classes)
	nodes = make([]graph.VertexID, cfg.nodes)
	for i := range nodes {
		nodes[i] = graph.MakeVertexID(0, uint64(i))
		l, _ := staging.Label(nodes[i])
		byClass[l] = append(byClass[l], nodes[i])
	}
	for _, id := range nodes {
		l, _ := staging.Label(id)
		peers := byClass[l]
		for j := 0; j < cfg.degree; j++ {
			dst := peers[rng.Intn(len(peers))]
			if rng.Intn(4) == 0 {
				dst = nodes[rng.Intn(cfg.nodes)]
			}
			events = append(events, graph.Event{
				Kind: graph.AddEdge,
				Edge: graph.Edge{Src: id, Dst: dst, Weight: 1},
			})
		}
	}
	return nodes, events, staging.GatherFeatures(nodes, cfg.dim), staging.GatherLabels(nodes)
}

// buildView loads the synthetic graph into the selected backend and returns
// the GraphView to train against, plus the cluster client (nil for -local)
// and a cleanup func.
func buildView(cfg config, nodes []graph.VertexID, events []graph.Event, feats []float32, labels []int32) (view.GraphView, *cluster.Client, func(), error) {
	opts := cluster.DefaultOptions()
	opts.Degraded = cfg.degradeSampling
	switch {
	case cfg.local:
		store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Compress: true}})
		store.ApplyBatch(events)
		attrs := kvstore.New()
		for i, id := range nodes {
			attrs.SetFeatures(id, feats[i*cfg.dim:(i+1)*cfg.dim])
			attrs.SetLabel(id, labels[i])
		}
		opt := sampler.Options{Parallelism: cfg.workers, Seed: cfg.seed}
		return view.NewLocal(store, attrs, opt), nil, func() {}, nil

	case cfg.shards > 0:
		lc := cluster.NewLocalClusterOptions(cfg.shards, cluster.LocalOptions{
			Client: opts,
			StoreFactory: func(int) (storage.TopologyStore, *kvstore.Store) {
				return storage.NewDynamicStore(storage.Options{Tree: core.Options{Compress: true}}), kvstore.New()
			},
		})
		client := lc.Client()
		if err := loadCluster(client, cfg, nodes, events, feats, labels); err != nil {
			lc.Shutdown()
			return nil, nil, nil, err
		}
		if cfg.onCluster != nil {
			cfg.onCluster(lc)
		}
		return view.NewCluster(client, cfg.seed), client, lc.Shutdown, nil

	case cfg.servers != "":
		addrs := strings.Split(cfg.servers, ",")
		client, err := cluster.Dial(addrs, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		if m := client.RoutingMap(); m != nil {
			log.Printf("cluster routing: epoch %d, %d logical shards across %d server groups (shards may migrate live; reads re-route transparently)",
				m.Epoch, m.NumShards, m.NumGroups())
		}
		if err := loadCluster(client, cfg, nodes, events, feats, labels); err != nil {
			client.Close()
			return nil, nil, nil, err
		}
		return view.NewCluster(client, cfg.seed), client, func() { client.Close() }, nil
	}
	return nil, nil, nil, fmt.Errorf("pick a backend: -local, -shards N, or -servers a,b,c")
}

// loadCluster pushes topology and attributes to the shards.
func loadCluster(client *cluster.Client, cfg config, nodes []graph.VertexID, events []graph.Event, feats []float32, labels []int32) error {
	if err := client.ApplyBatch(events); err != nil {
		return fmt.Errorf("push edges: %w", err)
	}
	if err := client.SetFeatures(nodes, cfg.dim, feats, labels); err != nil {
		return fmt.Errorf("push features: %w", err)
	}
	return nil
}

// epochRNG derives the shuffle RNG for one epoch from the base seed alone,
// so a resumed run reproduces the exact mini-batch sequence of every epoch
// without replaying the preceding ones.
func epochRNG(seed int64, epoch int) *rand.Rand {
	return rand.New(rand.NewSource(seed + 3 + int64(epoch)*1_000_003))
}

func run(cfg config, out io.Writer) error {
	if cfg.epochs <= 0 || cfg.batch <= 0 || cfg.nodes < 10 {
		return fmt.Errorf("need epochs > 0, batch > 0, nodes >= 10")
	}
	if cfg.checkpointEvery <= 0 {
		cfg.checkpointEvery = 1
	}
	if cfg.checkpointKeep <= 0 {
		cfg.checkpointKeep = 3
	}
	nodes, events, feats, labels := synthGraph(cfg)
	gv, client, cleanup, err := buildView(cfg, nodes, events, feats, labels)
	if err != nil {
		return err
	}
	defer cleanup()

	// Budget and priority ride the raw cluster view, under every wrapper:
	// the trainer's own calls stay interactive while the pipeline's batch
	// builders are tagged as prefetch, so an overloaded server sheds the
	// builders' traffic first. The prefetch twin shares the seed cursor, so
	// determinism and checkpoint SamplePos are unaffected.
	var prefetchBase view.GraphView
	if cv, ok := gv.(*view.Cluster); ok {
		if cfg.callBudget > 0 {
			cv.SetCallBudget(cfg.callBudget)
		}
		prefetchBase = cv.Prefetch()
	}

	pm := &pipeline.Metrics{}
	cm := &checkpoint.Metrics{}
	vcm := &view.CallMetrics{}
	wrapView := func(g view.GraphView) view.GraphView {
		if cfg.sampleDelay > 0 {
			g = view.WithLatency(g, cfg.sampleDelay)
		}
		if cfg.metricsAddr != "" {
			// Per-call view latency sits outermost so it measures what the
			// trainer experiences, retries included.
			g = view.Instrument(g, vcm)
		}
		return g
	}
	gv = wrapView(gv)
	var prefetchGV view.GraphView
	if prefetchBase != nil {
		prefetchGV = wrapView(prefetchBase)
	}
	if cfg.metricsAddr != "" {
		reg := obs.NewRegistry()
		pm.Register(reg)
		cm.Register(reg)
		vcm.Register(reg)
		if client != nil {
			client.Metrics().Register(reg)
		}
		// The endpoint lives as long as this run: a repeated run in one
		// process gets a fresh one over its own registry.
		_, shutdown, err := obs.Serve(cfg.metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics listen: %w", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := shutdown(ctx); err != nil {
				log.Printf("metrics shutdown: %v", err)
			}
		}()
	}

	rng := rand.New(rand.NewSource(cfg.seed + 2))
	model := gnn.NewModel(cfg.dim, cfg.hidden, cfg.classes, rng)
	tr := gnn.NewTrainer(model, gv, 0, cfg.f1, cfg.f2, cfg.lr)
	// The pipeline's batch builders load through the prefetch-class view when
	// one exists; SampleBatch only reads the trainer, so the twin may share
	// its model and optimizer.
	loadBatch := tr.SampleBatch
	if prefetchGV != nil {
		ltr := *tr
		ltr.View = prefetchGV
		loadBatch = ltr.SampleBatch
	}
	split := cfg.nodes * 4 / 5
	train, test := nodes[:split], nodes[split:]

	// saveCkpt persists the full training state under the given manifest
	// position. Epoch/Step name where training resumes FROM (Step batches of
	// Epoch already applied).
	saveCkpt := func(epoch, step int) error {
		if cfg.checkpointDir == "" {
			return nil
		}
		st := checkpoint.Capture(checkpoint.Manifest{
			Epoch:     epoch,
			Step:      step,
			Seed:      cfg.seed,
			SamplePos: view.SamplePos(gv),
		}, model.Params(), tr.Opt)
		path, err := checkpoint.Save(cfg.checkpointDir, st, checkpoint.SaveOptions{Keep: cfg.checkpointKeep, Metrics: cm})
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Fprintf(out, "checkpoint: wrote %s (epoch %d step %d)\n", path, epoch, step)
		return nil
	}

	startEpoch, startStep := 0, 0
	if cfg.resume {
		if cfg.checkpointDir == "" {
			return fmt.Errorf("-resume needs -checkpoint-dir")
		}
		st, path, err := checkpoint.LoadLatest(cfg.checkpointDir, cm)
		switch {
		case err == nil:
			if st.Manifest.Seed != cfg.seed {
				return fmt.Errorf("checkpoint %s was written with -seed %d, run has -seed %d", path, st.Manifest.Seed, cfg.seed)
			}
			if err := st.Apply(model.Params(), tr.Opt); err != nil {
				return fmt.Errorf("resume from %s: %w", path, err)
			}
			view.SetSamplePos(gv, st.Manifest.SamplePos)
			startEpoch, startStep = st.Manifest.Epoch, st.Manifest.Step
			fmt.Fprintf(out, "resumed from %s: epoch %d step %d\n", path, startEpoch, startStep)
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			fmt.Fprintf(out, "no checkpoint in %s, starting fresh\n", cfg.checkpointDir)
		default:
			return fmt.Errorf("resume: %w", err)
		}
	}

	backend := "local"
	if client != nil {
		backend = fmt.Sprintf("cluster(%d shards)", client.NumServers())
	}
	fmt.Fprintf(out, "training on %s: %d nodes, %d edges, %d classes, batch %d, pipeline depth %d x %d workers\n",
		backend, cfg.nodes, len(events), cfg.classes, cfg.batch, cfg.depth, cfg.workers)
	if startEpoch >= cfg.epochs {
		fmt.Fprintf(out, "checkpoint already at epoch %d, nothing to train\n", startEpoch)
		return nil
	}

	// SIGTERM/interrupt drains the in-flight batch, checkpoints, and exits
	// cleanly: an orchestrator's stop signal costs at most one mini-batch.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigCh)

	pcfg := pipeline.Config{Depth: cfg.depth, Workers: cfg.workers, Metrics: pm}
	start := time.Now()
	for e := startEpoch; e < cfg.epochs; e++ {
		batches := pipeline.SeedBatches(train, cfg.batch, epochRNG(cfg.seed, e))
		skip := 0
		if e == startEpoch && startStep > 0 {
			if skip = startStep; skip > len(batches) {
				skip = len(batches)
			}
			fmt.Fprintf(out, "epoch %d: skipping %d already-trained batches\n", e, skip)
		}
		p := pipeline.Run(batches[skip:], loadBatch, pcfg)
		totalLoss, done := 0.0, 0
		interrupted := false
		pmBefore := pm.Snapshot()
		var trainTime time.Duration
	epoch:
		for {
			select {
			case <-sigCh:
				interrupted = true
				break epoch
			default:
			}
			r, ok := p.Next()
			if !ok {
				break
			}
			if r.Err != nil {
				p.Stop()
				return fmt.Errorf("epoch %d: %w", e, r.Err)
			}
			stepStart := time.Now()
			totalLoss += tr.TrainStep(r.Batch)
			trainTime += time.Since(stepStart)
			done++
			if cfg.onStep != nil {
				cfg.onStep(e, skip+done)
			}
		}
		if interrupted {
			p.Close() // abandon prefetch without waiting out in-flight builds
			p.Stop()
			if err := saveCkpt(e, skip+done); err != nil {
				return err
			}
			fmt.Fprintf(out, "interrupted: drained batch, wrote final checkpoint at epoch %d step %d\n", e, skip+done)
			return nil
		}
		p.Stop()
		trained := skip + done
		meanLoss := 0.0
		if done > 0 {
			meanLoss = totalLoss / float64(done)
		}
		evalStart := time.Now()
		acc, err := tr.Accuracy(test)
		if err != nil {
			return fmt.Errorf("epoch %d accuracy: %w", e, err)
		}
		evalTime := time.Since(evalStart)
		fmt.Fprintf(out, "epoch %d: loss %.4f acc %.3f (%d batches)\n", e, meanLoss, acc, trained)
		// Stage breakdown: build/stall come from the pipeline's counters
		// (deltas over this epoch), train/eval are measured directly. Build
		// overlaps train by design — a healthy run shows stall << build.
		pmAfter := pm.Snapshot()
		fmt.Fprintf(out, "epoch %d stages: build %s stall %s train %s eval %s\n", e,
			time.Duration(pmAfter.BuildNanos-pmBefore.BuildNanos).Round(time.Microsecond),
			time.Duration(pmAfter.StallNanos-pmBefore.StallNanos).Round(time.Microsecond),
			trainTime.Round(time.Microsecond), evalTime.Round(time.Microsecond))
		if (e+1)%cfg.checkpointEvery == 0 || e == cfg.epochs-1 {
			if err := saveCkpt(e+1, 0); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(out, "trained %d epochs in %s\n", cfg.epochs-startEpoch, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(out, "pipeline: %s\n", pm.Snapshot())
	if cfg.checkpointDir != "" {
		fmt.Fprintf(out, "checkpoint: %s\n", cm.Snapshot())
	}
	if client != nil {
		s := client.Metrics().Snapshot()
		fmt.Fprintf(out, "cluster: %s\n", s)
		fmt.Fprintf(out, "coalescing saved %d duplicate seeds / %d wire bytes, %d duplicate feature and label rows\n",
			s.CoalescedSeeds, s.CoalescedBytes, s.CoalescedRows)
	}
	return nil
}
