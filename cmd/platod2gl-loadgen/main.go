// Command platod2gl-loadgen generates synthetic dynamic graph workloads
// (the Table III dataset stand-ins) and either summarizes them locally or
// streams them into a running platod2gl-server cluster.
//
// Usage:
//
//	platod2gl-loadgen -dataset wechat -edges 100000                  # dry run, print stats
//	platod2gl-loadgen -dataset ogbn -edges 100000 -servers :7090,:7091
//	platod2gl-loadgen -edges 100000 -servers :7090,:7091,:7092,:7093 -replicas 2
//	platod2gl-loadgen -edges 100000 -servers :7090,:7091 \
//	    -knn-url http://localhost:8080 -knn-qps 50                   # churn + queries
//
// With -knn-url and -knn-qps, a paced /knn query driver runs against a
// platod2gl-serve instance while the edges stream — a hand-driven
// serving-under-churn drill. The summary reports the status-class tally
// (ok / shed / failed).
//
// With -replicas R, consecutive runs of R addresses form one replica group:
// writes fan out to every replica of the owning shard and reads fail over
// across them (see internal/cluster/replica.go). The final summary includes
// the client's retry / breaker / failover counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"platod2gl/internal/cluster"
	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
	"platod2gl/internal/stats"
)

// knnDriver issues paced /knn queries against a platod2gl-serve instance
// while the write workload streams — the CLI shape of the nightly
// serving-under-churn drill. Query targets come from a reservoir of source
// vertices seen in the generated events, so every query hits a vertex that
// exists.
type knnDriver struct {
	base string
	k    int
	hc   *http.Client

	mu  sync.Mutex
	ids []graph.VertexID
	rng *rand.Rand

	sent, ok, shed, fail atomic.Int64
	done                 chan struct{}
	wg                   sync.WaitGroup
}

const knnReservoir = 4096

func newKnnDriver(base string, k, qps int, seed int64) *knnDriver {
	d := &knnDriver{
		base: strings.TrimRight(base, "/"), k: k,
		hc:   &http.Client{Timeout: 10 * time.Second},
		rng:  rand.New(rand.NewSource(seed)),
		done: make(chan struct{}),
	}
	d.wg.Add(1)
	go d.run(qps)
	return d
}

// offer feeds a candidate query target, reservoir-sampled so the query mix
// tracks the whole generated ID space, not just the newest batch.
func (d *knnDriver) offer(id graph.VertexID) {
	d.mu.Lock()
	if len(d.ids) < knnReservoir {
		d.ids = append(d.ids, id)
	} else {
		d.ids[d.rng.Intn(knnReservoir)] = id
	}
	d.mu.Unlock()
}

func (d *knnDriver) pick() (graph.VertexID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.ids) == 0 {
		return 0, false
	}
	return d.ids[d.rng.Intn(len(d.ids))], true
}

func (d *knnDriver) run(qps int) {
	defer d.wg.Done()
	tick := time.NewTicker(time.Second / time.Duration(qps))
	defer tick.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-tick.C:
		}
		id, ok := d.pick()
		if !ok {
			continue
		}
		d.sent.Add(1)
		resp, err := d.hc.Get(fmt.Sprintf("%s/knn?id=%d&k=%d", d.base, uint64(id), d.k))
		if err != nil {
			d.fail.Add(1)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			d.ok.Add(1)
		case resp.StatusCode == http.StatusTooManyRequests:
			d.shed.Add(1)
		default:
			d.fail.Add(1)
		}
	}
}

// stop halts the pacer and prints the tally.
func (d *knnDriver) stop(elapsed time.Duration) {
	close(d.done)
	d.wg.Wait()
	sent := d.sent.Load()
	fmt.Printf("knn: %d queries (%.0f/s), %d ok, %d shed (429), %d failed\n",
		sent, float64(sent)/elapsed.Seconds(), d.ok.Load(), d.shed.Load(), d.fail.Load())
}

func specByName(name string) (*dataset.Spec, error) {
	switch strings.ToLower(name) {
	case "ogbn":
		return dataset.OGBNSim(), nil
	case "reddit":
		return dataset.RedditSim(), nil
	case "wechat":
		return dataset.WeChatSim(), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (ogbn, reddit, wechat)", name)
	}
}

func main() {
	var (
		ds       = flag.String("dataset", "wechat", "dataset: ogbn, reddit, wechat")
		edges    = flag.Int64("edges", 100_000, "logical edges to generate")
		batch    = flag.Int("batch", 8192, "events per batch")
		seed     = flag.Int64("seed", 1, "generator seed")
		mixName  = flag.String("mix", "build", "event mix: build (inserts only) or dynamic")
		servers  = flag.String("servers", "", "comma-separated server addresses; empty = dry run")
		degrees  = flag.Bool("degrees", false, "print the generated out-degree distribution")
		timeout  = flag.Duration("call-timeout", 5*time.Second, "per-RPC-attempt timeout (0 = none)")
		retries  = flag.Int("retries", 4, "retry attempts per failed call (batches are at-most-once)")
		replicas = flag.Int("replicas", 1, "replica-group size R; servers are grouped in consecutive runs of R")
		qps      = flag.Int("qps", 0, "open-loop offered load in batches/sec, not waiting for completions (0 = closed loop)")
		budget   = flag.Duration("call-budget", 0, "end-to-end deadline per batch, propagated to servers as remaining budget (0 = none)")
		inflight = flag.Int("max-outstanding", 256, "open-loop cap on concurrently in-flight batches; beyond it offered batches are dropped client-side")
		knnURL   = flag.String("knn-url", "", "base URL of a platod2gl-serve instance to query while edges stream (e.g. http://localhost:8080)")
		knnQPS   = flag.Int("knn-qps", 0, "k-NN queries per second against -knn-url (0 = off)")
		knnK     = flag.Int("knn-k", 10, "neighbors per k-NN query")
	)
	flag.Parse()

	spec, err := specByName(*ds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	spec = spec.Scale(float64(*edges) / float64(spec.TotalEvents()))
	mix := dataset.BuildMix
	if *mixName == "dynamic" {
		mix = dataset.DynamicMix
	}
	gen := dataset.NewGenerator(spec, mix, *seed)

	var client *cluster.Client
	metrics := &cluster.Metrics{}
	if *servers != "" {
		var addrs []string
		for _, addr := range strings.Split(*servers, ",") {
			addrs = append(addrs, strings.TrimSpace(addr))
		}
		opts := cluster.DefaultOptions()
		opts.CallTimeout = *timeout
		opts.MaxRetries = *retries
		opts.Replicas = *replicas
		opts.Metrics = metrics
		var err error
		client, err = cluster.Dial(addrs, opts)
		if err != nil {
			log.Fatalf("dial cluster: %v", err)
		}
		defer client.Close()
	}

	// callCtx derives the per-batch context: -call-budget becomes the
	// deadline servers see as remaining budget.
	callCtx := func() (context.Context, context.CancelFunc) {
		if *budget > 0 {
			return context.WithTimeout(context.Background(), *budget)
		}
		return context.Background(), func() {}
	}

	var knn *knnDriver
	if *knnURL != "" && *knnQPS > 0 {
		knn = newKnnDriver(*knnURL, *knnK, *knnQPS, *seed)
	}

	start := time.Now()
	var sent int64
	var kinds [3]int64
	// Open-loop accounting: batches offered at the target rate vs batches
	// the cluster actually acknowledged. The gap is the overload story —
	// shed, deadline-expired, or dropped at the client's outstanding cap.
	var offered, acked, failed, droppedCap atomic.Int64
	degreeOf := map[graph.VertexID]int64{}
	var wg sync.WaitGroup
	var tick *time.Ticker
	var sem chan struct{}
	openLoop := client != nil && *qps > 0
	if openLoop {
		tick = time.NewTicker(time.Second / time.Duration(*qps))
		defer tick.Stop()
		sem = make(chan struct{}, *inflight)
	}
	for remaining := *edges; remaining > 0; {
		n := int64(*batch)
		if n > remaining {
			n = remaining
		}
		events := gen.Next(int(n))
		for _, ev := range events {
			kinds[ev.Kind]++
			if *degrees && ev.Kind == graph.AddEdge && ev.Edge.Type < dataset.ReverseOffset {
				degreeOf[ev.Edge.Src]++
			}
			if knn != nil && ev.Kind == graph.AddEdge && ev.Edge.Type < dataset.ReverseOffset {
				knn.offer(ev.Edge.Src)
			}
		}
		switch {
		case openLoop:
			<-tick.C
			offered.Add(1)
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func(events []graph.Event) {
					defer wg.Done()
					defer func() { <-sem }()
					ctx, cancel := callCtx()
					defer cancel()
					if err := client.ApplyBatchCtx(ctx, events); err != nil {
						failed.Add(1)
					} else {
						acked.Add(1)
					}
				}(events)
			default:
				// The cluster is not draining batches as fast as they are
				// offered; dropping here keeps the generator open-loop
				// without unbounded goroutine growth.
				droppedCap.Add(1)
			}
		case client != nil:
			ctx, cancel := callCtx()
			err := client.ApplyBatchCtx(ctx, events)
			cancel()
			if err != nil {
				log.Fatalf("apply batch: %v", err)
			}
		}
		sent += int64(len(events))
		remaining -= n
	}
	wg.Wait()
	elapsed := time.Since(start)
	if knn != nil {
		knn.stop(elapsed)
	}
	fmt.Printf("dataset %s: %d events (%d add, %d delete, %d update) in %v (%.0f ev/s)\n",
		spec.Name, sent, kinds[graph.AddEdge], kinds[graph.DeleteEdge], kinds[graph.UpdateWeight],
		elapsed.Round(time.Millisecond), float64(sent)/elapsed.Seconds())
	if *degrees {
		var h stats.Histogram
		for _, d := range degreeOf {
			h.Add(d)
		}
		fmt.Printf("out-degree distribution (forward relations): %s\n", h.String())
		fmt.Printf("p50~%d p99~%d\n", h.QuantileApprox(0.5), h.QuantileApprox(0.99))
	}
	if client != nil {
		st, err := client.Stats()
		if err != nil {
			log.Fatalf("stats: %v", err)
		}
		fmt.Printf("cluster: %d edges, %.2f MB across %d servers (%d shards x %d replicas)\n",
			st.NumEdges, float64(st.MemoryBytes)/(1<<20), client.NumServers(),
			client.NumShards(), client.NumReplicas())
		if m := client.RoutingMap(); m != nil {
			fmt.Printf("routing: epoch %d across %d server groups\n", m.Epoch, m.NumGroups())
		}
		if openLoop {
			snap := metrics.Snapshot()
			off, ack := offered.Load(), acked.Load()
			goodput := float64(ack) / elapsed.Seconds()
			fmt.Printf("open-loop: offered %d batches (%.0f/s), acked %d (%.0f/s goodput, %.1f%%), failed %d, dropped %d at client cap\n",
				off, float64(off)/elapsed.Seconds(), ack, goodput, 100*float64(ack)/float64(max(off, 1)), failed.Load(), droppedCap.Load())
			fmt.Printf("overload: shed_seen=%d budget_exhausted=%d deadline_expired=%d\n",
				snap.ShedSeen, snap.BudgetExhausted, snap.DeadlineExpired)
		}
		fmt.Printf("rpc: %s\n", metrics.Snapshot())
	}
}
