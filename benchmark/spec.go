package main

import "time"

// The names, units, directions and bounds below are the contract that
// BENCHMARK.json at the root of the repository states; a test holds the two
// equal.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is reported by every workload, each for its own request.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"bytes_per_edge", "B", "lower", 0.02},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer comes from the traced run. A workload that never enters a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"storage.sample_ns_per_draw", "ns", "lower", 0},
	{"storage.sample_busy_share", "share", "lower", 0},
	{"storage.apply_ns_per_event", "ns", "lower", 0},
	{"storage.apply_busy_share", "share", "lower", 0},
	{"storage.leaf_update_share", "share", "higher", 0},
	{"storage.mem_bytes", "B", "lower", 0},
	{"sampler.subgraph_self_us", "us", "lower", 0},
	{"sampler.allocs_per_call", "count", "lower", 0},
	{"kvstore.gather_ns_per_row", "ns", "lower", 0},
	{"kvstore.rows_per_batch", "count", "lower", 0},
	{"view.sample_subgraph_ms", "ms", "lower", 0},
	{"view.features_ms", "ms", "lower", 0},
	{"view.labels_ms", "ms", "lower", 0},
	{"view.feature_rows_per_seed", "count", "lower", 0},
	{"view.dup_row_share", "share", "lower", 0},
	{"cluster.client_self_us_per_call", "us", "lower", 0},
	{"cluster.server_self_us_per_call", "us", "lower", 0},
	{"cluster.calls_per_batch", "count", "lower", 0},
	{"cluster.coalesced_seed_share", "share", "higher", 0},
	{"cluster.retries", "count", "lower", 0},
	{"cluster.shed", "count", "lower", 0},
	{"cluster.apply_self_ms_per_batch", "ms", "lower", 0},
	{"wire.bytes_per_batch", "B", "lower", 0},
	{"wire.frames_per_batch", "count", "lower", 0},
	{"wire.bytes_per_event", "B", "lower", 0},
	{"wire.read_wait_share", "share", "lower", 0},
	{"eventlog.append_us_per_batch", "us", "lower", 0},
	{"eventlog.bytes_per_event", "B", "lower", 0},
	{"pipeline.build_ms_per_batch", "ms", "lower", 0},
	{"pipeline.stall_share", "share", "lower", 0},
	{"pipeline.hit_rate", "share", "higher", 0},
	{"gnn.train_step_ms", "ms", "lower", 0},
	{"gnn.forward_ms", "ms", "lower", 0},
	{"gnn.busy_share", "share", "higher", 0},
	{"serve.knn_self_us", "us", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.refresh_lag_s", "s", "lower", 0},
	{"serve.refresh_p99_ms", "ms", "lower", 0},
	{"serve.refresh_fail_share", "share", "lower", 0},
	{"serve.slo_rate_per_s", "1/s", "higher", 0},
	{"serve.rung1_p50_ms", "ms", "lower", 0},
	{"serve.rung1_p99_ms", "ms", "lower", 0},
	{"serve.rung2_p50_ms", "ms", "lower", 0},
	{"serve.rung2_p99_ms", "ms", "lower", 0},
	{"serve.rung3_p50_ms", "ms", "lower", 0},
	{"serve.rung3_p99_ms", "ms", "lower", 0},
	{"serve.rung4_p50_ms", "ms", "lower", 0},
	{"serve.rung4_p99_ms", "ms", "lower", 0},
	{"ann.search_us", "us", "lower", 0},
	{"ann.insert_us", "us", "lower", 0},
	{"ann.compactions", "count", "lower", 0},
	{"ann.recall_at_10", "share", "higher", 0},
	{"ingest.batch_p50_ms", "ms", "lower", 0},
	{"ingest.batch_p99_ms", "ms", "lower", 0},
	{"bench.latency_p99_ms", "ms", "lower", 0},
	{"bench.error_share", "share", "lower", 0},
	{"bench.trace_overhead_share", "share", "lower", 0},
	{"bench.unattributed_share", "share", "lower", 0},
	{"bench.generator_lag_p99_ms", "ms", "lower", 0},
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	make func() workload
}

var workloads = []workloadDef{
	{"sample-2hop", "closed loop on one in-process store: storage, core, fenwick, compress and cuckoo do the work; cluster, wire, kvstore and gnn do none",
		func() workload { return &sample2hop{} }},
	{"train-cluster", "GraphSAGE batches over a 2-shard TCP cluster: client fan-out, codecs, feature fetch and gnn share the time; samtree descent is a small slice",
		func() workload { return &trainCluster{} }},
	{"ingest-mixed", "a batch writer beside a paced reader on a replicated cluster with a WAL: the update path, and what writes cost concurrent reads",
		func() workload { return &ingestMixed{} }},
	{"serve-knn", "open-loop KNN queries under a latency limit with graph churn: the only user of serve and ann, sampling in tiny per-request fan-outs",
		func() workload { return &serveKNN{} }},
}

// sizes are the inputs' dimensions. full is what the driver measures; tiny
// is the same program on a graph small enough for a one-second smoke test.
type sizes struct {
	warmup       time.Duration
	setupRepeats int

	sampleEvents, sampleSeeds, sampleF1, sampleF2 int

	trainEvents, trainBatch, trainF1, trainF2 int
	dim, hidden, classes                      int
	maxLoss, minAccuracy                      float64

	ingestPreload, ingestBatch          int // forward events; each has a mirror
	ingestMeasureAt                     int // stream position at which bytes per edge is read
	readRate                            float64
	readSeeds, readFanout               int
	readDeadline                        time.Duration
	serveEvents                         int
	serveF1, serveF2, serveK, warmBatch int
	serveRates                          [4]float64 // the open-loop ladder, queries per second
	churnRate                           float64    // events per second
	churnBatch                          int
	refreshEvery                        time.Duration
	knnDeadline, knnLimit               time.Duration
	minRecall                           float64
}

var full = sizes{
	warmup:       2 * time.Second,
	setupRepeats: 3,

	sampleEvents: 500_000, sampleSeeds: 512, sampleF1: 25, sampleF2: 10,

	trainEvents: 100_000, trainBatch: 256, trainF1: 10, trainF2: 5,
	dim: 64, hidden: 32, classes: 8,
	maxLoss: 0.1, minAccuracy: 0.95,

	ingestPreload: 100_000, ingestBatch: 2048, ingestMeasureAt: 1_000_000,
	readRate: 100, readSeeds: 256, readFanout: 10, readDeadline: time.Second,

	serveEvents: 160_000, serveF1: 8, serveF2: 5, serveK: 10, warmBatch: 256,
	serveRates: [4]float64{100, 300, 600, 1000},
	churnRate:  500, churnBatch: 50, refreshEvery: time.Second,
	knnDeadline: 250 * time.Millisecond, knnLimit: 20 * time.Millisecond,
	minRecall: 0.9,
}

var tiny = sizes{
	warmup:       100 * time.Millisecond,
	setupRepeats: 1,

	sampleEvents: 20_000, sampleSeeds: 64, sampleF1: 5, sampleF2: 3,

	trainEvents: 5_000, trainBatch: 32, trainF1: 4, trainF2: 3,
	dim: 16, hidden: 8, classes: 4,
	maxLoss: 10, minAccuracy: 0,

	ingestPreload: 5_000, ingestBatch: 256, ingestMeasureAt: 10_000,
	readRate: 50, readSeeds: 32, readFanout: 5, readDeadline: time.Second,

	serveEvents: 5_000, serveF1: 4, serveF2: 3, serveK: 10, warmBatch: 64,
	serveRates: [4]float64{20, 40, 60, 80},
	churnRate:  100, churnBatch: 10, refreshEvery: 200 * time.Millisecond,
	knnDeadline: 500 * time.Millisecond, knnLimit: 200 * time.Millisecond,
	minRecall: 0.9,
}
