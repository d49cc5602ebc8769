// Fault-tolerance and RPC observability for the cluster tier, built on the
// unified internal/obs primitives: counters for the retry/breaker/failover
// machinery and the replica catch-up path, plus per-method latency and
// payload-size histograms on both sides of every RPC. Counters and histogram
// observations are cheap atomics on the hot path; a Metrics value may be
// shared between a client and a service (the server binary does exactly
// that) so one endpoint reports both sides.
package cluster

import (
	"fmt"
	"time"

	"platod2gl/internal/obs"
)

// Metrics aggregates fault-tolerance counters and RPC histograms. The zero
// value is ready to use. Every holder in this package has a non-nil one:
// NewService, NewClientOptions, SyncFromPeer, NewScrubber and MigrateShard
// allocate a private instance when none is configured, so call sites update
// the fields directly.
type Metrics struct {
	// Client call path.
	RPCAttempts  obs.Counter // network attempts (including retries)
	RPCTimeouts  obs.Counter // attempts that hit Options.CallTimeout
	RPCRetries   obs.Counter // attempts beyond the first for one call
	BreakerOpens obs.Counter // circuit-breaker closed->open transitions

	// Replica read/write fan-out.
	ReadFailovers obs.Counter // reads that moved on past a failed replica
	StaleMarks    obs.Counter // replicas marked stale after a missed write

	// DegradedShards counts shard sub-requests of a sampling fan-out that
	// Options.Degraded answered with self-loops.
	DegradedShards obs.Counter

	// Sampling-payload coalescing: duplicate seeds deduplicated out of
	// SampleNeighbors/SampleSubgraph fan-outs (multi-hop frontiers repeat
	// vertices heavily) and the approximate wire bytes that saved.
	CoalescedSeeds obs.Counter // duplicate seeds removed from payloads
	CoalescedBytes obs.Counter // request+reply bytes saved by coalescing

	// CoalescedRows counts duplicate ids deduplicated out of Features,
	// FeaturesLabels and Degree fan-outs. It is kept apart from
	// CoalescedSeeds, which counts sampling seeds only.
	CoalescedRows obs.Counter

	// Catch-up (both directions: served by a live peer, pulled by a
	// rejoining replica).
	CatchUps          obs.Counter // completed SyncFromPeer runs
	CatchUpBytes      obs.Counter // snapshot bytes pulled during catch-up
	CatchUpBatches    obs.Counter // WAL-tail batches applied during catch-up
	SnapshotsServed   obs.Counter // FetchSnapshot calls answered
	TailBatchesServed obs.Counter // WAL-tail batches streamed to replicas

	// Routing and live shard migration (see shardmap.go, migrate.go).
	Reroutes         obs.Counter // operations re-routed after a NotOwner bounce
	RoutingRefreshes obs.Counter // shard-map refreshes that advanced the epoch
	NotOwnerRejects  obs.Counter // routed requests rejected for wrong ownership
	ShardsMigrated   obs.Counter // shard migrations completed through cutover
	MigrationBytes   obs.Counter // snapshot+feature bytes copied by migrations
	MigrationBatches obs.Counter // WAL-tail batches replayed by migrations
	MigrationAborts  obs.Counter // migrations aborted (or failed) before cutover
	CutoverNanos     obs.Counter // cumulative park-to-routing-flip time, ns

	// Anti-entropy (see antientropy.go): periodic digest comparison across
	// replica groups, on-disk CRC verification, and divergence repair.
	ScrubRounds        obs.Counter // completed scrub rounds
	DigestMismatches   obs.Counter // replica digest comparisons that disagreed
	CorruptionDetected obs.Counter // payload-checksum or on-disk CRC failures
	RepairsTriggered   obs.Counter // SyncFromPeer repairs launched by the scrubber
	RepairBytes        obs.Counter // snapshot+attr bytes pulled by repairs

	// Wire-protocol handshakes (see transport.go, dispatch.go).
	WireHandshakes obs.Counter // successful binary-protocol handshakes (both sides)

	// Overload protection (see admission.go). Server side: shed requests by
	// method and priority, budget fast-rejects, refused connections, queue
	// depth and wait per priority class. Client side: shed responses seen
	// and calls fast-failed on an exhausted budget.
	RequestsShed        obs.CounterVec   // key "method|priority"
	DeadlineExpired     obs.Counter      // requests fast-rejected: budget < observed service time
	ConnectionsRejected obs.Counter      // connections refused at the accept-side caps
	AdmissionQueueDepth [3]obs.Gauge     // queued requests, indexed by Priority
	AdmissionWait       obs.HistogramVec // admission queue wait, ns, label = priority
	ShedSeen            obs.Counter      // shed responses observed by the client
	BudgetExhausted     obs.Counter      // calls fast-failed client-side, deadline spent

	// Per-method histograms. Client latency covers one network attempt
	// (dial + call, excluding backoff sleeps); server latency covers one
	// handler execution; payload bytes are the exact framed request+reply
	// wire size per served call (transport-recorded).
	ClientLatency obs.HistogramVec // nanoseconds, label = method
	ServerLatency obs.HistogramVec // nanoseconds, label = method
	PayloadBytes  obs.HistogramVec // bytes, label = method

	// ScrubLatency tracks whole scrub-round duration (digest fetches +
	// disk verification, excluding any repair it triggers), nanoseconds.
	ScrubLatency obs.Histogram
}

// MetricsSnapshot is a plain-value copy of the counters for printing and
// JSON encoding.
type MetricsSnapshot struct {
	RPCAttempts        int64
	RPCTimeouts        int64
	RPCRetries         int64
	BreakerOpens       int64
	ReadFailovers      int64
	StaleMarks         int64
	DegradedShards     int64
	CoalescedSeeds     int64
	CoalescedBytes     int64
	CoalescedRows      int64
	CatchUps           int64
	CatchUpBytes       int64
	CatchUpBatches     int64
	SnapshotsServed    int64
	TailBatchesServed  int64
	Reroutes           int64
	RoutingRefreshes   int64
	NotOwnerRejects    int64
	ShardsMigrated     int64
	MigrationBytes     int64
	MigrationBatches   int64
	MigrationAborts    int64
	CutoverNanos       int64
	ScrubRounds        int64
	DigestMismatches   int64
	CorruptionDetected int64
	RepairsTriggered   int64
	RepairBytes        int64
	WireHandshakes     int64
	RequestsShed       int64
	DeadlineExpired    int64
	ConnsRejected      int64
	ShedSeen           int64
	BudgetExhausted    int64
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		RPCAttempts:        m.RPCAttempts.Load(),
		RPCTimeouts:        m.RPCTimeouts.Load(),
		RPCRetries:         m.RPCRetries.Load(),
		BreakerOpens:       m.BreakerOpens.Load(),
		ReadFailovers:      m.ReadFailovers.Load(),
		StaleMarks:         m.StaleMarks.Load(),
		DegradedShards:     m.DegradedShards.Load(),
		CoalescedSeeds:     m.CoalescedSeeds.Load(),
		CoalescedBytes:     m.CoalescedBytes.Load(),
		CoalescedRows:      m.CoalescedRows.Load(),
		CatchUps:           m.CatchUps.Load(),
		CatchUpBytes:       m.CatchUpBytes.Load(),
		CatchUpBatches:     m.CatchUpBatches.Load(),
		SnapshotsServed:    m.SnapshotsServed.Load(),
		TailBatchesServed:  m.TailBatchesServed.Load(),
		Reroutes:           m.Reroutes.Load(),
		RoutingRefreshes:   m.RoutingRefreshes.Load(),
		NotOwnerRejects:    m.NotOwnerRejects.Load(),
		ShardsMigrated:     m.ShardsMigrated.Load(),
		MigrationBytes:     m.MigrationBytes.Load(),
		MigrationBatches:   m.MigrationBatches.Load(),
		MigrationAborts:    m.MigrationAborts.Load(),
		CutoverNanos:       m.CutoverNanos.Load(),
		ScrubRounds:        m.ScrubRounds.Load(),
		DigestMismatches:   m.DigestMismatches.Load(),
		CorruptionDetected: m.CorruptionDetected.Load(),
		RepairsTriggered:   m.RepairsTriggered.Load(),
		RepairBytes:        m.RepairBytes.Load(),
		WireHandshakes:     m.WireHandshakes.Load(),
		RequestsShed:       m.RequestsShed.Sum(),
		DeadlineExpired:    m.DeadlineExpired.Load(),
		ConnsRejected:      m.ConnectionsRejected.Load(),
		ShedSeen:           m.ShedSeen.Load(),
		BudgetExhausted:    m.BudgetExhausted.Load(),
	}
}

// String renders the snapshot compactly for loadgen summaries and logs.
func (s MetricsSnapshot) String() string {
	return fmt.Sprintf(
		"attempts=%d timeouts=%d retries=%d breaker_opens=%d failovers=%d stale_marks=%d degraded_shards=%d coalesced_seeds=%d coalesced_bytes=%d coalesced_rows=%d catchups=%d catchup_bytes=%d catchup_batches=%d "+
			"reroutes=%d routing_refreshes=%d not_owner_rejects=%d shards_migrated=%d migration_bytes=%d migration_batches=%d migration_aborts=%d cutover_ms=%d "+
			"scrub_rounds=%d digest_mismatches=%d corruption_detected=%d repairs_triggered=%d repair_bytes=%d "+
			"wire_handshakes=%d "+
			"shed=%d deadline_expired=%d conns_rejected=%d shed_seen=%d budget_exhausted=%d",
		s.RPCAttempts, s.RPCTimeouts, s.RPCRetries, s.BreakerOpens,
		s.ReadFailovers, s.StaleMarks, s.DegradedShards, s.CoalescedSeeds, s.CoalescedBytes, s.CoalescedRows,
		s.CatchUps, s.CatchUpBytes, s.CatchUpBatches,
		s.Reroutes, s.RoutingRefreshes, s.NotOwnerRejects, s.ShardsMigrated,
		s.MigrationBytes, s.MigrationBatches, s.MigrationAborts,
		s.CutoverNanos/int64(time.Millisecond),
		s.ScrubRounds, s.DigestMismatches, s.CorruptionDetected,
		s.RepairsTriggered, s.RepairBytes,
		s.WireHandshakes,
		s.RequestsShed, s.DeadlineExpired, s.ConnsRejected,
		s.ShedSeen, s.BudgetExhausted)
}

// Register attaches every counter and histogram to r under the stable
// platod2gl_cluster_* names documented in docs/OPERATIONS.md. The per-method
// histogram families are pre-seeded with the full RPC surface so /metrics
// exposes every series from the first scrape.
func (m *Metrics) Register(r *obs.Registry) {
	for _, c := range []struct {
		name, help string
		c          *obs.Counter
	}{
		{"platod2gl_cluster_rpc_attempts_total", "Client RPC network attempts, including retries.", &m.RPCAttempts},
		{"platod2gl_cluster_rpc_timeouts_total", "Client RPC attempts that hit the per-call timeout.", &m.RPCTimeouts},
		{"platod2gl_cluster_rpc_retries_total", "Client RPC attempts beyond the first for one call.", &m.RPCRetries},
		{"platod2gl_cluster_breaker_opens_total", "Circuit-breaker closed-to-open transitions.", &m.BreakerOpens},
		{"platod2gl_cluster_read_failovers_total", "Reads that moved past a failed replica.", &m.ReadFailovers},
		{"platod2gl_cluster_stale_marks_total", "Replicas marked stale after a missed write.", &m.StaleMarks},
		{"platod2gl_cluster_degraded_shards_total", "Shard sub-requests of a sampling fan-out answered with self-loops.", &m.DegradedShards},
		{"platod2gl_cluster_coalesced_seeds_total", "Duplicate seeds removed from sampling payloads.", &m.CoalescedSeeds},
		{"platod2gl_cluster_coalesced_bytes_total", "Approximate wire bytes saved by seed coalescing.", &m.CoalescedBytes},
		{"platod2gl_cluster_coalesced_rows_total", "Duplicate ids removed from feature, label and degree payloads.", &m.CoalescedRows},
		{"platod2gl_cluster_catchups_total", "Completed SyncFromPeer catch-up runs.", &m.CatchUps},
		{"platod2gl_cluster_catchup_bytes_total", "Snapshot bytes pulled during catch-up.", &m.CatchUpBytes},
		{"platod2gl_cluster_catchup_batches_total", "WAL-tail batches applied during catch-up.", &m.CatchUpBatches},
		{"platod2gl_cluster_snapshots_served_total", "FetchSnapshot calls answered for rejoining replicas.", &m.SnapshotsServed},
		{"platod2gl_cluster_tail_batches_served_total", "WAL-tail batches streamed to rejoining replicas.", &m.TailBatchesServed},
		{"platod2gl_cluster_reroutes_total", "Operations re-routed after a NotOwner bounce.", &m.Reroutes},
		{"platod2gl_cluster_routing_refreshes_total", "Shard-map refreshes that advanced the client's epoch.", &m.RoutingRefreshes},
		{"platod2gl_cluster_not_owner_rejects_total", "Routed requests rejected for wrong shard ownership.", &m.NotOwnerRejects},
		{"platod2gl_cluster_shards_migrated_total", "Shard migrations completed through cutover.", &m.ShardsMigrated},
		{"platod2gl_cluster_migration_bytes_total", "Snapshot and feature bytes copied by shard migrations.", &m.MigrationBytes},
		{"platod2gl_cluster_migration_batches_total", "WAL-tail batches replayed by shard migrations.", &m.MigrationBatches},
		{"platod2gl_cluster_migration_aborts_total", "Shard migrations aborted or failed before cutover.", &m.MigrationAborts},
		{"platod2gl_cluster_cutover_nanoseconds_total", "Cumulative shard-cutover (park to routing flip) time.", &m.CutoverNanos},
		{"platod2gl_cluster_scrub_rounds_total", "Completed anti-entropy scrub rounds.", &m.ScrubRounds},
		{"platod2gl_cluster_digest_mismatches_total", "Replica digest comparisons that disagreed.", &m.DigestMismatches},
		{"platod2gl_cluster_corruption_detected_total", "Payload-checksum and on-disk CRC failures detected.", &m.CorruptionDetected},
		{"platod2gl_cluster_repairs_triggered_total", "Replica repairs launched by the scrubber.", &m.RepairsTriggered},
		{"platod2gl_cluster_repair_bytes_total", "Snapshot and attribute bytes pulled by repairs.", &m.RepairBytes},
		{"platod2gl_cluster_wire_handshakes_total", "Successful binary wire-protocol handshakes.", &m.WireHandshakes},
		{"platod2gl_cluster_deadline_expired_total", "Requests fast-rejected because the propagated budget was below observed service time.", &m.DeadlineExpired},
		{"platod2gl_cluster_connections_rejected_total", "Connections refused at the server's accept-side caps.", &m.ConnectionsRejected},
		{"platod2gl_cluster_shed_seen_total", "Shed responses observed by the client.", &m.ShedSeen},
		{"platod2gl_cluster_budget_exhausted_total", "Calls fast-failed client-side because the caller's deadline budget was spent.", &m.BudgetExhausted},
	} {
		r.RegisterCounter(c.name, c.help, nil, c.c)
	}
	// Pre-seed the per-method families so a scrape sees every series from
	// the first request. "Handshake" is the wire-protocol hello/ack exchange
	// (see transport.go), which has client latency and a fixed 16-byte
	// payload but no wireMethods row.
	methods := []string{"Handshake"}
	for _, wm := range wireMethods {
		methods = append(methods, wm.name)
	}
	for _, meth := range methods {
		m.ClientLatency.With(meth)
		m.ServerLatency.With(meth)
		m.PayloadBytes.With(meth)
		for _, pri := range priorityNames {
			m.RequestsShed.With(meth + "|" + pri)
		}
	}
	for _, pri := range priorityNames {
		m.AdmissionWait.With(pri)
	}
	r.RegisterCounterVec2("platod2gl_cluster_requests_shed_total",
		"Requests shed by the server's admission gate.", "method", "priority", &m.RequestsShed)
	r.RegisterHistogramVec("platod2gl_cluster_admission_wait_seconds",
		"Time requests spent queued at the admission gate.", "priority", 1e-9, &m.AdmissionWait)
	for i, pri := range priorityNames {
		r.RegisterGauge("platod2gl_cluster_admission_queue_depth",
			"Requests queued at the admission gate.", obs.Labels{"priority": pri}, &m.AdmissionQueueDepth[i])
	}
	r.RegisterHistogramVec("platod2gl_cluster_rpc_client_latency_seconds",
		"Per-attempt client-side RPC latency.", "method", 1e-9, &m.ClientLatency)
	r.RegisterHistogramVec("platod2gl_cluster_rpc_server_latency_seconds",
		"Server-side RPC handler latency.", "method", 1e-9, &m.ServerLatency)
	r.RegisterHistogramVec("platod2gl_cluster_rpc_payload_bytes",
		"Exact framed request+reply wire bytes per served RPC.", "method", 1, &m.PayloadBytes)
	r.RegisterHistogram("platod2gl_cluster_scrub_latency_seconds",
		"Whole scrub-round duration, excluding triggered repairs.", nil, 1e-9, &m.ScrubLatency)
}

// observeClientCall records one client-side network attempt's latency.
func (m *Metrics) observeClientCall(method string, start time.Time) {
	m.ClientLatency.With(method).ObserveSince(start)
}

func (m *Metrics) incShed(method string, pri Priority) {
	m.RequestsShed.With(method + "|" + pri.String()).Add(1)
}

func (m *Metrics) setQueueDepth(pri Priority, n int64) {
	if int(pri) < len(m.AdmissionQueueDepth) {
		m.AdmissionQueueDepth[pri].Set(n)
	}
}

func (m *Metrics) observeAdmissionWait(pri Priority, d time.Duration) {
	m.AdmissionWait.With(pri.String()).Observe(int64(d))
}

// Approximate wire sizes of the variable-length payload components, used
// only for byte *accounting* counters (coalescing savings, migration and
// repair byte totals) — the rpc_payload_bytes histogram records exact framed
// sizes from the transport instead.
const (
	approxVertexIDBytes = 8
	approxEventBytes    = 34 // kind + src + dst + type + weight + timestamp
	approxFloat32Bytes  = 4
	approxLabelBytes    = 4
)

func approxIDs(n int) int64    { return int64(n) * approxVertexIDBytes }
func approxEvents(n int) int64 { return int64(n) * approxEventBytes }
func approxFloats(n int) int64 { return int64(n) * approxFloat32Bytes }
func approxLabels(n int) int64 { return int64(n) * approxLabelBytes }
