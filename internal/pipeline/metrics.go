// Prefetch observability: did the pipeline actually hide storage latency?
// A healthy pipelined epoch shows mostly prefetch hits (the next batch was
// ready before the trainer asked) and little stall time; a stall-dominated
// epoch means depth/workers are too low for the backend's latency. Counters
// are cheap atomics, plus per-stage latency histograms (build / queue wait /
// consumer stall), all exposed through the unified internal/obs registry.
package pipeline

import (
	"fmt"
	"time"

	"platod2gl/internal/obs"
)

// Metrics aggregates prefetch counters and per-stage histograms. The zero
// value is ready to use; Run allocates a private one when Config.Metrics is
// nil.
type Metrics struct {
	BatchesBuilt obs.Counter // batch builds completed by workers
	BuildNanos   obs.Counter // total time spent building batches
	PrefetchHits obs.Counter // Next() served an already-buffered batch
	Stalls       obs.Counter // Next() had to wait for the batch
	StallNanos   obs.Counter // total time the consumer spent waiting

	// Per-stage latency histograms (nanoseconds). Build covers one load()
	// call; Wait covers a built batch sitting queued until the consumer
	// takes it; Deliver covers the consumer-visible stall inside Next().
	BuildLatency   obs.Histogram
	WaitLatency    obs.Histogram
	DeliverLatency obs.Histogram
}

// MetricsSnapshot is a plain-value copy for printing and JSON encoding.
type MetricsSnapshot struct {
	BatchesBuilt int64
	BuildNanos   int64
	PrefetchHits int64
	Stalls       int64
	StallNanos   int64
}

// Snapshot copies the current counter values.
// A nil m reads as zero, for callers that left Config.Metrics unset.
func (m *Metrics) Snapshot() MetricsSnapshot {
	if m == nil {
		return MetricsSnapshot{}
	}
	return MetricsSnapshot{
		BatchesBuilt: m.BatchesBuilt.Load(),
		BuildNanos:   m.BuildNanos.Load(),
		PrefetchHits: m.PrefetchHits.Load(),
		Stalls:       m.Stalls.Load(),
		StallNanos:   m.StallNanos.Load(),
	}
}

// HitRate returns the fraction of consumer reads served without stalling.
func (s MetricsSnapshot) HitRate() float64 {
	total := s.PrefetchHits + s.Stalls
	if total == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(total)
}

// String renders the snapshot compactly for logs and epoch reports.
func (s MetricsSnapshot) String() string {
	return fmt.Sprintf("built=%d build_time=%s hits=%d stalls=%d stall_time=%s hit_rate=%.2f",
		s.BatchesBuilt, time.Duration(s.BuildNanos), s.PrefetchHits, s.Stalls,
		time.Duration(s.StallNanos), s.HitRate())
}

// Register attaches every counter and histogram to r under the stable
// platod2gl_pipeline_* names documented in docs/OPERATIONS.md.
func (m *Metrics) Register(r *obs.Registry) {
	for _, c := range []struct {
		name, help string
		c          *obs.Counter
	}{
		{"platod2gl_pipeline_batches_built_total", "Batch builds completed by prefetch workers.", &m.BatchesBuilt},
		{"platod2gl_pipeline_build_nanos_total", "Total nanoseconds spent building batches.", &m.BuildNanos},
		{"platod2gl_pipeline_prefetch_hits_total", "Consumer reads served from an already-buffered batch.", &m.PrefetchHits},
		{"platod2gl_pipeline_stalls_total", "Consumer reads that had to wait for the batch.", &m.Stalls},
		{"platod2gl_pipeline_stall_nanos_total", "Total nanoseconds the consumer spent waiting.", &m.StallNanos},
	} {
		r.RegisterCounter(c.name, c.help, nil, c.c)
	}
	r.RegisterHistogram("platod2gl_pipeline_build_latency_seconds",
		"Per-attempt batch build latency (sampling + feature fetch + assembly).", nil, 1e-9, &m.BuildLatency)
	r.RegisterHistogram("platod2gl_pipeline_wait_latency_seconds",
		"Time a built batch sat queued before the consumer took it.", nil, 1e-9, &m.WaitLatency)
	r.RegisterHistogram("platod2gl_pipeline_deliver_latency_seconds",
		"Consumer-visible stall time inside Next().", nil, 1e-9, &m.DeliverLatency)
}

func (m *Metrics) addBuild(d time.Duration) {
	m.BatchesBuilt.Add(1)
	m.BuildNanos.Add(int64(d))
	m.BuildLatency.Observe(int64(d))
}

func (m *Metrics) observeWait(builtAt time.Time) {
	if !builtAt.IsZero() {
		m.WaitLatency.ObserveSince(builtAt)
	}
}

func (m *Metrics) addStall(d time.Duration) {
	m.Stalls.Add(1)
	m.StallNanos.Add(int64(d))
	m.DeliverLatency.Observe(int64(d))
}
