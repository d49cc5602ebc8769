package serve

import (
	"time"

	"platod2gl/internal/ann"
	"platod2gl/internal/obs"
)

// Metrics is the serving tier's instrumentation. New and NewRefresher
// allocate a private one when none is configured. The staleness pair is the
// contract the nightly churn drill asserts on: EmbeddingsStale counts
// vertices known-dirty but not yet re-embedded, RefreshLag measures how long
// each one stayed dirty.
type Metrics struct {
	EmbedRequests obs.Counter   // Embed calls admitted
	KNNRequests   obs.Counter   // KNN/KNNVector calls admitted
	Errors        obs.Counter   // requests that returned an error
	Shed          obs.Counter   // requests rejected at admission (deadline fired queueing)
	EmbedLatency  obs.Histogram // ns, Embed end-to-end
	KNNLatency    obs.Histogram // ns, KNN end-to-end (includes the fresh embed)

	EmbeddingsStale obs.Gauge     // dirty vertices awaiting re-embedding
	RefreshLag      obs.Histogram // ns from dirty-mark to re-indexed
	Refreshed       obs.Counter   // vertices re-embedded by the refresher
	RefreshPolls    obs.Counter   // digest polls completed
	RefreshErrors   obs.Counter   // poll or re-embed rounds that failed

	// Ann carries the index's own mutation counters.
	Ann ann.Metrics
}

// MetricsSnapshot is a plain-value copy for printing and JSON encoding.
type MetricsSnapshot struct {
	EmbedRequests   int64
	KNNRequests     int64
	Errors          int64
	Shed            int64
	EmbedP99Ns      float64
	KNNP99Ns        float64
	EmbeddingsStale int64
	RefreshLagP99Ns float64
	Refreshed       int64
	RefreshPolls    int64
	RefreshErrors   int64
}

// Snapshot copies the current values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		EmbedRequests:   m.EmbedRequests.Load(),
		KNNRequests:     m.KNNRequests.Load(),
		Errors:          m.Errors.Load(),
		Shed:            m.Shed.Load(),
		EmbedP99Ns:      m.EmbedLatency.Snapshot().P99(),
		KNNP99Ns:        m.KNNLatency.Snapshot().P99(),
		EmbeddingsStale: m.EmbeddingsStale.Load(),
		RefreshLagP99Ns: m.RefreshLag.Snapshot().P99(),
		Refreshed:       m.Refreshed.Load(),
		RefreshPolls:    m.RefreshPolls.Load(),
		RefreshErrors:   m.RefreshErrors.Load(),
	}
}

// Register attaches everything to r under the stable platod2gl_serve_*
// names documented in docs/OPERATIONS.md. Histograms are recorded in
// nanoseconds and exposed in seconds (scale 1e-9), matching the repo's
// exposition convention.
func (m *Metrics) Register(r *obs.Registry) {
	r.RegisterCounter("platod2gl_serve_embed_requests_total", "Embed requests admitted.", nil, &m.EmbedRequests)
	r.RegisterCounter("platod2gl_serve_knn_requests_total", "k-NN requests admitted.", nil, &m.KNNRequests)
	r.RegisterCounter("platod2gl_serve_errors_total", "Serving requests that returned an error.", nil, &m.Errors)
	r.RegisterCounter("platod2gl_serve_shed_total", "Requests rejected at admission (deadline fired while queued).", nil, &m.Shed)
	r.RegisterHistogram("platod2gl_serve_embed_seconds", "Embed latency.", nil, 1e-9, &m.EmbedLatency)
	r.RegisterHistogram("platod2gl_serve_knn_seconds", "k-NN latency (includes the fresh query embed).", nil, 1e-9, &m.KNNLatency)
	r.RegisterGauge("platod2gl_serve_embeddings_stale", "Vertices known-dirty and awaiting re-embedding.", nil, &m.EmbeddingsStale)
	r.RegisterHistogram("platod2gl_serve_refresh_lag_seconds", "Time from a vertex turning dirty to its embedding re-indexed.", nil, 1e-9, &m.RefreshLag)
	r.RegisterCounter("platod2gl_serve_refreshed_total", "Vertices re-embedded by the refresher.", nil, &m.Refreshed)
	r.RegisterCounter("platod2gl_serve_refresh_polls_total", "Change-source digest polls completed.", nil, &m.RefreshPolls)
	r.RegisterCounter("platod2gl_serve_refresh_errors_total", "Refresher rounds that failed (poll or re-embed).", nil, &m.RefreshErrors)
	m.Ann.Register(r)
}

// RegisterIndexGauges exposes the engine's index size and tombstone count as
// computed gauges — the index already tracks both, so no second copy drifts.
func (e *Engine) RegisterIndexGauges(r *obs.Registry) {
	r.GaugeFunc("platod2gl_serve_index_size", "Live vectors in the serving ANN index.", nil,
		func() float64 { return float64(e.index.Len()) })
	r.GaugeFunc("platod2gl_serve_index_tombstones", "Tombstoned vectors awaiting compaction.", nil,
		func() float64 { return float64(e.index.Tombstones()) })
}

func (m *Metrics) observeEmbed(start time.Time, err error) {
	m.EmbedRequests.Inc()
	m.EmbedLatency.ObserveSince(start)
	if err != nil {
		m.Errors.Inc()
	}
}

func (m *Metrics) observeKNN(start time.Time, err error) {
	m.KNNRequests.Inc()
	m.KNNLatency.ObserveSince(start)
	if err != nil {
		m.Errors.Inc()
	}
}
