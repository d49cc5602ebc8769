// Samtree operation observability: latency histograms and op counters for
// the store's hot paths (insert, delete, weighted/uniform sampling, PALM
// batches). Metrics stay strictly optional on this hot path: a nil *Metrics
// costs one branch per operation and no clock read, which keeps the sampling
// loop clock-free when nothing scrapes it.
package storage

import (
	"time"

	"platod2gl/internal/obs"
)

// Metrics aggregates per-operation counters and latency histograms for a
// DynamicStore. The zero value is ready to use; the timing helpers are safe
// on a nil receiver.
type Metrics struct {
	Inserts     obs.Counter // AddEdge calls
	Deletes     obs.Counter // DeleteEdge calls
	Samples     obs.Counter // sources sampled, weighted or uniform
	Batches     obs.Counter // ApplyBatch calls
	BatchEvents obs.Counter // events applied through ApplyBatch

	InsertLatency obs.Histogram // nanoseconds per AddEdge
	DeleteLatency obs.Histogram // nanoseconds per DeleteEdge
	SampleLatency obs.Histogram // nanoseconds per sampled source (all its draws), not per draw
	BatchLatency  obs.Histogram // nanoseconds per ApplyBatch (all workers)
}

// Register attaches every counter and histogram to r under the stable
// platod2gl_storage_* names documented in docs/OPERATIONS.md.
func (m *Metrics) Register(r *obs.Registry) {
	for _, c := range []struct {
		name, help string
		c          *obs.Counter
	}{
		{"platod2gl_storage_inserts_total", "Single-edge AddEdge calls.", &m.Inserts},
		{"platod2gl_storage_deletes_total", "Single-edge DeleteEdge calls.", &m.Deletes},
		{"platod2gl_storage_samples_total", "Sources sampled, weighted and uniform (one per frontier source).", &m.Samples},
		{"platod2gl_storage_batches_total", "PALM batch applications.", &m.Batches},
		{"platod2gl_storage_batch_events_total", "Events applied through ApplyBatch.", &m.BatchEvents},
	} {
		r.RegisterCounter(c.name, c.help, nil, c.c)
	}
	r.RegisterHistogram("platod2gl_storage_insert_latency_seconds",
		"Samtree single-edge insert latency.", nil, 1e-9, &m.InsertLatency)
	r.RegisterHistogram("platod2gl_storage_delete_latency_seconds",
		"Samtree single-edge delete latency.", nil, 1e-9, &m.DeleteLatency)
	r.RegisterHistogram("platod2gl_storage_sample_latency_seconds",
		"Neighbor-sampling latency per frontier source (all its draws, not one).", nil, 1e-9, &m.SampleLatency)
	r.RegisterHistogram("platod2gl_storage_batch_latency_seconds",
		"PALM batch application latency (all workers).", nil, 1e-9, &m.BatchLatency)
}

// startTimer reads the clock only when metrics are enabled, so disabled
// stores pay a single nil check per operation.
func (m *Metrics) startTimer() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

func (m *Metrics) observeInsert(start time.Time) {
	if m != nil {
		m.Inserts.Add(1)
		m.InsertLatency.ObserveSince(start)
	}
}

func (m *Metrics) observeDelete(start time.Time) {
	if m != nil {
		m.Deletes.Add(1)
		m.DeleteLatency.ObserveSince(start)
	}
}

func (m *Metrics) observeSample(start time.Time) {
	if m != nil {
		m.Samples.Add(1)
		m.SampleLatency.ObserveSince(start)
	}
}

func (m *Metrics) observeBatch(start time.Time, events int) {
	if m != nil {
		m.Batches.Add(1)
		m.BatchEvents.Add(int64(events))
		m.BatchLatency.ObserveSince(start)
	}
}
