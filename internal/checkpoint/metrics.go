// Checkpoint observability: how often the session persisted, how much it
// wrote, and whether resume ever had to skip a torn file. Counters are cheap
// atomics, plus save/load latency histograms, all exposed through the
// unified internal/obs registry.
package checkpoint

import (
	"fmt"

	"platod2gl/internal/obs"
)

// Metrics aggregates checkpoint counters and latency histograms. The zero
// value is ready to use; Save and LoadLatest allocate a private one when
// none is passed.
type Metrics struct {
	Saves      obs.Counter // checkpoints written successfully
	SaveErrors obs.Counter // failed save attempts
	SaveBytes  obs.Counter // total bytes written
	Pruned     obs.Counter // old checkpoints removed by rotation
	Loads      obs.Counter // checkpoints loaded successfully
	Skipped    obs.Counter // torn/corrupt files skipped by LoadLatest

	SaveLatency obs.Histogram // nanoseconds per successful save (write + fsync + rename)
	LoadLatency obs.Histogram // nanoseconds per successful LoadLatest
}

// MetricsSnapshot is a plain-value copy for printing and JSON encoding.
type MetricsSnapshot struct {
	Saves      int64
	SaveErrors int64
	SaveBytes  int64
	Pruned     int64
	Loads      int64
	Skipped    int64
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Saves:      m.Saves.Load(),
		SaveErrors: m.SaveErrors.Load(),
		SaveBytes:  m.SaveBytes.Load(),
		Pruned:     m.Pruned.Load(),
		Loads:      m.Loads.Load(),
		Skipped:    m.Skipped.Load(),
	}
}

// String renders the snapshot compactly for logs and session reports.
func (s MetricsSnapshot) String() string {
	return fmt.Sprintf("saves=%d save_errors=%d bytes=%d pruned=%d loads=%d skipped=%d",
		s.Saves, s.SaveErrors, s.SaveBytes, s.Pruned, s.Loads, s.Skipped)
}

// Register attaches every counter and histogram to r under the stable
// platod2gl_checkpoint_* names documented in docs/OPERATIONS.md.
func (m *Metrics) Register(r *obs.Registry) {
	for _, c := range []struct {
		name, help string
		c          *obs.Counter
	}{
		{"platod2gl_checkpoint_saves_total", "Checkpoints written successfully.", &m.Saves},
		{"platod2gl_checkpoint_save_errors_total", "Failed checkpoint save attempts.", &m.SaveErrors},
		{"platod2gl_checkpoint_save_bytes_total", "Total checkpoint bytes written.", &m.SaveBytes},
		{"platod2gl_checkpoint_pruned_total", "Old checkpoints removed by rotation.", &m.Pruned},
		{"platod2gl_checkpoint_loads_total", "Checkpoints loaded successfully.", &m.Loads},
		{"platod2gl_checkpoint_skipped_total", "Torn or corrupt checkpoint files skipped on resume.", &m.Skipped},
	} {
		r.RegisterCounter(c.name, c.help, nil, c.c)
	}
	r.RegisterHistogram("platod2gl_checkpoint_save_latency_seconds",
		"Latency of one successful checkpoint save (write + fsync + rename).", nil, 1e-9, &m.SaveLatency)
	r.RegisterHistogram("platod2gl_checkpoint_load_latency_seconds",
		"Latency of one successful checkpoint resume.", nil, 1e-9, &m.LoadLatency)
}
