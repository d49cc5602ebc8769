// Package obs is the repo's unified observability layer: lock-cheap metric
// primitives (atomic counters, gauges, bounded log-scale latency histograms)
// plus a Registry that exposes everything in Prometheus text format and as
// JSON. Every layer with a hot path — cluster RPC, the samtree store, the
// sampling views, the prefetch pipeline, checkpointing — records into these
// primitives; the binaries serve one Registry per process on -metrics-addr
// through Serve.
//
// Design constraints, in order:
//
//  1. Hot-path cost: one atomic add for counters, two-three atomic adds for a
//     histogram observation. No locks, no allocation, no time formatting.
//  2. Zero values work: the existing per-package Metrics structs embed these
//     primitives by value, and their documented contract is "the zero value
//     is ready to use".
//  3. Exposition is pull-side work: quantile estimation, bucket scaling, and
//     text formatting all happen at scrape time, never at record time.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use. Counters must not be copied after first use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is a programming error but is not
// checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (queue depth, in-flight batches).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// HistogramVec is a lazily populated family of histograms sharing one metric
// name and distinguished by a single label value (e.g. per RPC method). The
// zero value is ready to use. Lookup is an RWMutex read on the hot path;
// callers on very hot paths can cache the *Histogram returned by With, since
// children are never removed.
type HistogramVec struct {
	mu sync.RWMutex
	m  map[string]*Histogram
}

// With returns the histogram for the given label value, creating it on first
// use.
func (v *HistogramVec) With(label string) *Histogram {
	v.mu.RLock()
	h := v.m[label]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.m == nil {
		v.m = make(map[string]*Histogram)
	}
	if h = v.m[label]; h == nil {
		h = &Histogram{}
		v.m[label] = h
	}
	return h
}

// Labels returns the label values present, in unspecified order.
func (v *HistogramVec) Labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, 0, len(v.m))
	for l := range v.m {
		out = append(out, l)
	}
	return out
}

// CounterVec is a lazily populated family of counters sharing one metric name
// and distinguished by a single label value. The zero value is ready to use.
// As with HistogramVec, children are never removed, so hot paths can cache
// the *Counter returned by With.
type CounterVec struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// With returns the counter for the given label value, creating it on first
// use.
func (v *CounterVec) With(label string) *Counter {
	v.mu.RLock()
	c := v.m[label]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.m == nil {
		v.m = make(map[string]*Counter)
	}
	if c = v.m[label]; c == nil {
		c = &Counter{}
		v.m[label] = c
	}
	return c
}

// Labels returns the label values present, in unspecified order.
func (v *CounterVec) Labels() []string {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]string, 0, len(v.m))
	for l := range v.m {
		out = append(out, l)
	}
	return out
}

// Sum returns the total across all children — the "family total" a summary
// line wants without re-walking labels.
func (v *CounterVec) Sum() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var n int64
	for _, c := range v.m {
		n += c.Load()
	}
	return n
}
