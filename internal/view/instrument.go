// Per-call GraphView latency instrumentation: a transparent wrapper that
// times every view call into a per-method histogram family. It composes with
// any backend (Local, Cluster) and, wrapped around a Cluster view, measures
// what the trainer experiences, the client's retries included.
package view

import (
	"time"

	"platod2gl/internal/graph"
	"platod2gl/internal/obs"
)

// viewCalls is the full GraphView call surface plus FeatureLabeler's, used
// to pre-seed the histogram family so a scrape sees every series before
// traffic.
var viewCalls = []string{
	"SampleNeighbors", "SampleSubgraph", "Degrees", "Features", "Labels", "Sources", "FeaturesLabels",
}

// CallMetrics holds the per-call latency family plus call/error counters.
// The zero value is ready to use.
type CallMetrics struct {
	Calls   obs.Counter      // view calls completed (any outcome)
	Errors  obs.Counter      // view calls that returned an error
	Latency obs.HistogramVec // nanoseconds, label = call
}

// Register attaches the family to r under the stable platod2gl_view_call_*
// names, pre-seeded with every GraphView call.
func (m *CallMetrics) Register(r *obs.Registry) {
	r.RegisterCounter("platod2gl_view_calls_total", "GraphView calls completed.", nil, &m.Calls)
	r.RegisterCounter("platod2gl_view_call_errors_total", "GraphView calls that returned an error.", nil, &m.Errors)
	for _, c := range viewCalls {
		m.Latency.With(c)
	}
	r.RegisterHistogramVec("platod2gl_view_call_latency_seconds",
		"Per-call GraphView latency (sampling, feature fetch, labels, degrees).", "call", 1e-9, &m.Latency)
}

func (m *CallMetrics) observe(call string, start time.Time, err error) {
	m.Calls.Add(1)
	if err != nil {
		m.Errors.Add(1)
	}
	m.Latency.With(call).ObserveSince(start)
}

// Instrumented wraps an inner GraphView, timing every call into m.
type Instrumented struct {
	inner GraphView
	m     *CallMetrics
}

var (
	_ GraphView      = (*Instrumented)(nil)
	_ FeatureLabeler = (*Instrumented)(nil)
)

// Instrument wraps v so every call is timed into m. A nil m returns v
// unchanged — instrumentation stays optional with zero indirection cost.
func Instrument(v GraphView, m *CallMetrics) GraphView {
	if m == nil {
		return v
	}
	return &Instrumented{inner: v, m: m}
}

// Unwrap exposes the wrapped view for cursor helpers (SamplePos).
func (v *Instrumented) Unwrap() GraphView { return v.inner }

// SampleNeighbors implements GraphView with call timing.
func (v *Instrumented) SampleNeighbors(seeds []graph.VertexID, et graph.EdgeType, fanout int) (out []graph.VertexID, err error) {
	defer func(start time.Time) { v.m.observe("SampleNeighbors", start, err) }(time.Now())
	return v.inner.SampleNeighbors(seeds, et, fanout)
}

// SampleSubgraph implements GraphView with call timing.
func (v *Instrumented) SampleSubgraph(seeds []graph.VertexID, path graph.MetaPath, fanouts []int) (out [][]graph.VertexID, err error) {
	defer func(start time.Time) { v.m.observe("SampleSubgraph", start, err) }(time.Now())
	return v.inner.SampleSubgraph(seeds, path, fanouts)
}

// Degrees implements GraphView with call timing.
func (v *Instrumented) Degrees(nodes []graph.VertexID, et graph.EdgeType) (out []int, err error) {
	defer func(start time.Time) { v.m.observe("Degrees", start, err) }(time.Now())
	return v.inner.Degrees(nodes, et)
}

// Features implements GraphView with call timing.
func (v *Instrumented) Features(nodes []graph.VertexID, dim int) (out []float32, err error) {
	defer func(start time.Time) { v.m.observe("Features", start, err) }(time.Now())
	return v.inner.Features(nodes, dim)
}

// Labels implements GraphView with call timing.
func (v *Instrumented) Labels(nodes []graph.VertexID) (out []int32, err error) {
	defer func(start time.Time) { v.m.observe("Labels", start, err) }(time.Now())
	return v.inner.Labels(nodes)
}

// FeaturesLabels implements FeatureLabeler with call timing. Over a view
// without the method it times the Features and Labels pair as one call.
func (v *Instrumented) FeaturesLabels(nodes []graph.VertexID, dim int) (x []float32, labels []int32, err error) {
	defer func(start time.Time) { v.m.observe("FeaturesLabels", start, err) }(time.Now())
	return FeaturesLabels(v.inner, nodes, dim)
}

// Sources implements GraphView with call timing.
func (v *Instrumented) Sources(et graph.EdgeType) (out []graph.VertexID, err error) {
	defer func(start time.Time) { v.m.observe("Sources", start, err) }(time.Now())
	return v.inner.Sources(et)
}
