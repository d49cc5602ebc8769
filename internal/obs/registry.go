package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
)

// Labels is a static label set attached to a metric at registration time.
// Label values are fixed for the metric's lifetime (dynamic label values go
// through HistogramVec's single label instead).
type Labels map[string]string

// signature renders labels deterministically for dedup and exposition:
// `{k1="v1",k2="v2"}` with keys sorted, or "" when empty.
func (l Labels) signature() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// kind discriminates the exposition shape.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered series.
type metric struct {
	name   string
	help   string
	labels Labels
	sig    string // labels.signature(), cached
	kind   kind
	scale  float64 // histogram exposition multiplier (1e-9: ns -> seconds)

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// Registry holds a process's metric series and renders them for scraping.
// Registration is rare (startup) and locked; scraping walks a stable
// snapshot of the registration list. The zero value is not usable — call
// NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	metrics []*metric
	byKey   map[string]*metric // name+sig -> metric, duplicate detection
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// register adds m, panicking on a duplicate (name, labels) pair or an
// invalid name — both are programming errors worth failing loudly at
// startup rather than silently shadowing a series.
func (r *Registry) register(m *metric) {
	if m.name == "" || strings.ContainsAny(m.name, " \t\n{}\"") {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.name))
	}
	m.sig = m.labels.signature()
	key := m.name + m.sig
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byKey[key]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %s%s", m.name, m.sig))
	}
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, labels, c)
	return c
}

// RegisterCounter attaches an existing counter (typically a field of a
// per-package Metrics struct) to the registry under name.
func (r *Registry) RegisterCounter(name, help string, labels Labels, c *Counter) {
	r.register(&metric{name: name, help: help, labels: labels, kind: kindCounter, counter: c})
}

// Gauge registers and returns a new gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.RegisterGauge(name, help, labels, g)
	return g
}

// RegisterGauge attaches an existing gauge (typically a field of a
// per-package Metrics struct) to the registry under name.
func (r *Registry) RegisterGauge(name, help string, labels Labels, g *Gauge) {
	r.register(&metric{name: name, help: help, labels: labels, kind: kindGauge, gauge: g})
}

// GaugeFunc registers a gauge whose value is computed at scrape time (edge
// counts, memory footprints — anything the owning structure already tracks).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(&metric{name: name, help: help, labels: labels, kind: kindGaugeFunc, gaugeFn: fn})
}

// RegisterHistogram attaches an existing histogram to the registry. scale
// multiplies recorded values at exposition time (use 1e-9 for
// nanosecond-recorded latencies exposed as Prometheus seconds; 1 for byte
// sizes); <= 0 means 1.
func (r *Registry) RegisterHistogram(name, help string, labels Labels, scale float64, h *Histogram) {
	if scale <= 0 {
		scale = 1
	}
	r.register(&metric{name: name, help: help, labels: labels, kind: kindHistogram, scale: scale, hist: h})
}

// Histogram registers and returns a new histogram series.
func (r *Registry) Histogram(name, help string, labels Labels, scale float64) *Histogram {
	h := &Histogram{}
	r.RegisterHistogram(name, help, labels, scale, h)
	return h
}

// RegisterHistogramVec attaches every child of a HistogramVec under one
// metric name, labeled by labelKey. Children are bound at call time; callers
// pre-seed the vec with their known label values before registering so the
// full family is scraped from the first exposition (see
// cluster.Metrics.Register).
func (r *Registry) RegisterHistogramVec(name, help, labelKey string, scale float64, v *HistogramVec) {
	labels := v.Labels()
	sort.Strings(labels)
	for _, lv := range labels {
		r.RegisterHistogram(name, help, Labels{labelKey: lv}, scale, v.With(lv))
	}
}

// RegisterCounterVec2 attaches every child of a CounterVec under one metric
// name with two labels. Child keys are composite "v1|v2" strings (the hot
// path increments one flat map entry); this splits them back into proper
// two-label series at registration. As with RegisterHistogramVec, children
// are bound at call time — pre-seed the vec with every expected combination
// before registering.
func (r *Registry) RegisterCounterVec2(name, help, key1, key2 string, v *CounterVec) {
	labels := v.Labels()
	sort.Strings(labels)
	for _, lv := range labels {
		v1, v2, ok := strings.Cut(lv, "|")
		if !ok {
			v2 = ""
		}
		r.RegisterCounter(name, help, Labels{key1: v1, key2: v2}, v.With(lv))
	}
}

// snapshotList copies the registration list for lock-free iteration.
func (r *Registry) snapshotList() []*metric {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	return out
}

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4), sorted by name then label signature so
// output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ms := r.snapshotList()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].sig < ms[j].sig
	})
	var lastName string
	for _, m := range ms {
		if m.name != lastName {
			lastName = m.name
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.kind.promType()); err != nil {
				return err
			}
		}
		if err := m.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (k kind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// write renders one series.
func (m *metric) write(w io.Writer) error {
	switch m.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", m.name, m.sig, m.counter.Load())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", m.name, m.sig, m.gauge.Load())
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", m.name, m.sig, formatFloat(m.gaugeFn()))
		return err
	case kindHistogram:
		return m.writeHistogram(w)
	}
	return nil
}

// writeHistogram emits the cumulative _bucket/_sum/_count triplet. Buckets
// are emitted up to the highest populated one (plus +Inf), keeping scrapes
// compact while staying valid exposition.
func (m *metric) writeHistogram(w io.Writer) error {
	s := m.hist.Snapshot()
	maxB := -1
	for i, b := range s.Buckets {
		if b > 0 {
			maxB = i
		}
	}
	var cum int64
	for i := 0; i <= maxB; i++ {
		cum += s.Buckets[i]
		le := formatFloat(float64(BucketUpper(i)) * m.scale)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, m.bucketSig(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, m.bucketSig("+Inf"), s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.name, m.sig, formatFloat(float64(s.Sum)*m.scale)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.name, m.sig, s.Count)
	return err
}

// bucketSig merges the le label into the metric's static label signature.
func (m *metric) bucketSig(le string) string {
	if m.sig == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return fmt.Sprintf("%s,le=%q}", strings.TrimSuffix(m.sig, "}"), le)
}

// formatFloat renders a float compactly: integers without a decimal point,
// everything else rounded to 6 significant digits (bucket bounds are
// power-of-two approximations already; exact decimals would only expose
// float64 noise like 3.0000000000000004e-09).
func formatFloat(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%.6g", f)
}

// Handler returns an http.Handler serving the Prometheus text exposition —
// mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Expvar renders the whole registry as one JSON object: counters and gauges
// as numbers, histograms as {count, sum, p50, p95, p99} summaries — keyed by
// name plus label signature. Serve mounts it at /debug/vars.
func (r *Registry) Expvar() expvar.Var {
	return expvar.Func(func() any {
		out := make(map[string]any)
		for _, m := range r.snapshotList() {
			key := m.name + m.sig
			switch m.kind {
			case kindCounter:
				out[key] = m.counter.Load()
			case kindGauge:
				out[key] = m.gauge.Load()
			case kindGaugeFunc:
				out[key] = m.gaugeFn()
			case kindHistogram:
				s := m.hist.Snapshot()
				out[key] = map[string]any{
					"count": s.Count,
					"sum":   s.Sum,
					"p50":   s.P50(),
					"p95":   s.P95(),
					"p99":   s.P99(),
				}
			}
		}
		return out
	})
}
