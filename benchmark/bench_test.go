package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// contract is BENCHMARK.json at the root of the repository.
type contract struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(buf, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesProgram holds the names, units, directions and bounds in
// BENCHMARK.json equal to the ones the program reports.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, c.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %v\n program %v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %v\n program %v", c.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in seconds, lower is better")
	}
	for _, d := range perLayer {
		check(d.Name)
	}
}

// TestSmoke runs every workload for a second on a tiny graph, untraced and
// traced, and requires the emitted metric names to be exactly the declared
// ones, the checks to pass and no operation to fail.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			rec, err := measure(def, options{seed: 7, seconds: 1, trace: trace, sz: &tiny, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.Name, trace, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", def.Name, trace, len(rec.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rec.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", def.Name, trace, d.Name)
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, want %q", def.Name, d.Name, m.Unit, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s is %v", def.Name, d.Name, m.Value)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", def.Name, d.Name, m.Value)
				}
			}
			if !rec.Correct {
				t.Errorf("%s trace=%v: checks failed: %v", def.Name, trace, rec.Problems)
			}
			if rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", def.Name, trace, rec.Attempted, rec.Failed)
			}
		}
	}
}

func TestPercentileIsExact(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000, sorted
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// A value between two powers of two comes back as itself: nothing is
	// rounded to a bucket edge.
	if got := percentile([]float64{1.5, 2.75, 1300.125}, 0.99); got != 1300.125 {
		t.Errorf("got %v, want the sample 1300.125", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

func TestSlicedStatistics(t *testing.T) {
	// Five one-second spans; the third holds a stall that lifts its tail and
	// halves its rate. The medians over spans do not move.
	window := int64(5 * time.Second)
	var obs []timed
	var done []finished
	for s := 0; s < slices; s++ {
		n := 100
		if s == 2 {
			n = 50
		}
		for i := 0; i < n; i++ {
			end := int64(s)*int64(time.Second) + int64(i)*int64(time.Second)/int64(n)
			ms := 1.0
			if s == 2 && i >= 40 {
				ms = 500
			}
			obs = append(obs, timed{end: end, ms: ms})
			done = append(done, finished{end: end, units: 10})
		}
	}
	if got := slicedPercentile(obs, window, 0.99); got != 1 {
		t.Errorf("sliced p99 = %v, want 1", got)
	}
	if got := slicedRate(done, window); got != 1000 {
		t.Errorf("sliced rate = %v, want 1000 units/s", got)
	}
}

// TestSelfTime checks the arithmetic the per-layer metrics rest on: a span's
// self time is its length minus the union of its children, children nest by
// containment within a track, and tracks do not mix.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Kind: kRequest, Track: tLoad0, Start: 0, End: 100},       // 0
		{Kind: kViewSubgraph, Track: tLoad0, Start: 10, End: 60},  // 1: child of 0
		{Kind: kConnRTT, Track: tLoad0, Start: 20, End: 40},       // 2: child of 1
		{Kind: kConnRTT, Track: tLoad0, Start: 30, End: 50},       // 3: child of 1, overlaps 2
		{Kind: kViewFeatures, Track: tLoad0, Start: 70, End: 90},  // 4: child of 0
		{Kind: kServerBusy, Track: tServer0, Start: 22, End: 38},  // 5: other track, no parent
		{Kind: kRequest, Track: tLoad0, Start: 100, End: 130},     // 6: next request, no children
		{Kind: kStoreApply, Track: tServer0, Start: 25, End: 200}, // 7: outlives 5, not its child
	}
	resolveParents(spans)
	wantParent := []int32{-1, 0, 1, 1, 0, -1, -1, -1}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d: parent %d, want %d", i, s.Parent, wantParent[i])
		}
	}
	self := selfTimes(spans)
	// 0: 100 - (50 + 20); 1: 50 - union([20,40],[30,50]) = 50 - 30.
	wantSelf := []int64{30, 20, 20, 20, 20, 16, 30, 175}
	for i := range spans {
		if self[i] != wantSelf[i] {
			t.Errorf("span %d: self %d, want %d", i, self[i], wantSelf[i])
		}
	}
	l := summarise(spans)
	if got := total(&l.self, kRequest); got != 60 {
		t.Errorf("request self total %v, want 60", got)
	}
	if got := total(&l.dur, kConnRTT, tLoad0); got != 40 {
		t.Errorf("round-trip time %v, want 40", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var none *tracer
	none.close(none.open(kRequest, tLoad0, 0)) // a nil tracer is the untraced run
	tr := newTracer()
	tr.close(tr.open(kRequest, tLoad0, 0))
	if n := len(tr.finished()); n != 0 {
		t.Fatalf("%d spans recorded while off", n)
	}
	tr.on.Store(true)
	i := tr.open(kRequest, tLoad0, 1)
	time.Sleep(time.Millisecond)
	tr.close(i)
	tr.open(kSampler, tLoad0, 2) // never closed: not a finished span
	if got := tr.finished(); len(got) != 1 || got[0].dur() < int64(time.Millisecond) {
		t.Fatalf("finished spans: %+v", got)
	}
}

// TestOpenLoopCountsFromDueTime makes the system under test slower than the
// schedule: with one call allowed in flight, every arrival after the first
// goes out late, and what it is charged is the time since it was due.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	boom := errors.New("boom")
	got := runOpenLoop(time.Now(), due, 1, func(i int) error {
		time.Sleep(service)
		if i == 2 {
			return boom
		}
		return nil
	})
	if len(got) != len(due) {
		t.Fatalf("%d arrivals for %d due times: none may be skipped", len(got), len(due))
	}
	for i, a := range got {
		if a.due != due[i] {
			t.Errorf("arrival %d: due %v, want %v", i, a.due, due[i])
		}
		// Arrival i waits for i earlier calls and then its own.
		if min := time.Duration(i+1)*service - due[i]; a.latency() < min {
			t.Errorf("arrival %d: latency %v, want at least %v from its due time", i, a.latency(), min)
		}
		if a.latency() != a.done-a.due || a.lateness() != a.sent-a.due {
			t.Errorf("arrival %d: latency and lateness are not measured from the due time", i)
		}
	}
	if got[0].lateness() > service/2 {
		t.Errorf("first arrival went out %v late with nothing ahead of it", got[0].lateness())
	}
	if late := got[2].lateness(); late < 2*service-due[2]-time.Millisecond {
		t.Errorf("third arrival's lateness %v does not show the two calls it queued behind", late)
	}
	if got[2].err != boom || got[0].err != nil {
		t.Errorf("errors not carried: %v, %v", got[0].err, got[2].err)
	}
}

func TestSchedules(t *testing.T) {
	u := uniformSchedule(100, 2*time.Second)
	if len(u) != 200 || u[1]-u[0] != 10*time.Millisecond || u[199] >= 2*time.Second {
		t.Errorf("uniform schedule: %d arrivals, gap %v, last %v", len(u), u[1]-u[0], u[len(u)-1])
	}
	a := poissonSchedule(rand.New(rand.NewSource(3)), 1000, time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(3)), 1000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two schedules")
	}
	if len(a) < 850 || len(a) > 1150 {
		t.Errorf("%d arrivals in a second at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("arrival %d at %v is out of order or past the end", i, a[i])
		}
	}
}
