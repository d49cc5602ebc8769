// Command benchmark is the repository's benchmark: four fixed workloads, the
// end-to-end metrics a user of the system would see, and a traced run that
// says which layer the time went to. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// window is what one drive of a workload measured.
type window struct {
	wall      time.Duration // the whole drive
	measured  time.Duration // the stretch done and lat were collected in, when not the whole drive
	done      []finished    // work completed: what throughput is taken over
	lat       []timed       // the waits the latency percentiles are taken over
	attempted int64
	failed    int64              // failed, shed, refused or past their deadline
	extra     map[string]float64 // workload-specific values measured in the window
	lagMs     []float64          // open-loop generator lateness, one per arrival
}

// span is the length of the stretch the two series cover.
func (w *window) span() int64 {
	if w.measured > 0 {
		return int64(w.measured)
	}
	return int64(w.wall)
}

func (w *window) throughput() float64 { return slicedRate(w.done, w.span()) }

func (w *window) units() (n int64) {
	for _, d := range w.done {
		n += d.units
	}
	return n
}

func (w *window) quantile(q float64) float64 { return slicedPercentile(w.lat, w.span(), q) }

// workload is one of the four fixed traffic shapes.
type workload interface {
	// setup builds the system under test from e.seed. It is timed.
	setup(e *env) error
	// drive generates load for d and reports what it saw. The first drive
	// after setup is the warm-up; state carries over between drives.
	drive(d time.Duration) *window
	// check returns what is wrong with the outputs, outside the timed path.
	check(w *window) []string
	bytesPerEdge() float64
	// layers fills in the per-layer metrics from the traced window.
	layers(w *window, l *ledger, out map[string]float64)
	close()
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is what -json writes for one run: the result plus everything needed
// to read it later.
type record struct {
	Workload   string         `json:"workload"`
	Trace      bool           `json:"trace"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Rev        string         `json:"rev"`
	GoVersion  string         `json:"go_version"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Problems   []string       `json:"problems,omitempty"`
	Samples    map[string]int `json:"samples"`
	Defs       []metricDef    `json:"metric_defs"`
	result
}

type options struct {
	seed    int64
	seconds int
	trace   bool
	sz      *sizes
	outDir  string
}

// settle gives the collector a clean start so that one run's garbage is not
// the next phase's pause.
func settle() {
	runtime.GC()
	runtime.GC()
}

// measure runs one workload once: timed set-ups, warm-up, the measured
// window and the checks. With opt.trace it measures a short window with no
// wrapper installed, sets up again with all of them, and reports the
// per-layer metrics of the traced window.
func measure(def workloadDef, opt options) (*record, error) {
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	rec := &record{
		Workload: def.Name, Trace: opt.trace, Seed: opt.seed, Seconds: opt.seconds,
		Rev: gitRev(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: procs,
		Samples: map[string]int{}, result: result{Metrics: map[string]value{}},
	}
	window := time.Duration(opt.seconds) * time.Second

	// build sets the workload up and returns how long that took, in seconds.
	build := func(tr *tracer) (workload, float64, error) {
		settle()
		w := def.make()
		t0 := time.Now()
		if err := w.setup(&env{seed: opt.seed, sz: opt.sz, tr: tr, outDir: opt.outDir, procs: procs}); err != nil {
			w.close()
			return nil, 0, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		return w, time.Since(t0).Seconds(), nil
	}

	if !opt.trace {
		rec.Defs = endToEnd
		var w workload
		var setups []float64
		for i := 0; i < opt.sz.setupRepeats; i++ {
			if w != nil {
				w.close()
			}
			var s float64
			var err error
			if w, s, err = build(nil); err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
		defer w.close()
		w.drive(opt.sz.warmup)
		settle()
		win := w.drive(window)
		rec.Problems = w.check(win)
		rec.put("throughput_per_s", win.throughput(), int(win.units()))
		rec.put("latency_p50_ms", win.quantile(0.50), len(win.lat))
		rec.put("latency_p95_ms", win.quantile(0.95), len(win.lat))
		rec.put("bytes_per_edge", w.bytesPerEdge(), 1)
		rec.put("setup_s", median(setups), len(setups))
		rec.finish(win, endToEnd)
		return rec, nil
	}

	rec.Defs = perLayer
	plain, _, err := build(nil)
	if err != nil {
		return nil, err
	}
	plain.drive(opt.sz.warmup)
	settle()
	untraced := plain.drive(window / 4).throughput()
	plain.close()

	tr := newTracer()
	w, _, err := build(tr)
	if err != nil {
		return nil, err
	}
	defer w.close()
	w.drive(opt.sz.warmup)
	settle()
	tr.on.Store(true)
	win := w.drive(window - window/4)
	tr.stop()
	rec.Problems = w.check(win)
	spans := tr.finished()
	l := summarise(spans)
	out := map[string]float64{}
	w.layers(win, l, out)
	out["bench.latency_p99_ms"] = percentile(latencies(win.lat), 0.99)
	out["bench.error_share"] = ratio(float64(win.failed), float64(win.attempted))
	out["bench.trace_overhead_share"] = 1 - ratio(win.throughput(), untraced)
	out["bench.unattributed_share"] = ratio(total(&l.self, kRequest), total(&l.dur, kRequest))
	sort.Float64s(win.lagMs)
	out["bench.generator_lag_p99_ms"] = percentile(win.lagMs, 0.99)
	for k, v := range win.extra {
		out[k] = v
	}
	// A per-layer metric's sample count is the requests the traced window
	// completed; the spans and counters they produced are in the trace file.
	requests := int(total(&l.n, kRequest))
	for _, d := range perLayer {
		rec.put(d.Name, out[d.Name], requests)
	}
	if path, err := tr.write(opt.outDir, def.Name, spans); err != nil {
		rec.Problems = append(rec.Problems, "write trace: "+err.Error())
	} else {
		fmt.Printf("# trace: %d spans (%d dropped) -> %s\n", len(spans), tr.dropped.Load(), path)
	}
	rec.finish(win, perLayer)
	return rec, nil
}

func (r *record) put(name string, v float64, n int) {
	r.Metrics[name] = value{Value: v}
	r.Samples[name] = n
}

func (r *record) finish(win *window, defs []metricDef) {
	for _, d := range defs {
		m := r.Metrics[d.Name]
		m.Unit = d.Unit
		r.Metrics[d.Name] = m
	}
	r.Attempted, r.Failed = win.attempted, win.failed
	r.Correct = len(r.Problems) == 0
}

func (r *record) print() {
	fmt.Printf("# %s seed=%d seconds=%d trace=%v rev=%s %s nproc=%d GOMAXPROCS=%d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Rev, r.GoVersion, r.NProc, r.GOMAXPROCS)
	for _, d := range r.Defs {
		fmt.Printf("%-34s %14.4f %-6s n=%d\n", d.Name, r.Metrics[d.Name].Value, d.Unit, r.Samples[d.Name])
	}
	fmt.Printf("%-34s %14.6f %-6s n=%d\n", "error_share", ratio(float64(r.Failed), float64(r.Attempted)), "share", r.Attempted)
	for _, p := range r.Problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
}

// gitRev asks git for the commit at run time; a checkout that is not a
// repository says so instead of carrying a stamp someone typed.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four in turn)")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: run with the benchmark's decorators and report the per-layer metrics")
		jsonOut = flag.String("json", "", "also write the full records to this file")
		repeat  = flag.Int("repeat", 1, "run the whole set this many times and print the spread of each metric")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var defs []workloadDef
	for _, d := range workloads {
		if *name == "" || *name == d.Name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, sz: &full,
		outDir: filepath.Join("benchmark", "out")}
	var all []*record
	ok := true
	for i := 0; i < *repeat; i++ {
		for _, d := range defs {
			rec, err := measure(d, opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			all = append(all, rec)
			ok = ok && rec.Correct
			rec.print()
			line, _ := json.Marshal(rec.result)
			fmt.Println(string(line))
		}
	}
	if *repeat > 1 {
		printSpread(all)
	}
	if *jsonOut != "" {
		buf, _ := json.MarshalIndent(all, "", " ")
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// printSpread prints, per workload and metric, the least, middle and
// greatest value over the repeats and (max-min)/median.
func printSpread(all []*record) {
	type key struct{ workload, metric string }
	vals := map[key][]float64{}
	for _, r := range all {
		for _, d := range r.Defs {
			k := key{r.Workload, d.Name}
			vals[k] = append(vals[k], r.Metrics[d.Name].Value)
		}
	}
	fmt.Printf("# spread over the repeats: workload metric min median max (max-min)/median\n")
	for _, w := range workloads {
		for _, d := range all[0].Defs {
			v := vals[key{w.Name, d.Name}]
			if len(v) == 0 {
				continue
			}
			sort.Float64s(v)
			med := median(v)
			fmt.Printf("# %-14s %-28s %12.4f %12.4f %12.4f %8.4f\n", w.Name, d.Name, v[0], med, v[len(v)-1], ratio(v[len(v)-1]-v[0], med))
		}
	}
}
