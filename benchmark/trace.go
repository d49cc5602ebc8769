package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// kind names the layer boundary a span was recorded at.
type kind uint8

const (
	kRequest      kind = iota // one iteration of the benchmark's own request loop
	kSampler                  // sampler.SampleSubgraph
	kViewSubgraph             // GraphView.SampleSubgraph
	kViewNeighbors
	kViewFeatures
	kViewLabels
	kViewOther    // Degrees, Sources
	kClientApply  // cluster.Client.ApplyBatchCtx
	kClientSample // cluster.Client.SampleNeighborsCtx
	kConnRTT      // client conn: request write to last response byte
	kServerBusy   // server conn: request fully read to response written
	kStoreApply   // TopologyStore.ApplyBatch on a server
	kWALAppend    // eventlog append in the batch hook
	kPipeBuild    // pipeline.Loader call
	kPipeNext     // Pipeline.Next wait
	kTrainStep    // gnn.Trainer.TrainStep
	kKNN          // serve.Engine.KNN
	numKinds
)

var kindNames = [numKinds]string{
	"request", "sampler.subgraph", "view.sample_subgraph", "view.sample_neighbors",
	"view.features", "view.labels", "view.other", "client.apply_batch", "client.sample_neighbors",
	"conn.round_trip", "server.conn_busy", "store.apply_batch", "eventlog.append",
	"pipeline.build", "pipeline.next", "gnn.train_step", "serve.knn",
}

// track is the actor a span belongs to. Spans nest only within a track: a
// load-generating client and the connections its cluster client owns share
// one, each server has its own.
type track uint8

const (
	tLoad0      track = iota // first load generator (client 0, trainer, writer, KNN callers)
	tLoad1                   // second load generator (client 1, open-loop reader)
	tBuilder                 // pipeline batch builder
	tBackground              // serve refresher
	tChurn                   // paced churn writer
	tServer0                 // servers follow, one track each
	numTracks   = tServer0 + 4
)

func (t track) String() string {
	switch t {
	case tLoad0:
		return "load0"
	case tLoad1:
		return "load1"
	case tBuilder:
		return "builder"
	case tBackground:
		return "background"
	case tChurn:
		return "churn"
	}
	return fmt.Sprintf("server%d", t-tServer0)
}

// span is one recorded interval. Parent is the index of the innermost span
// of the same track that encloses it, filled in by resolveParents once the
// run is over: the calls cross product code that carries no span context,
// so containment in time is what the benchmark can see from outside.
type span struct {
	Kind   kind
	Track  track
	Req    uint32
	Parent int32
	Start  int64 // ns since the tracer was made
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// tally is a count, a busy time and a unit count for calls too frequent to
// give a span each (a store sample call runs in about a microsecond).
type tally struct {
	n, ns, units atomic.Int64
}

func (c *tally) add(ns, units int64) {
	c.n.Add(1)
	c.ns.Add(ns)
	c.units.Add(units)
}

// tracer holds every span of one traced run in a buffer allocated up front
// and writes nothing until the run ends.
type tracer struct {
	t0 time.Time
	on atomic.Bool // off during warm-up and checks
	// mu lets stop wait out recorders: they hold it shared while they touch
	// the buffer, so once stop has taken it exclusively the buffer is still.
	mu      sync.RWMutex
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64

	storeSample tally            // units = draws returned
	storeRead   tally            // Neighbors, Degree, EdgeWeight
	connRead    [numTracks]tally // units = bytes
	connWrite   [numTracks]tally
	connFrames  [numTracks]atomic.Int64

	// flushers record what is still open when the window closes: the last
	// round trip of every pooled connection.
	flushers []func()
}

const traceCapacity = 1 << 19

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, traceCapacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span now and returns its slot, or -1 when tracing is off or
// the buffer is full. A nil tracer records nothing.
func (t *tracer) open(k kind, tk track, req uint32) int32 { return t.openAt(k, tk, req, -1) }

// openAt is open for a span that began at start, before the caller knew it
// had (a negative start means now).
func (t *tracer) openAt(k kind, tk track, req uint32, start int64) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.on.Load() {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	if start < 0 {
		start = t.now()
	}
	t.spans[i] = span{Kind: k, Track: tk, Req: req, Parent: -1, Start: start}
	return int32(i)
}

// close ends a span. One still open when recording stops stays unfinished.
func (t *tracer) close(i int32) {
	if i < 0 {
		return
	}
	t.mu.RLock()
	if t.on.Load() {
		t.spans[i].End = t.now()
	}
	t.mu.RUnlock()
}

// add records a span whose ends the caller timed itself.
func (t *tracer) add(k kind, tk track, req uint32, start, end int64) {
	if i := t.openAt(k, tk, req, start); i >= 0 {
		t.mu.RLock()
		if t.on.Load() {
			t.spans[i].End = end
		}
		t.mu.RUnlock()
	}
}

// stop records what is still open and ends recording.
func (t *tracer) stop() {
	for _, f := range t.flushers {
		f()
	}
	t.mu.Lock()
	t.on.Store(false)
	t.mu.Unlock()
}

// finished returns the spans that were closed, with parents resolved.
func (t *tracer) finished() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	out := make([]span, 0, n)
	for _, s := range t.spans[:n] {
		if s.End > s.Start {
			out = append(out, s)
		}
	}
	resolveParents(out)
	return out
}

// resolveParents sets each span's Parent to the innermost span of its track
// that contains it (latest start, then shortest), or -1.
func resolveParents(spans []span) {
	order := make([]int32, len(spans))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.Track != y.Track {
			return x.Track < y.Track
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	var live []int32 // spans of the current track that may still enclose later ones
	cur := track(255)
	for _, i := range order {
		s := &spans[i]
		if s.Track != cur {
			cur, live = s.Track, live[:0]
		}
		keep := live[:0]
		for _, j := range live {
			if spans[j].End >= s.Start {
				keep = append(keep, j)
			}
		}
		live = keep
		s.Parent = -1
		for _, j := range live {
			p := spans[j]
			if p.End < s.End {
				continue
			}
			if s.Parent < 0 || p.Start > spans[s.Parent].Start ||
				(p.Start == spans[s.Parent].Start && p.End < spans[s.Parent].End) {
				s.Parent = j
			}
		}
		live = append(live, i)
	}
}

// selfTimes returns, for each span, its duration minus the part of it that
// its direct children cover. Children that overlap each other (a fan-out to
// two shards) are counted once: the union of their intervals, not the sum.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// ledger is the per-kind, per-track roll-up of a finished trace.
type ledger struct {
	n, dur, self [numKinds][numTracks]int64
	// req sums the spans' request fields, which for batch spans
	// (store.apply_batch, eventlog.append) hold the batch's event count.
	req [numKinds][numTracks]int64
}

func summarise(spans []span) *ledger {
	l := &ledger{}
	self := selfTimes(spans)
	for i, s := range spans {
		l.n[s.Kind][s.Track]++
		l.dur[s.Kind][s.Track] += s.dur()
		l.self[s.Kind][s.Track] += self[i]
		l.req[s.Kind][s.Track] += int64(s.Req)
	}
	return l
}

// total sums one of a ledger's tables over the given tracks (all when none).
func total(table *[numKinds][numTracks]int64, k kind, tracks ...track) float64 {
	var s int64
	if len(tracks) == 0 {
		for _, v := range table[k] {
			s += v
		}
		return float64(s)
	}
	for _, t := range tracks {
		s += table[k][t]
	}
	return float64(s)
}

// write dumps the spans and counters as JSON. Spans are rows of
// [kind, track, request, parent, start_ns, end_ns].
func (t *tracer) write(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"dropped\":%d,\n\"kinds\":[", workload, t.dropped.Load())
	for i, n := range kindNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\n\"tracks\":[")
	for i := track(0); i < numTracks; i++ {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", i.String())
	}
	fmt.Fprintf(w, "],\n\"counters\":{\"store_sample_calls\":%d,\"store_sample_ns\":%d,\"store_sample_draws\":%d,\"store_read_calls\":%d,\"store_read_ns\":%d},\n",
		t.storeSample.n.Load(), t.storeSample.ns.Load(), t.storeSample.units.Load(),
		t.storeRead.n.Load(), t.storeRead.ns.Load())
	w.WriteString("\"span_columns\":[\"kind\",\"track\",\"request\",\"parent\",\"start_ns\",\"end_ns\"],\n\"spans\":[\n")
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d]", s.Kind, s.Track, s.Req, s.Parent, s.Start, s.End)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
