package main

// Benchmark-owned decorators for the seams the code already exposes. They
// are installed only on a traced run; end-to-end numbers are measured with
// none of them in the path.

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"platod2gl/internal/cluster"
	"platod2gl/internal/graph"
	"platod2gl/internal/storage"
	"platod2gl/internal/view"
)

// tracedStore times the topology store. Embedding the concrete store
// promotes everything cluster.Service type-asserts for (Save, Load, Reset,
// AllStats, NeighborsInRange), so a wrapped server answers every RPC a bare
// one does. Sampling calls are tallied, not given spans: a 2-hop call makes
// thirteen thousand of them.
type tracedStore struct {
	*storage.DynamicStore
	tr *tracer
	tk track
}

var _ storage.TopologyStore = (*tracedStore)(nil)

func (s *tracedStore) SampleNeighbors(src graph.VertexID, et graph.EdgeType, k int, rng *rand.Rand, dst []graph.VertexID) []graph.VertexID {
	if !s.tr.on.Load() {
		return s.DynamicStore.SampleNeighbors(src, et, k, rng, dst)
	}
	before := len(dst)
	t0 := time.Now()
	out := s.DynamicStore.SampleNeighbors(src, et, k, rng, dst)
	s.tr.storeSample.add(int64(time.Since(t0)), int64(len(out)-before))
	return out
}

func (s *tracedStore) SampleNeighborsUniform(src graph.VertexID, et graph.EdgeType, k int, rng *rand.Rand, dst []graph.VertexID) []graph.VertexID {
	if !s.tr.on.Load() {
		return s.DynamicStore.SampleNeighborsUniform(src, et, k, rng, dst)
	}
	before := len(dst)
	t0 := time.Now()
	out := s.DynamicStore.SampleNeighborsUniform(src, et, k, rng, dst)
	s.tr.storeSample.add(int64(time.Since(t0)), int64(len(out)-before))
	return out
}

func (s *tracedStore) Neighbors(src graph.VertexID, et graph.EdgeType) ([]graph.VertexID, []float64) {
	t0 := time.Now()
	ids, ws := s.DynamicStore.Neighbors(src, et)
	if s.tr.on.Load() {
		s.tr.storeRead.add(int64(time.Since(t0)), int64(len(ids)))
	}
	return ids, ws
}

func (s *tracedStore) Degree(src graph.VertexID, et graph.EdgeType) int {
	t0 := time.Now()
	d := s.DynamicStore.Degree(src, et)
	if s.tr.on.Load() {
		s.tr.storeRead.add(int64(time.Since(t0)), 1)
	}
	return d
}

func (s *tracedStore) ApplyBatch(events []graph.Event) {
	i := s.tr.open(kStoreApply, s.tk, uint32(len(events)))
	s.DynamicStore.ApplyBatch(events)
	s.tr.close(i)
}

// tracedView spans every GraphView call and keeps what the feature-path
// metrics need: how many rows were asked for, and a sample of the id lists
// themselves, to count repeats and to replay against the attribute store.
type tracedView struct {
	inner view.GraphView
	tr    *tracer
	tk    track

	// busy adds up the time spent inside the view, tracer on or off, so that
	// a replay after the window can subtract it from what it times.
	busy atomic.Int64

	mu          sync.Mutex
	featCalls   int64
	featRows    int64
	sampleSeeds int64 // seeds sent into sampling fan-outs, every hop
	subSeeds    int64 // seeds of SampleSubgraph calls: the requests' own seeds
	featLists   [][]graph.VertexID
}

var _ view.GraphView = (*tracedView)(nil)

// featListKeep bounds the id lists kept for replay; one list in every
// featListEvery is copied.
const (
	featListKeep  = 64
	featListEvery = 4
)

func (v *tracedView) SampleNeighbors(seeds []graph.VertexID, et graph.EdgeType, fanout int) ([]graph.VertexID, error) {
	i := v.tr.open(kViewNeighbors, v.tk, 0)
	out, err := v.inner.SampleNeighbors(seeds, et, fanout)
	v.tr.close(i)
	if i >= 0 {
		v.mu.Lock()
		v.sampleSeeds += int64(len(seeds))
		v.mu.Unlock()
	}
	return out, err
}

func (v *tracedView) SampleSubgraph(seeds []graph.VertexID, path graph.MetaPath, fanouts []int) ([][]graph.VertexID, error) {
	t0 := time.Now()
	i := v.tr.open(kViewSubgraph, v.tk, 0)
	out, err := v.inner.SampleSubgraph(seeds, path, fanouts)
	v.tr.close(i)
	v.busy.Add(int64(time.Since(t0)))
	if i >= 0 && err == nil {
		v.mu.Lock()
		v.subSeeds += int64(len(seeds))
		v.sampleSeeds += int64(len(seeds))
		for _, l := range out[:len(out)-1] {
			v.sampleSeeds += int64(len(l))
		}
		v.mu.Unlock()
	}
	return out, err
}

func (v *tracedView) Degrees(nodes []graph.VertexID, et graph.EdgeType) ([]int, error) {
	i := v.tr.open(kViewOther, v.tk, 0)
	defer v.tr.close(i)
	return v.inner.Degrees(nodes, et)
}

func (v *tracedView) Features(nodes []graph.VertexID, dim int) ([]float32, error) {
	t0 := time.Now()
	i := v.tr.open(kViewFeatures, v.tk, 0)
	out, err := v.inner.Features(nodes, dim)
	v.tr.close(i)
	v.busy.Add(int64(time.Since(t0)))
	if i >= 0 {
		v.mu.Lock()
		v.featCalls++
		v.featRows += int64(len(nodes))
		if v.featCalls%featListEvery == 0 && len(v.featLists) < featListKeep {
			v.featLists = append(v.featLists, append([]graph.VertexID(nil), nodes...))
		}
		v.mu.Unlock()
	}
	return out, err
}

func (v *tracedView) Labels(nodes []graph.VertexID) ([]int32, error) {
	i := v.tr.open(kViewLabels, v.tk, 0)
	defer v.tr.close(i)
	return v.inner.Labels(nodes)
}

func (v *tracedView) Sources(et graph.EdgeType) ([]graph.VertexID, error) {
	i := v.tr.open(kViewOther, v.tk, 0)
	defer v.tr.close(i)
	return v.inner.Sources(et)
}

// Unwrap lets view.SamplePos reach the cluster view's seed cursor.
func (v *tracedView) Unwrap() view.GraphView { return v.inner }

// dupRowShare is the share of sampled feature rows that repeat an id already
// asked for in the same call: the work a dedup or a feature cache would save.
func (v *tracedView) dupRowShare() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var rows, dups int
	seen := make(map[graph.VertexID]struct{})
	for _, l := range v.featLists {
		clear(seen)
		for _, id := range l {
			if _, ok := seen[id]; ok {
				dups++
			}
			seen[id] = struct{}{}
		}
		rows += len(l)
	}
	return ratio(float64(dups), float64(rows))
}

// clientConn counts and times a cluster client's connection. A wire
// connection carries one call at a time, so a write after a read opens a
// round trip and the last read before the next write closes it.
type clientConn struct {
	net.Conn
	tr *tracer
	tk track

	mu       sync.Mutex
	rtStart  int64
	lastRead int64
	wrote    bool // the last operation was a write
}

func (c *clientConn) Write(p []byte) (int, error) {
	t0 := c.tr.now()
	c.mu.Lock()
	if !c.wrote {
		c.flush()
		c.rtStart = t0
		c.wrote = true
		if c.tr.on.Load() {
			c.tr.connFrames[c.tk].Add(1)
		}
	}
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	if c.tr.on.Load() {
		c.tr.connWrite[c.tk].add(c.tr.now()-t0, int64(n))
	}
	return n, err
}

func (c *clientConn) Read(p []byte) (int, error) {
	t0 := c.tr.now()
	n, err := c.Conn.Read(p)
	t1 := c.tr.now()
	c.mu.Lock()
	if c.wrote && c.tr.on.Load() {
		c.tr.connFrames[c.tk].Add(1)
	}
	c.wrote = false
	c.lastRead = t1
	c.mu.Unlock()
	if c.tr.on.Load() {
		c.tr.connRead[c.tk].add(t1-t0, int64(n))
	}
	return n, err
}

// flush records the finished round trip, if one is open. Caller holds mu.
func (c *clientConn) flush() {
	if c.rtStart > 0 && c.lastRead > c.rtStart {
		c.tr.add(kConnRTT, c.tk, 0, c.rtStart, c.lastRead)
	}
	c.rtStart = 0
}

func (c *clientConn) Close() error {
	c.mu.Lock()
	c.flush()
	c.mu.Unlock()
	return c.Conn.Close()
}

// tracedDialer wraps every connection d makes. The conns are remembered so
// the round trip still open on each pooled connection when the window closes
// can be recorded.
type tracedDialer struct {
	tr *tracer
	tk track

	mu    sync.Mutex
	conns []*clientConn
}

func (d *tracedDialer) wrap(dial cluster.Dialer) cluster.Dialer {
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		c := &clientConn{Conn: conn, tr: d.tr, tk: d.tk}
		d.mu.Lock()
		d.conns = append(d.conns, c)
		d.mu.Unlock()
		return c, nil
	}
}

func (d *tracedDialer) flush() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		c.mu.Lock()
		c.flush()
		c.mu.Unlock()
	}
}

// serverConn times the server side of a connection: the server handles one
// frame at a time per connection, so it is busy from the read that completes
// a request to the write that completes the response.
type serverConn struct {
	net.Conn
	tr       *tracer
	tk       track
	lastRead atomic.Int64
	open     atomic.Int32 // span slot of the request in progress, -1 when idle
}

func (c *serverConn) Read(p []byte) (int, error) {
	// A read after a response means the request it answered is done.
	if i := c.open.Swap(-1); i >= 0 {
		c.tr.close(i)
	}
	n, err := c.Conn.Read(p)
	c.lastRead.Store(c.tr.now())
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	if c.open.Load() < 0 {
		c.open.Store(c.tr.openAt(kServerBusy, c.tk, 0, c.lastRead.Load()))
	}
	n, err := c.Conn.Write(p)
	// The response frame is two writes; the span's end moves with each.
	c.tr.close(c.open.Load())
	return n, err
}

type tracedListener struct {
	net.Listener
	tr *tracer
	tk track
}

func (l *tracedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &serverConn{Conn: conn, tr: l.tr, tk: l.tk}
	c.open.Store(-1)
	return c, nil
}
