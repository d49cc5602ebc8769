// Tests for the shared state-transfer steps: the attribute export's decode
// checks, a drain that spans several WAL-tail chunks for both of its callers,
// and the checksum on a migration's attribute copy.
package cluster

import (
	"bytes"
	"encoding/binary"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"platod2gl/internal/core"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
	"platod2gl/internal/wire"
)

// alignedAttrs is a well-formed attribute export.
func alignedAttrs() AttrsReply {
	return AttrsReply{
		Nodes:    []graph.VertexID{1, 2},
		RowLens:  []int32{2, 1},
		Data:     []float32{0.5, 1.5, 2.5},
		Labels:   []int32{3, 4},
		HasLabel: []bool{true, false},
		EdgeKeys: []kvstore.EdgeKey{{Src: 1, Dst: 2, Type: 0}},
		EdgeLens: []int32{2},
		EdgeData: []float32{0.25, 0.75},
		Sum:      7,
	}
}

// misalignedAttrs are hand-built attribute export frames whose rows do not
// line up with their keys, or whose row lengths do not cover the data.
func misalignedAttrs() []struct {
	name  string
	frame []byte
} {
	cases := []struct {
		name   string
		mutate func(r *AttrsReply)
	}{
		{"no row lengths", func(r *AttrsReply) { r.RowLens, r.Data = nil, nil }},
		{"row lengths short", func(r *AttrsReply) { r.RowLens = r.RowLens[:1] }},
		{"labels short", func(r *AttrsReply) { r.Labels = r.Labels[:1] }},
		{"has-label short", func(r *AttrsReply) { r.HasLabel = r.HasLabel[:1] }},
		{"rows past the data", func(r *AttrsReply) { r.Data = r.Data[:2] }},
		{"data past the rows", func(r *AttrsReply) { r.Data = append(r.Data, 9) }},
		{"negative row length", func(r *AttrsReply) { r.RowLens = []int32{4, -1} }},
		{"edge lengths short", func(r *AttrsReply) { r.EdgeLens = nil }},
		{"edge rows past the data", func(r *AttrsReply) { r.EdgeData = r.EdgeData[:1] }},
		{"negative edge length", func(r *AttrsReply) { r.EdgeLens = []int32{-2}; r.EdgeData = nil }},
		{"edge key without a row", func(r *AttrsReply) { r.EdgeKeys = append(r.EdgeKeys, r.EdgeKeys[0]) }},
	}
	out := make([]struct {
		name  string
		frame []byte
	}, len(cases))
	for i, c := range cases {
		r := alignedAttrs()
		c.mutate(&r)
		out[i].name, out[i].frame = c.name, r.appendWire(nil)
	}
	return out
}

// TestAttrsReplyRejectsMisalignedRows: a misaligned attribute export fails
// to decode instead of reaching checksumFeatures and importAttrs, which
// index by its row lengths.
func TestAttrsReplyRejectsMisalignedRows(t *testing.T) {
	good := alignedAttrs()
	r := wire.NewReader(good.appendWire(nil))
	var out AttrsReply
	out.decodeWire(r)
	if err := r.Done(); err != nil {
		t.Fatalf("aligned export fails to decode: %v", err)
	}
	for _, c := range misalignedAttrs() {
		r := wire.NewReader(c.frame)
		var out AttrsReply
		out.decodeWire(r)
		if r.Done() == nil {
			t.Errorf("%s: misaligned export decoded", c.name)
		}
	}
}

// interceptConn watches the request frames written through it and may
// rewrite each response payload before the caller reads it. wire.WriteFrame
// writes a frame in one call, so a request's kind and method id sit at
// fixed offsets of the Write that carries it.
type interceptConn struct {
	net.Conn
	onRequest  func(method int)
	onResponse func(method int, payload []byte)

	helloSent bool
	inFlight  int    // method id of the request awaiting its response, -1: none
	pending   []byte // a rewritten response frame not yet read
}

// interceptDialer wraps every connection dial makes; either hook may be nil.
func interceptDialer(dial Dialer, onRequest func(int), onResponse func(int, []byte)) Dialer {
	return func() (net.Conn, error) {
		c, err := dial()
		if err != nil {
			return nil, err
		}
		return &interceptConn{Conn: c, onRequest: onRequest, onResponse: onResponse, inFlight: -1}, nil
	}
}

func methodID(name string) int { return wireMethodID[name] }

func (c *interceptConn) Write(p []byte) (int, error) {
	if !c.helloSent {
		c.helloSent = true // the 8-byte handshake hello
	} else if len(p) > wire.HeaderSize+1 && p[wire.HeaderSize] == wire.KindRequest {
		c.inFlight = int(p[wire.HeaderSize+1]) // ids stay below 128: one varint byte
		if c.onRequest != nil {
			c.onRequest(c.inFlight)
		}
	}
	return c.Conn.Write(p)
}

func (c *interceptConn) Read(p []byte) (int, error) {
	if c.pending == nil && c.inFlight >= 0 && c.onResponse != nil {
		payload, err := wire.ReadFrame(c.Conn)
		if err != nil {
			return 0, err
		}
		c.onResponse(c.inFlight, payload)
		c.inFlight = -1
		c.pending = binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		c.pending = append(c.pending, payload...)
	}
	if c.pending != nil {
		n := copy(p, c.pending)
		if c.pending = c.pending[n:]; len(c.pending) == 0 {
			c.pending = nil
		}
		return n, nil
	}
	return c.Conn.Read(p)
}

// TestPullShardVerifiesAttrsChecksum: a migration's attribute copy carries
// an end-to-end checksum. With one float byte of the source's FetchAttrs
// reply flipped in transit, the post-park pull fails with a checksum
// mismatch, counts the corruption, and imports no attribute.
func TestPullShardVerifiesAttrsChecksum(t *testing.T) {
	const numShards, shard = 4, 0
	metrics := &Metrics{}
	h := newMigHarness(t, 2, metrics)
	defer h.lc.Shutdown()
	client := h.lc.Client()
	m, err := h.driver().InitRouting([]string{LocalAddr(0), LocalAddr(1)}, 1, numShards)
	if err != nil {
		t.Fatalf("init routing: %v", err)
	}
	if err := client.AdoptRouting(m); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	var nodes []graph.VertexID
	var events []graph.Event
	for v := graph.VertexID(0); len(nodes) < 16; v++ {
		if ShardOf(v, numShards) == shard {
			nodes = append(nodes, v)
			events = append(events, graph.Event{Kind: graph.AddEdge, Edge: graph.Edge{Src: v, Dst: v + 1, Weight: 1}})
		}
	}
	if err := client.ApplyBatch(events); err != nil {
		t.Fatalf("apply: %v", err)
	}
	data := make([]float32, 2*len(nodes))
	for i := range data {
		data[i] = float32(i) + 0.5
	}
	if err := client.SetFeatures(nodes, 2, data, nil); err != nil {
		t.Fatalf("set features: %v", err)
	}
	source, dest := h.lc.Service(0), h.lc.Service(1)
	// The reply ends with the edge-feature floats and the 8-byte Sum, so the
	// byte before the Sum is the last edge float's sign-and-exponent byte.
	source.attrs.SetEdgeFeatures(kvstore.EdgeKey{Src: nodes[0], Dst: nodes[0] + 1}, []float32{0.25, 0.5})

	var flipped atomic.Int32
	dest.SetDialResolver(func(addr string) Dialer {
		return interceptDialer(h.lc.DialAddr(addr), nil, func(method int, payload []byte) {
			if method == methodID("FetchAttrs") && payload[0] == wire.KindResponse {
				payload[len(payload)-9] ^= 0x40
				flipped.Add(1)
			}
		})
	})
	pull := func(args PullShardArgs) (PullShardReply, error) {
		args.Shard, args.Source, args.CallTimeoutMillis = shard, LocalAddr(0), 5000
		var reply PullShardReply
		err := dest.PullShard(&args, &reply)
		return reply, err
	}
	bulk, err := pull(PullShardArgs{})
	if err != nil {
		t.Fatalf("bulk pull: %v", err)
	}
	var park ParkShardReply
	if err := source.ParkShard(&ParkShardArgs{Shard: shard}, &park); err != nil {
		t.Fatalf("park: %v", err)
	}
	defer source.ReleaseShard(&ReleaseShardArgs{Shard: shard}, &ReleaseShardReply{})
	before := metrics.Snapshot().CorruptionDetected
	_, err = pull(PullShardArgs{AfterSeq: bulk.EndSeq, UntilSeq: park.WALSeq})
	if !isKind(err, KindChecksum) {
		t.Fatalf("final pull with a flipped attribute byte = %v (%d replies altered), want a checksum mismatch", err, flipped.Load())
	}
	if got := metrics.Snapshot().CorruptionDetected - before; got != 1 {
		t.Fatalf("CorruptionDetected rose by %d, want 1", got)
	}
	if n := dest.attrs.Len(); n != 0 {
		t.Fatalf("destination imported %d feature rows from a corrupt export", n)
	}
}

// newWALService builds a service with a WAL it streams from, as a server
// started with -wal does.
func newWALService(t *testing.T, path string) (*Service, *storage.DynamicStore, *kvstore.Store) {
	t.Helper()
	store := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}})
	attrs := kvstore.New()
	svc := openDurable(t, NewService(store, attrs), "", path)
	t.Cleanup(func() { svc.Close() })
	return svc, store, attrs
}

// TestCatchUpDrainsSeveralChunks: a catch-up whose peer WAL gains more
// records past the snapshot than one tail chunk carries applies all of
// them, then copies the peer's attributes; a WAL-only replica keeps them
// in its WAL.
func TestCatchUpDrainsSeveralChunks(t *testing.T) {
	const records = defaultSyncBatches + 44
	dir := t.TempDir()
	lc := NewLocalClusterOptions(1, LocalOptions{
		ServiceFactory: func(int) *Service {
			svc, _, _ := newWALService(t, filepath.Join(dir, "peer.wal"))
			return svc
		},
	})
	defer lc.Shutdown()
	peer := lc.Service(0)
	peer.attrs.SetFeatures(3, []float32{1, 2})
	peer.attrs.SetLabel(3, 5)
	// The records land between the snapshot and the first tail fetch.
	var wrote bool
	writeRecords := func(method int) {
		if method != methodID("FetchWALTail") || wrote {
			return
		}
		wrote = true
		for i := 0; i < records; i++ {
			evs := []graph.Event{{Kind: graph.AddEdge, Edge: graph.Edge{Src: graph.VertexID(i % 37), Dst: graph.VertexID(i), Weight: 1}}}
			args := &BatchArgs{Events: evs, ClientID: 1, Seq: uint64(i + 1), Sum: checksumEvents(evs)}
			if err := peer.applyBatch(args, &BatchReply{}); err != nil {
				t.Errorf("apply %d: %v", i, err)
			}
		}
	}

	svc, store, attrs := newWALService(t, filepath.Join(dir, "rejoin.wal"))
	stats, err := SyncFromPeer(svc, interceptDialer(lc.Dialer(0), writeRecords, nil), SyncOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("catch-up: %v", err)
	}
	if stats.Batches != records {
		t.Fatalf("drained %d records, want %d", stats.Batches, records)
	}
	peerStore := peer.store.(*storage.DynamicStore)
	if got, want := canonicalDump(t, store, nil), canonicalDump(t, peerStore, nil); !bytes.Equal(got, want) {
		t.Fatalf("rejoined topology differs from the peer's (%d vs %d bytes)", len(got), len(want))
	}
	if attrs.Digest() != peer.attrs.Digest() || stats.AttrBytes == 0 {
		t.Fatalf("catch-up did not copy the peer's attributes (%d bytes moved)", stats.AttrBytes)
	}
	// The rejoined server has no snapshot file, so the catch-up's closing
	// checkpoint keeps the tail in its WAL, its only durable copy.
	if n := walFrames(t, filepath.Join(dir, "rejoin.wal")); n != records {
		t.Fatalf("rejoined WAL holds %d of the %d tail records", n, records)
	}
}

// TestPullShardDrainsSeveralChunks: a migration whose source WAL gains more
// of the shard's records after the shard snapshot than one tail chunk
// carries moves all of them.
func TestPullShardDrainsSeveralChunks(t *testing.T) {
	const numShards, shard = 4, 0
	h := newMigHarness(t, 2, &Metrics{})
	defer h.lc.Shutdown()
	client := h.lc.Client()
	d := h.driver()
	m, err := d.InitRouting([]string{LocalAddr(0), LocalAddr(1)}, 1, numShards)
	if err != nil {
		t.Fatalf("init routing: %v", err)
	}
	if err := client.AdoptRouting(m); err != nil {
		t.Fatalf("adopt: %v", err)
	}
	var srcs []graph.VertexID
	for v := graph.VertexID(0); len(srcs) < 37; v++ {
		if ShardOf(v, numShards) == shard {
			srcs = append(srcs, v)
		}
	}
	apply := func(i int) {
		evs := []graph.Event{{Kind: graph.AddEdge, Edge: graph.Edge{Src: srcs[i%len(srcs)], Dst: graph.VertexID(i), Weight: 1}}}
		if err := client.ApplyBatch(append([]graph.Event(nil), evs...)); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		h.oracle.ApplyBatch(evs)
	}
	for i := 0; i < 50; i++ {
		apply(i)
	}
	h.lc.Service(1).SetMigrationHooks(MigrationHooks{
		AfterShardSnapshot: func(int) error {
			for i := 50; i < 50+defaultSyncBatches+44; i++ {
				apply(i)
			}
			return nil
		},
	})
	final, err := d.MigrateShard(m, shard, 1)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	h.verifyConverged(final, []int{0, 1})
}
