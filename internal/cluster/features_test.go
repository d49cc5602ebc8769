// Tests for the Features row path: the reply frame is encoded straight
// from the store and decoded straight into the caller's batch, and its
// bytes are the encoding of the gathered matrix.
package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"platod2gl/internal/faultinject"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
	"platod2gl/internal/wire"
)

// goldenFeatureStore holds every row shape the Features reply encodes: a
// row as long as the requested dim (3), a shorter one, a longer one, a NaN
// payload with a signed zero and an infinity, and a labelled vertex with no
// features. Vertex 9 has neither.
func goldenFeatureStore() (*kvstore.Store, []graph.VertexID) {
	attrs := kvstore.New()
	v := func(i uint64) graph.VertexID { return graph.MakeVertexID(1, i) }
	attrs.SetFeatures(v(1), []float32{1, 2, 3})
	attrs.SetFeatures(v(2), []float32{4.5, -5})
	attrs.SetFeatures(v(3), []float32{6, 7, 8, 9, 10})
	attrs.SetFeatures(v(4), []float32{math.Float32frombits(0x7fc00001), math.Float32frombits(0x80000000),
		float32(math.Inf(1)), math.Float32frombits(0xffbfffff)})
	attrs.SetLabel(v(1), 7)
	attrs.SetLabel(v(2), -2)
	attrs.SetLabel(v(4), 3)
	attrs.SetLabel(v(5), 11)
	return attrs, []graph.VertexID{v(1), v(2), v(3), v(9), v(4), v(5), v(1)}
}

// goldenFeatureCases are the (dim, labels) pairs the golden test encodes.
var goldenFeatureCases = []struct {
	dim        int
	withLabels bool
}{{3, true}, {3, false}, {0, true}, {0, false}, {5, true}, {1, false}}

// featuresResponseFrame runs one Features request for nodes through the
// server's frame handler and returns the response frame's payload.
func featuresResponseFrame(t *testing.T, attrs *kvstore.Store, nodes []graph.VertexID, dim int, withLabels bool) []byte {
	t.Helper()
	srv := NewServer(NewService(storage.NewDynamicStore(storage.Options{}), attrs))
	req := append([]byte{wire.KindRequest}, wire.AppendUvarint(nil, uint64(wireMethodID["Features"]))...)
	req = (&FeatureArgs{Nodes: nodes, Dim: dim, WithLabels: withLabels}).appendWire(req)
	resp, _, _ := srv.handleWireFrame(req)
	return append([]byte(nil), resp[wire.HeaderSize:]...)
}

// gatheredFeatureFrame is the reference reply payload: the matrix and
// label vector GatherFeatures and GatherLabels build, each encoded one
// element at a time.
func gatheredFeatureFrame(attrs *kvstore.Store, nodes []graph.VertexID, dim int, withLabels bool) []byte {
	b := []byte{wire.KindResponse}
	data := attrs.GatherFeatures(nodes, dim)
	b = wire.AppendUvarint(b, uint64(len(data)))
	for _, x := range data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	var labels []int32
	if withLabels {
		labels = attrs.GatherLabels(nodes)
	}
	b = wire.AppendUvarint(b, uint64(len(labels)))
	for _, l := range labels {
		b = binary.LittleEndian.AppendUint32(b, uint32(l))
	}
	return b
}

// TestFeatureReplyGolden: the Features response frame is byte-identical to
// the gathered matrix's encoding, for a missing vertex, stored rows shorter
// and longer than Dim, Dim 0, labels on and off, and a NaN payload. The
// lengths and FNV-64a hashes were recorded from the encoder that gathered
// the matrix first.
func TestFeatureReplyGolden(t *testing.T) {
	want := []struct {
		size int
		hash uint64
	}{
		{115, 0x2ab6bcfad85ab65a},
		{87, 0x0d0fae6563139466},
		{31, 0xbaf8752858e69b15},
		{3, 0xeaa0081875df2d0d},
		{171, 0xdff13a19e4163b38},
		{31, 0x86476fb4202fc8b2},
	}
	attrs, nodes := goldenFeatureStore()
	for i, c := range goldenFeatureCases {
		got := featuresResponseFrame(t, attrs, nodes, c.dim, c.withLabels)
		if gathered := gatheredFeatureFrame(attrs, nodes, c.dim, c.withLabels); string(got) != string(gathered) {
			t.Errorf("dim %d labels %v: frame %x, want the gathered encoding %x", c.dim, c.withLabels, got, gathered)
		}
		h := fnv.New64a()
		h.Write(got)
		if len(got) != want[i].size || h.Sum64() != want[i].hash {
			t.Errorf("dim %d labels %v: %d bytes hashing to %#016x, want %d bytes hashing to %#016x",
				c.dim, c.withLabels, len(got), h.Sum64(), want[i].size, want[i].hash)
		}
	}
}

// identityOcc returns occurrence lists placing row j at index j.
func identityOcc(n int) [][]int {
	occ := make([][]int, n)
	for j := range occ {
		occ[j] = []int{j}
	}
	return occ
}

// TestFeatureReplyDecodesIntoDestination: a decoded row lands at each of
// its occurrences and a label at each of its indices, with bit-exact
// floats; a frame whose counts do not fit the destination writes nothing.
func TestFeatureReplyDecodesIntoDestination(t *testing.T) {
	attrs, nodes := goldenFeatureStore()
	const dim = 3
	body := featuresResponseFrame(t, attrs, nodes, dim, true)[1:]
	want := attrs.GatherFeatures(nodes, dim)
	wantLabels := attrs.GatherLabels(nodes)
	// Distinct row j of the frame goes to occ[j]; two rows fan out twice.
	occ := [][]int{{0, 9}, {1}, {2, 7}, {3}, {4}, {5}, {6, 8}}
	out := make([]float32, 10*dim)
	labels := make([]int32, 10)
	reply := FeatureReply{dim: dim, out: out, labels: labels, occ: runsOf(occ)}
	r := wire.NewReader(body)
	reply.decodeWire(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for j, idx := range occ {
		for _, o := range idx {
			for d := 0; d < dim; d++ {
				if g, w := math.Float32bits(out[o*dim+d]), math.Float32bits(want[j*dim+d]); g != w {
					t.Fatalf("out[%d][%d] = %08x, want %08x", o, d, g, w)
				}
			}
			if labels[o] != wantLabels[j] {
				t.Fatalf("labels[%d] = %d, want %d", o, labels[o], wantLabels[j])
			}
		}
	}
	// One row short of the destination: nothing written, the count kept
	// for the caller's error.
	short := FeatureReply{dim: dim, out: make([]float32, 8*dim), labels: make([]int32, 8), occ: runsOf(identityOcc(8))}
	r = wire.NewReader(body)
	short.decodeWire(r)
	if err := r.Done(); err != nil || short.floats != len(nodes)*dim || short.fits() {
		t.Fatalf("mismatched decode: err %v, floats %d, fits %v", err, short.floats, short.fits())
	}
	for i, x := range short.out {
		if x != 0 {
			t.Fatalf("mismatched decode wrote out[%d] = %v", i, x)
		}
	}
}

// TestFeatureReplyDecodeAllocs pins the decode of a reply frame into a
// destination at zero allocations: rows go from the frame into the batch.
func TestFeatureReplyDecodeAllocs(t *testing.T) {
	const rows, dim = 512, 64
	attrs := kvstore.New()
	nodes := make([]graph.VertexID, rows)
	for i := range nodes {
		nodes[i] = graph.MakeVertexID(0, uint64(i))
		f := make([]float32, dim)
		for d := range f {
			f[d] = float32(i*dim + d)
		}
		attrs.SetFeatures(nodes[i], f)
		attrs.SetLabel(nodes[i], int32(i%7))
	}
	body := (&FeatureReply{dim: dim, attrs: attrs, nodes: nodes, withLabels: true}).appendWire(nil)
	occ := identityOcc(rows)
	occ[0] = append(occ[0], rows) // one repeated vertex
	reply := FeatureReply{dim: dim, out: make([]float32, (rows+1)*dim), labels: make([]int32, rows+1), occ: runsOf(occ)}
	allocs := testing.AllocsPerRun(100, func() {
		r := wire.NewReader(body)
		reply.decodeWire(r)
		if r.Done() != nil || !reply.fits() {
			t.Fatal("decode failed")
		}
	})
	if allocs > 0 {
		t.Fatalf("decoding a Features reply into its destination allocates %.0f times, want 0", allocs)
	}
	if reply.out[rows*dim+1] != 1 || reply.out[(rows-1)*dim] != float32((rows-1)*dim) || reply.labels[rows-1] != int32((rows-1)%7) {
		t.Fatal("decode did not fill the destination")
	}
}

// TestFeaturesRejectsOversizedReply: a negative Dim, or one whose reply
// would exceed wire.MaxFrame, is answered with an error frame before any
// row is read, not retried, and the connection serves the next call. The
// oversized requests are too large for a handler that gathered first to
// allocate (its make panics instead), so they cannot exhaust memory; the
// reply size is checked to the byte at the limit on featureReplySize.
func TestFeaturesRejectsOversizedReply(t *testing.T) {
	addr, _, svc := startWireServer(t)
	id, id2 := graph.MakeVertexID(0, 3), graph.MakeVertexID(0, 4)
	svc.attrs.SetFeatures(id, []float32{1, 2})
	var dials atomic.Int32
	tr := &wireTransport{dial: func() (net.Conn, error) {
		dials.Add(1)
		return net.Dial("tcp", addr)
	}, hsTO: 5 * time.Second}
	defer tr.Close()
	for _, c := range []struct {
		nodes []graph.VertexID
		dim   int
		want  string
	}{
		{[]graph.VertexID{id}, -1, "negative feature dim"},
		{[]graph.VertexID{id}, 1 << 50, "frame limit"},
		{[]graph.VertexID{id, id2}, math.MaxInt/2 + 1, "frame limit"},
	} {
		var reply FeatureReply
		err := tr.Call("Features", &FeatureArgs{Nodes: c.nodes, Dim: c.dim}, &reply, 5*time.Second, callEnv{})
		if !isKind(err, KindApplication) || retryable(err) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%d rows of dim %d: err %v, want a non-retried server error about %q", len(c.nodes), c.dim, err, c.want)
		}
	}
	// At the limit: 2^28-2 floats make a 2^30-2 byte reply, 2^28-1 floats
	// a 2^30+2 byte one (kind byte, 4-byte count, the floats, an empty
	// label block).
	if size := featureReplySize(1, 1<<28-2, false); size != wire.MaxFrame-2 {
		t.Fatalf("featureReplySize(1, 2^28-2) = %d, want %d", size, wire.MaxFrame-2)
	}
	if size := featureReplySize(1, 1<<28-1, false); size != wire.MaxFrame+2 {
		t.Fatalf("featureReplySize(1, 2^28-1) = %d, want %d", size, wire.MaxFrame+2)
	}
	if size := featureReplySize(1<<20, 64, true); size != 1+4+4<<26+3+4<<20 {
		t.Fatalf("featureReplySize(2^20 rows, 64, labels) = %d", size)
	}
	out := make([]float32, 2)
	reply := FeatureReply{dim: 2, out: out, occ: runsOf(identityOcc(1))}
	if err := tr.Call("Features", &FeatureArgs{Nodes: []graph.VertexID{id}, Dim: 2}, &reply, 5*time.Second, callEnv{}); err != nil {
		t.Fatalf("call after the rejections: %v", err)
	}
	if out[0] != 1 || out[1] != 2 {
		t.Fatalf("rows after the rejections = %v", out)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials: the rejections cost the connection", n)
	}
}

// lingerConn lets the exchange in flight finish after Close, as a wrapped
// connection may: it closes the connection under it only after linger, and
// counts the bytes read once Close was called.
type lingerConn struct {
	net.Conn
	linger time.Duration
	closed atomic.Bool
	late   atomic.Int64
}

func (c *lingerConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.closed.Load() {
		c.late.Add(int64(n))
	}
	return n, err
}

func (c *lingerConn) Close() error {
	if !c.closed.Swap(true) {
		time.AfterFunc(c.linger, func() { c.Conn.Close() })
	}
	return nil
}

// TestAbandonedAttemptNeverWritesRows: a Features attempt abandoned to its
// timeout never writes the caller's rows, since a retry decodes into the
// same destination. The first attempt's request is delayed past the call
// timeout; its connection lets the exchange finish after the timeout, so
// its late reply arrives after the retry decoded, carrying rows the store
// took in between. The caller's rows must stay the ones the retry read;
// under -race, a late decode into them is also a reported race.
func TestAbandonedAttemptNeverWritesRows(t *testing.T) {
	const rows, dim, timeout = 400, 32, 100 * time.Millisecond
	var (
		mu    sync.Mutex
		conns []*lingerConn
		injs  []*faultinject.Injector // one per dialed connection
	)
	opts := DefaultOptions()
	opts.CallTimeout = timeout
	opts.RetryBaseDelay = time.Millisecond
	opts.RetryMaxDelay = time.Millisecond
	m := &Metrics{}
	opts.Metrics = m
	lc := NewLocalClusterOptions(1, LocalOptions{
		Client: opts,
		StoreFactory: func(int) (storage.TopologyStore, *kvstore.Store) {
			return storage.NewDynamicStore(storage.Options{}), kvstore.New()
		},
		WrapConn: func(_ int, c net.Conn) net.Conn {
			in := faultinject.New(1, faultinject.Config{})
			lc := &lingerConn{Conn: in.WrapConn(c), linger: 10 * timeout}
			mu.Lock()
			injs, conns = append(injs, in), append(conns, lc)
			mu.Unlock()
			return lc
		},
	})
	defer lc.Shutdown()
	client := lc.Client()
	nodes := make([]graph.VertexID, rows)
	data := make([]float32, rows*dim)
	labels := make([]int32, rows)
	for i := range nodes {
		nodes[i] = graph.MakeVertexID(0, uint64(i))
		for d := 0; d < dim; d++ {
			data[i*dim+d] = float32(i) + float32(d)/64
		}
		labels[i] = int32(i % 5)
	}
	if err := client.SetFeatures(nodes, dim, data, labels); err != nil {
		t.Fatal(err)
	}
	// The pooled connection, the one SetFeatures used, delays the next
	// request past the timeout.
	mu.Lock()
	first := conns[len(conns)-1]
	injs[len(injs)-1].SetConfig(faultinject.Config{Latency: 2 * timeout})
	mu.Unlock()

	// Ask for every row twice, so the fan-out copies run too.
	ask := append(append([]graph.VertexID(nil), nodes...), nodes...)
	got, gotLabels, err := client.FeaturesLabels(ask, dim)
	if err != nil {
		t.Fatal(err)
	}
	if m.RPCTimeouts.Load() == 0 {
		t.Fatal("the delayed first attempt did not time out")
	}
	// The store changes before the abandoned attempt's request reaches it.
	attrs := lc.Service(0).attrs
	for _, id := range nodes {
		attrs.SetFeatures(id, make([]float32, dim))
		attrs.SetLabel(id, -1)
	}
	check := func(when string) {
		t.Helper()
		for i, x := range got {
			if w := data[i%(rows*dim)]; x != w {
				t.Fatalf("%s: row %d col %d = %v, want %v", when, i/dim, i%dim, x, w)
			}
		}
		for i, l := range gotLabels {
			if l != labels[i%rows] {
				t.Fatalf("%s: label %d = %d, want %d", when, i, l, labels[i%rows])
			}
		}
	}
	check("after the call")
	deadline := time.Now().Add(5 * time.Second)
	for first.late.Load() < wire.HeaderSize+4*rows*dim {
		if time.Now().After(deadline) {
			t.Fatalf("the abandoned attempt read %d bytes of its late reply", first.late.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a late decode to land
	check("after the late reply")
}
