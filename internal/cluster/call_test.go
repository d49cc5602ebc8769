package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"platod2gl/internal/faultinject"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
	"platod2gl/internal/wire"
)

// countingTransport is a transport to addr whose connections pass through
// inj, counting its dials.
func countingTransport(addr string, inj *faultinject.Injector, dials *atomic.Int32) *wireTransport {
	return &wireTransport{dial: func() (net.Conn, error) {
		dials.Add(1)
		c, err := net.Dial("tcp", addr)
		if err != nil || inj == nil {
			return c, err
		}
		return inj.WrapConn(c), nil
	}, hsTO: 5 * time.Second}
}

// idleConns is the number of connections in t's pool.
func idleConns(t *wireTransport) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.idle)
}

// TestCallTimeoutOnPartition: a call into a partition, either direction,
// returns ErrCallTimeout within its deadline plus a slack, without writing
// the caller's reply; its connection leaves the pool, so the next call
// redials; and no goroutine outlives the timed-out calls.
func TestCallTimeoutOnPartition(t *testing.T) {
	const timeout, slack = 50 * time.Millisecond, 500 * time.Millisecond
	addr, _, svc := startWireServer(t)
	src := graph.MakeVertexID(0, 1)
	svc.store.AddEdge(graph.Edge{Src: src, Dst: graph.MakeVertexID(0, 2), Weight: 1})
	inj := faultinject.New(1, faultinject.Config{})
	var dials atomic.Int32
	tr := countingTransport(addr, inj, &dials)
	defer tr.Close()
	args := &SampleArgs{Seeds: []graph.VertexID{src}, Fanout: 3, Seed: 1}
	var reply SampleReply
	if err := tr.Call("SampleNeighbors", args, &reply, timeout, callEnv{}); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for i, dir := range []struct{ in, out bool }{{true, false}, {false, true}, {true, true}} {
		inj.Partition(dir.in, dir.out)
		reply = SampleReply{}
		start := time.Now()
		err := tr.Call("SampleNeighbors", args, &reply, timeout, callEnv{})
		elapsed := time.Since(start)
		if !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("partition %+v: err %v, want ErrCallTimeout", dir, err)
		}
		if elapsed < timeout || elapsed > timeout+slack {
			t.Fatalf("partition %+v: timed out after %v, want %v plus at most %v", dir, elapsed, timeout, slack)
		}
		if reply.Neighbors != nil {
			t.Fatalf("partition %+v: the timed-out call wrote its reply", dir)
		}
		if n := idleConns(tr); n != 0 {
			t.Fatalf("partition %+v: %d pooled connections after the timeout, want 0", dir, n)
		}
		inj.Partition(false, false)
		if err := tr.Call("SampleNeighbors", args, &reply, timeout, callEnv{}); err != nil {
			t.Fatalf("partition %+v healed: %v", dir, err)
		}
		if n := dials.Load(); n != int32(i+2) {
			t.Fatalf("partition %+v healed: %d dials, want %d (one redial per timeout)", dir, n, i+2)
		}
		if len(reply.Neighbors) != 3 {
			t.Fatalf("partition %+v healed: %d samples, want 3", dir, len(reply.Neighbors))
		}
	}
	waitGoroutineBaseline(t, baseline, 0)
}

// TestCallRetryDecodesIntoSameReply: attempts whose request is delayed
// around their deadline either time out or answer, and each retry decodes
// into the reply the attempt before it was given. Under -race a write into
// the reply by an abandoned attempt is a reported race; without it, the
// reply must hold what the last attempt read.
func TestCallRetryDecodesIntoSameReply(t *testing.T) {
	const timeout = 4 * time.Millisecond
	addr, _, svc := startWireServer(t)
	src := graph.MakeVertexID(0, 1)
	svc.store.AddEdge(graph.Edge{Src: src, Dst: graph.MakeVertexID(0, 2), Weight: 1})
	inj := faultinject.New(7, faultinject.Config{Latency: timeout / 2, LatencyJitter: timeout})
	var dials atomic.Int32
	tr := countingTransport(addr, inj, &dials)
	defer tr.Close()
	args := &SampleArgs{Seeds: []graph.VertexID{src}, Fanout: 2, Seed: 1}
	var reply SampleReply
	timeouts, answers := 0, 0
	for answers < 20 {
		reply.Neighbors = reply.Neighbors[:0]
		err := tr.Call("SampleNeighbors", args, &reply, timeout, callEnv{})
		switch {
		case errors.Is(err, ErrCallTimeout):
			timeouts++
		case err != nil:
			t.Fatal(err)
		default:
			answers++
			if want := []graph.VertexID{graph.MakeVertexID(0, 2), graph.MakeVertexID(0, 2)}; !slices.Equal(reply.Neighbors, want) {
				t.Fatalf("reply %v, want %v", reply.Neighbors, want)
			}
		}
		if timeouts > 2000 {
			t.Fatalf("%d timeouts and %d answers: the latency never let a call finish", timeouts, answers)
		}
	}
	t.Logf("%d answers, %d timeouts, %d dials", answers, timeouts, dials.Load())
}

// TestBufferedFramingSharesOneConn: one pooled connection carries 120
// calls whose replies alternate between a few bytes (Degree) and Features
// replies several times the reader's buffer, and every reply decodes intact.
func TestBufferedFramingSharesOneConn(t *testing.T) {
	const rows, dim = 96, 48 // an 18 KB reply
	addr, _, svc := startWireServer(t)
	nodes := make([]graph.VertexID, rows)
	for i := range nodes {
		nodes[i] = graph.MakeVertexID(0, uint64(i))
		f := make([]float32, dim)
		for d := range f {
			f[d] = float32(i*dim + d)
		}
		svc.attrs.SetFeatures(nodes[i], f)
		for d := 0; d <= i%5; d++ {
			svc.store.AddEdge(graph.Edge{Src: nodes[i], Dst: graph.MakeVertexID(1, uint64(d)), Weight: 1})
		}
	}
	var dials atomic.Int32
	tr := countingTransport(addr, nil, &dials)
	defer tr.Close()
	out := make([]float32, rows*dim)
	for call := 0; call < 120; call++ {
		if call%2 == 0 {
			var reply DegreeReply
			if err := tr.Call("Degree", &DegreeArgs{Nodes: nodes[call%rows : call%rows+1]}, &reply, 5*time.Second, callEnv{}); err != nil {
				t.Fatal(err)
			}
			if want := []int{call%rows%5 + 1}; !slices.Equal(reply.Degrees, want) {
				t.Fatalf("call %d: degrees %v, want %v", call, reply.Degrees, want)
			}
			continue
		}
		clear(out)
		reply := FeatureReply{dim: dim, out: out, occ: runsOf(identityOcc(rows))}
		if err := tr.Call("Features", &FeatureArgs{Nodes: nodes, Dim: dim}, &reply, 5*time.Second, callEnv{}); err != nil {
			t.Fatal(err)
		}
		for i, x := range out {
			if x != float32(i) {
				t.Fatalf("call %d: float %d = %v, want %d", call, i, x, i)
			}
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials for 120 calls, want 1", n)
	}
}

// rawFrame is a request frame for method with the encoded args.
func rawFrame(method string, args wireMessage) []byte {
	f := append(wire.GetFrame(), wire.KindRequest)
	f = wire.AppendUvarint(f, uint64(wireMethodID[method]))
	f = args.appendWire(f)
	binary.LittleEndian.PutUint32(f, uint32(len(f)-wire.HeaderSize))
	return f
}

// TestServerReadsCoalescedFrames: a client that sends its hello and a
// request in one write, and later two requests in one write, gets the ack
// and one reply per request. The handshake reads the hello alone, and the
// buffered reader the server makes after it keeps every frame byte.
func TestServerReadsCoalescedFrames(t *testing.T) {
	addr, _, svc := startWireServer(t)
	src := graph.MakeVertexID(0, 5)
	for d := 0; d < 3; d++ {
		svc.store.AddEdge(graph.Edge{Src: src, Dst: graph.MakeVertexID(1, uint64(d)), Weight: 1})
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := wire.Hello(wire.Version, wire.Version)
	degree := rawFrame("Degree", &DegreeArgs{Nodes: []graph.VertexID{src}})
	stats := rawFrame("Stats", &StatsArgs{})
	if _, err := conn.Write(append(hello[:], degree...)); err != nil {
		t.Fatal(err)
	}
	var ack [8]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		t.Fatal(err)
	}
	if v, err := wire.ParseAck(ack); err != nil || v != wire.Version {
		t.Fatalf("ack %v: version %d, %v", ack, v, err)
	}
	readReply := func(into wireMessage) {
		t.Helper()
		resp, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeResponse(resp, into); err != nil {
			t.Fatal(err)
		}
	}
	var deg DegreeReply
	readReply(&deg)
	if !slices.Equal(deg.Degrees, []int{3}) {
		t.Fatalf("degrees %v, want [3]", deg.Degrees)
	}
	if _, err := conn.Write(append(stats, degree...)); err != nil {
		t.Fatal(err)
	}
	var st StatsReply
	readReply(&st)
	if st.NumEdges != 3 {
		t.Fatalf("stats: %d edges, want 3", st.NumEdges)
	}
	deg = DegreeReply{}
	readReply(&deg)
	if !slices.Equal(deg.Degrees, []int{3}) {
		t.Fatalf("second degrees %v, want [3]", deg.Degrees)
	}
}

// TestClientKeepsFrameSentWithAck: a server that sends its ack and a reply
// frame in one write, before the request arrives, still answers the first
// call: the client's handshake reads the ack alone, and its buffered reader
// starts at the frame.
func TestClientKeepsFrameSentWithAck(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hello [8]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			return
		}
		ack := wire.Ack(wire.Version)
		f := append(wire.GetFrame(), wire.KindResponse)
		f = (&StatsReply{NumEdges: 41, NumSources: 2}).appendWire(f)
		binary.LittleEndian.PutUint32(f, uint32(len(f)-wire.HeaderSize))
		if _, err := conn.Write(append(ack[:], f...)); err != nil {
			return
		}
		req, err := wire.ReadFrame(conn)
		if err == nil {
			wire.PutBuf(req)
			io.Copy(io.Discard, conn) // hold the connection open until the client closes it
		}
	}()
	tr, err := dialTransport(func() (net.Conn, error) { return net.Dial("tcp", lis.Addr().String()) }, 5*time.Second, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var st StatsReply
	if err := tr.Call("Stats", &StatsArgs{}, &st, 5*time.Second, callEnv{}); err != nil {
		t.Fatal(err)
	}
	if st.NumEdges != 41 || st.NumSources != 2 {
		t.Fatalf("stats %+v, want the frame sent with the ack", st)
	}
	tr.Close()
	<-served
}

// clientCallBench is a warm client of one loopback TCP server holding a
// small graph, and the seeds of one /knn-sized sampling call.
func clientCallBench(tb testing.TB) (*Client, []graph.VertexID) {
	tb.Helper()
	svc := NewService(storage.NewDynamicStore(storage.Options{}), kvstore.New())
	seeds := make([]graph.VertexID, 4)
	for i := range seeds {
		seeds[i] = graph.MakeVertexID(0, uint64(i))
		for d := 0; d < 20; d++ {
			svc.store.AddEdge(graph.Edge{Src: seeds[i], Dst: graph.MakeVertexID(1, uint64(i*20+d)), Weight: float64(d + 1)})
		}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go NewServer(svc).Serve(lis)
	tb.Cleanup(func() { lis.Close() })
	opts := DefaultOptions()
	opts.Seed = 1
	client, err := Dial([]string{lis.Addr().String()}, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { client.Close() })
	return client, seeds
}

// BenchmarkClientCall is one warm SampleNeighbors call to a one-shard
// cluster over loopback TCP, with a call budget and the default
// CallTimeout: 4 seeds, fan-out 10, the shape of one /knn query's sampling
// round. It times the whole client path: coalescing, encode, the exchange,
// the server's dispatch and sampling, decode and scatter.
func BenchmarkClientCall(b *testing.B) {
	client, seeds := clientCallBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if _, err := client.SampleNeighborsCtx(ctx, seeds, 0, 10, int64(i)); err != nil {
			b.Fatal(err)
		}
		cancel()
	}
}

// TestClientCallAllocs pins BenchmarkClientCall's allocations per call, the
// client's and the in-process server's together, without the budget's
// context: 14, where a call that ran its exchange and each shard on a
// goroutine of its own made 26, and one that built a Sampler and a
// NeighborBatch on the server and a WaitGroup in the fan-out made 17. One
// more allocation fails.
func TestClientCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	client, seeds := clientCallBench(t)
	ctx := context.Background()
	i := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := client.SampleNeighborsCtx(ctx, seeds, 0, 10, i); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 14 {
		t.Fatalf("a SampleNeighbors call allocates %v times, ceiling 14", allocs)
	}
}
