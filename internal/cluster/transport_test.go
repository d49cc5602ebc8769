package cluster

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
	"platod2gl/internal/wire"
)

// startWireServer runs a Server on a real TCP listener and returns its
// address plus the service's metrics.
func startWireServer(t *testing.T) (addr string, m *Metrics, svc *Service) {
	t.Helper()
	return startConfiguredWireServer(t, nil)
}

// startConfiguredWireServer is startWireServer with a hook to tune the
// Server (admission gate, accept limits) before it serves.
func startConfiguredWireServer(t *testing.T, configure func(*Server)) (addr string, m *Metrics, svc *Service) {
	t.Helper()
	svc = newTestService(t)
	m = &Metrics{}
	svc.SetMetrics(m)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(svc)
	if configure != nil {
		configure(srv)
	}
	go srv.Serve(lis)
	t.Cleanup(func() { lis.Close() })
	return lis.Addr().String(), m, svc
}

func testEvents(n int) []graph.Event {
	evs := make([]graph.Event, n)
	for i := range evs {
		evs[i] = graph.Event{Kind: graph.AddEdge,
			Edge: graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1000), Weight: 1}}
	}
	return evs
}

// exerciseClient pushes a batch and reads it back through sampling + stats.
func exerciseClient(t *testing.T, c *Client) {
	t.Helper()
	if err := c.ApplyBatch(testEvents(200)); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	seeds := []graph.VertexID{1, 2, 3}
	neigh, err := c.SampleNeighbors(seeds, 0, 4, 7)
	if err != nil {
		t.Fatalf("SampleNeighbors: %v", err)
	}
	if len(neigh) != len(seeds)*4 {
		t.Fatalf("SampleNeighbors returned %d ids, want %d", len(neigh), len(seeds)*4)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.NumEdges == 0 {
		t.Fatal("Stats reports zero edges after ApplyBatch")
	}
}

// exerciseClientWithEnvelope drives calls that carry the request envelope —
// a deadline-bearing context and an explicit priority tag — and requires
// them to succeed.
func exerciseClientWithEnvelope(t *testing.T, c *Client) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.ApplyBatchCtx(WithPriority(ctx, PriorityPrefetch), testEvents(100)); err != nil {
		t.Fatalf("ApplyBatchCtx with budget+priority: %v", err)
	}
	if _, err := c.SampleNeighborsCtx(ctx, []graph.VertexID{1, 2}, 0, 4, 7); err != nil {
		t.Fatalf("SampleNeighborsCtx with budget: %v", err)
	}
	bg := WithPriority(context.Background(), PriorityBackground)
	if _, err := c.StatsCtx(bg); err != nil {
		t.Fatalf("StatsCtx with background priority: %v", err)
	}
}

// TestInteropWireToWire: current client against current server negotiates
// the binary protocol, serves bare and envelope requests, and records exact
// payload bytes.
func TestInteropWireToWire(t *testing.T) {
	addr, sm, _ := startWireServer(t)
	cm := &Metrics{}
	opts := DefaultOptions()
	opts.CallTimeout = 5 * time.Second
	opts.Metrics = cm
	c, err := Dial([]string{addr}, opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	exerciseClient(t, c)
	exerciseClientWithEnvelope(t, c)

	if n := cm.WireHandshakes.Load(); n == 0 {
		t.Fatal("client recorded no wire handshakes")
	}
	if n := sm.WireHandshakes.Load(); n == 0 {
		t.Fatal("server recorded no wire handshakes")
	}
	for _, method := range []string{"Handshake", "ApplyBatch", "SampleNeighbors", "Stats"} {
		if sm.PayloadBytes.With(method).Count() == 0 {
			t.Errorf("no payload bytes recorded for %s", method)
		}
	}
	// A 200-event batch is ~20 bytes/event on the wire. Assert the encoding
	// actually landed in the compact range.
	snap := sm.PayloadBytes.With("ApplyBatch").Snapshot()
	if snap.Sum > 200*25 {
		t.Errorf("ApplyBatch payload %d bytes for 200 events — wire codec not in effect?", snap.Sum)
	}
}

// TestPayloadBytesCountFramedSizes: rpc_payload_bytes records exactly the
// bytes of the framed request and the framed reply, length prefixes
// included.
func TestPayloadBytesCountFramedSizes(t *testing.T) {
	addr, sm, _ := startWireServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	hello := wire.Hello(1, wire.Version)
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	var ack [8]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		t.Fatalf("read ack: %v", err)
	}
	id := wireMethodID["Stats"]
	frame := append(wire.GetFrame(), wire.KindRequest, byte(id))
	frame = wireMethods[id].newArgs().appendWire(frame)
	if err := wire.WriteFrame(conn, frame); err != nil {
		t.Fatalf("write request: %v", err)
	}
	resp, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if resp[0] != wire.KindResponse {
		t.Fatalf("reply kind 0x%02x", resp[0])
	}
	want := int64(len(frame) + wire.HeaderSize + len(resp))
	if got := sm.PayloadBytes.With("Stats").Snapshot().Sum; got != want {
		t.Fatalf("rpc_payload_bytes{Stats} = %d, want %d framed bytes", got, want)
	}
}

// TestServerMaxConns: connections past ServerLimits.MaxConns are refused
// immediately — the accept loop must not spawn a goroutine per flood conn.
func TestServerMaxConns(t *testing.T) {
	addr, sm, _ := startConfiguredWireServer(t, func(s *Server) {
		s.SetLimits(ServerLimits{MaxConns: 1})
	})
	opts := DefaultOptions()
	opts.CallTimeout = 5 * time.Second
	c, err := Dial([]string{addr}, opts)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	// Pin the one allowed connection with real traffic.
	if err := c.ApplyBatch(testEvents(10)); err != nil {
		t.Fatalf("ApplyBatch: %v", err)
	}
	// A second raw connection must be closed by the server without service.
	deadline := time.Now().Add(10 * time.Second)
	rejected := false
	for time.Now().Before(deadline) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			rejected = true
			break
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 1)
		if _, rerr := conn.Read(buf); rerr != nil {
			// Immediate EOF/reset: the server refused us before any protocol.
			conn.Close()
			rejected = true
			break
		}
		conn.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !rejected {
		t.Fatal("second connection was served despite MaxConns=1")
	}
	if n := sm.ConnectionsRejected.Load(); n == 0 {
		t.Fatal("ConnectionsRejected counter never incremented")
	}
}

// TestServerHandshakeTimeout: a connection that opens and goes silent is
// closed once HandshakeTimeout elapses instead of pinning a handshake token
// forever.
func TestServerHandshakeTimeout(t *testing.T) {
	addr, _, _ := startConfiguredWireServer(t, func(s *Server) {
		s.SetLimits(ServerLimits{HandshakeTimeout: 50 * time.Millisecond})
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Send nothing. The server must hang up on us.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("silent connection was served past the handshake timeout")
	}
}

// requireNoHandlerRan fails t if the server completed a handshake or ran
// any RPC handler.
func requireNoHandlerRan(t *testing.T, sm *Metrics) {
	t.Helper()
	if n := sm.WireHandshakes.Load(); n != 0 {
		t.Fatalf("server counted %d handshakes for a refused hello", n)
	}
	for _, wm := range wireMethods {
		if n := sm.ServerLatency.With(wm.name).Count(); n != 0 {
			t.Fatalf("server ran %d %s handlers for a refused hello", n, wm.name)
		}
	}
}

// TestWireRefusesForeignPeers: every connection speaks the wire protocol at
// wire.Version, in both directions. A server closes a connection whose
// hello does not start with wire.Magic, or whose version range excludes
// wire.Version, before dispatching anything — even a well-formed request
// frame behind the hello — and a client dial fails, within its timeout,
// against a peer that never acks, hangs up on the hello, or acks another
// version.
func TestWireRefusesForeignPeers(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		addr, sm, _ := startWireServer(t)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		hello := wire.Hello(1, wire.Version)
		hello[0] ^= 0xff
		frame := append(wire.GetFrame(), wire.KindRequest, byte(wireMethodID["Stats"]))
		if _, err := conn.Write(hello[:]); err != nil {
			t.Fatalf("write hello: %v", err)
		}
		// The server may already have hung up; the write's outcome is moot.
		wire.WriteFrame(conn, frame)
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := conn.Read(make([]byte, 16)); err == nil || n != 0 {
			t.Fatalf("server answered %d bytes (err %v) to a foreign hello", n, err)
		}
		requireNoHandlerRan(t, sm)
	})
	t.Run("server/v1-only", func(t *testing.T) {
		addr, sm, svc := startWireServer(t)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		hello := wire.Hello(1, 1)
		id := wireMethodID["ApplyBatch"]
		frame := append(wire.GetFrame(), wire.KindRequest, byte(id))
		frame = (&BatchArgs{Events: testEvents(10)}).appendWire(frame)
		if _, err := conn.Write(hello[:]); err != nil {
			t.Fatalf("write hello: %v", err)
		}
		wire.WriteFrame(conn, frame) // the server may already have hung up
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		var ack [8]byte
		if _, err := io.ReadFull(conn, ack[:]); err != nil {
			t.Fatalf("read ack: %v", err)
		}
		if ver, err := wire.ParseAck(ack); err != nil || ver != 0 {
			t.Fatalf("ack to a v1-only hello = %d (err %v), want 0", ver, err)
		}
		if n, err := conn.Read(make([]byte, 16)); err == nil || n != 0 {
			t.Fatalf("server sent %d more bytes (err %v) after rejecting the hello", n, err)
		}
		requireNoHandlerRan(t, sm)
		if n := svc.store.NumEdges(); n != 0 {
			t.Fatalf("store holds %d edges from a rejected connection's frame", n)
		}
	})
	for _, tc := range []struct {
		name  string
		serve func(net.Conn)
	}{
		{"client/silent", func(c net.Conn) { io.Copy(io.Discard, c) }},
		{"client/hangs-up", func(c net.Conn) { c.Close() }},
		{"client/acks-v1", func(c net.Conn) {
			var hello [8]byte
			if _, err := io.ReadFull(c, hello[:]); err != nil {
				return
			}
			ack := wire.Ack(1)
			c.Write(ack[:])
			io.Copy(io.Discard, c)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			defer lis.Close()
			go func() {
				for {
					conn, err := lis.Accept()
					if err != nil {
						return
					}
					go tc.serve(conn)
				}
			}()
			opts := DefaultOptions()
			opts.CallTimeout = 200 * time.Millisecond
			start := time.Now()
			c, err := Dial([]string{lis.Addr().String()}, opts)
			if err == nil {
				c.Close()
				t.Fatal("dial of a peer that never acks succeeded")
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("dial took %v to fail, want about the 200ms call timeout", d)
			}
		})
	}
}

// roundTripErrors sends each error through a real error frame: a server's
// batch hook returns it, and the client's ApplyBatch call must decode a
// *ServerError of the same kind, retry-after hint and text (the handler's
// "batch hook" context included). Each refusal also goes out wrapped with
// %w, and must come back with the wrapping text. A plain error comes back
// as an application error. Every refusal leaves its connection in the
// pool. It returns what the client's calls returned, bare and wrapped in
// turn, for the caller's kind checks.
func roundTripErrors(t *testing.T, errs []error) []error {
	t.Helper()
	addr, _, svc := startWireServer(t)
	next := make(chan error, 1)
	svc.SetBatchHook(func(uint64, uint64, []graph.Event) error {
		select {
		case err := <-next:
			return err
		default:
			return errors.New("test: no hook error queued")
		}
	})
	var dials atomic.Int32
	tr := &wireTransport{dial: func() (net.Conn, error) {
		dials.Add(1)
		return net.Dial("tcp", addr)
	}, hsTO: 5 * time.Second}
	defer tr.Close()

	type roundTripCase struct {
		err  error
		want ServerError
	}
	var cases []roundTripCase
	for _, err := range errs {
		var se ServerError
		var typed *ServerError
		if errors.As(err, &typed) {
			se = *typed
		} else {
			se = ServerError{Kind: KindApplication, Msg: err.Error()}
		}
		wrapped := se
		wrapped.Msg = "wal: append: " + se.Msg
		cases = append(cases, roundTripCase{err, se}, roundTripCase{fmt.Errorf("wal: append: %w", err), wrapped})
	}

	events := testEvents(3)
	var got []error
	for i, c := range cases {
		next <- c.err
		args := &BatchArgs{Events: events, ClientID: 1, Seq: uint64(i + 1), Sum: checksumEvents(events)}
		err := tr.Call("ApplyBatch", args, &BatchReply{}, 5*time.Second, callEnv{})
		var se *ServerError
		if !errors.As(err, &se) {
			t.Fatalf("%v: client got %v, want a *ServerError", c.err, err)
		}
		want := c.want
		want.Msg = "cluster: batch hook: " + want.Msg
		if *se != want {
			t.Errorf("%v: client decoded %+v, want %+v", c.err, *se, want)
		}
		got = append(got, err)
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("%d dials for %d refused calls, want 1: a refusal must leave its connection in the pool", n, len(cases))
	}
	return got
}

// TestServerErrorFrameRoundTrip: application, not-ready and checksum
// refusals and a plain error keep their kind and text across the wire.
// The overloaded, budget-expired and not-owner kinds have tests of their
// own.
func TestServerErrorFrameRoundTrip(t *testing.T) {
	roundTripErrors(t, []error{
		&ServerError{Kind: KindApplication, Msg: "cluster: negative fanout -1"},
		ErrReplicaNotReady,
		checksumError("ApplyBatch events", 1, 2),
		errors.New("wal: disk full"),
	})
}

// TestErrorFrameGolden pins the error frame's bytes for each kind: the frame
// kind 0x03, the error kind, the retry-after hint in milliseconds as a
// uvarint, and the text as a uvarint-length string.
func TestErrorFrameGolden(t *testing.T) {
	for _, c := range []struct {
		err error
		hex string
	}{
		{errors.New("boom"), "03 00 00 04 626f6f6d"},
		{&ServerError{Kind: KindApplication, Msg: "x"}, "03 00 00 01 78"},
		{&ServerError{Kind: KindOverloaded, RetryAfter: 300 * time.Millisecond, Msg: "x"}, "03 01 ac02 01 78"},
		{&ServerError{Kind: KindBudgetExpired, Msg: "x"}, "03 02 00 01 78"},
		{&ServerError{Kind: KindNotReady, Msg: "x"}, "03 03 00 01 78"},
		{&ServerError{Kind: KindNotOwner, Msg: "x"}, "03 04 00 01 78"},
		{&ServerError{Kind: KindChecksum, Msg: "x"}, "03 05 00 01 78"},
		{fmt.Errorf("y: %w", &ServerError{Kind: KindOverloaded, RetryAfter: 5 * time.Millisecond, Msg: "x"}), "03 01 05 04 793a2078"},
	} {
		frame := errorFrame(c.err)
		got := hex.EncodeToString(frame[wire.HeaderSize:])
		wire.PutBuf(frame)
		if want := strings.ReplaceAll(c.hex, " ", ""); got != want {
			t.Errorf("error frame of %#v = %s, want %s", c.err, got, want)
		}
	}
}

// spoofStore panics on Degree with msg, so a read's error text is msg.
type spoofStore struct {
	storage.TopologyStore
	msg string
}

func (s spoofStore) Degree(graph.VertexID, graph.EdgeType) int { panic(s.msg) }

// TestErrorTextDoesNotClassify: a refusal's kind travels in its own byte,
// so a handler error whose text merely reads like a shed or a NotOwner
// rejection (a WAL error naming a path, a panic message) is an application
// error. The client neither retries, nor fails over, nor re-routes it.
func TestErrorTextDoesNotClassify(t *testing.T) {
	for _, msg := range []string{
		"cluster: overloaded: ApplyBatch (interactive): retry after 5ms",
		"cluster: not owner of shard 0 (routing epoch 9)",
	} {
		lc := NewLocalClusterOptions(2, LocalOptions{
			Client: Options{CallTimeout: 5 * time.Second, MaxRetries: 3, RetryBaseDelay: time.Millisecond, Replicas: 2, Seed: 1},
			ServiceFactory: func(int) *Service {
				svc := NewService(spoofStore{storage.NewDynamicStore(storage.Options{}), msg}, kvstore.New())
				svc.SetBatchHook(func(uint64, uint64, []graph.Event) error { return errors.New(msg) })
				return svc
			},
		})
		client := lc.Client()
		werr := client.ApplyBatch(testEvents(4))
		_, rerr := client.Degree([]graph.VertexID{1}, 0)
		lc.Shutdown()
		for name, err := range map[string]error{"ApplyBatch": werr, "Degree": rerr} {
			if !isKind(err, KindApplication) || !strings.Contains(err.Error(), msg) {
				t.Errorf("%s with error text %q: got %v, want an application error", name, msg, err)
			}
		}
		m := client.Metrics()
		for name, n := range map[string]int64{
			"retries": m.RPCRetries.Load(), "sheds seen": m.ShedSeen.Load(),
			"read failovers": m.ReadFailovers.Load(), "reroutes": m.Reroutes.Load(),
		} {
			if n != 0 {
				t.Errorf("error text %q: %s = %d, want 0", msg, name, n)
			}
		}
	}
}
