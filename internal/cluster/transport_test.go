package cluster

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"platod2gl/internal/graph"
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
	id := wireMethodID[ServiceName+".Stats"]
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
		frame := append(wire.GetFrame(), wire.KindRequest, byte(wireMethodID[ServiceName+".Stats"]))
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
		id := wireMethodID[ServiceName+".ApplyBatch"]
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
