// Client-side transport: the cluster's call sites (fan-out client, replica
// catch-up, migration pulls, scrubber probes, control-plane round trips)
// reach a server through a pool of handshaked internal/wire connections.
// Every connection speaks the binary wire protocol at wire.Version; a peer
// of another version is refused at the handshake.
//
// A server's refusal crosses the wire as a ServerError whose Kind the
// retry, failover and re-routing layers branch on; no layer reads an
// error's text.
package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"platod2gl/internal/wire"
)

// Protocol once selected between the wire codec and a legacy gob fallback.
//
// Deprecated: every connection speaks the binary wire protocol; the type
// remains only so callers that set Options.Protocol keep compiling.
type Protocol int

// ProtoWire is the binary wire protocol, the only one there is.
//
// Deprecated: setting Options.Protocol has no effect.
const ProtoWire Protocol = 1

// ErrorKind says why a server refused a call, which decides what the client
// does next.
type ErrorKind uint8

const (
	// KindApplication is a refusal on the request's merits (a bad argument,
	// a failed durability hook): every replica would answer the same, so it
	// is neither retried nor failed over.
	KindApplication ErrorKind = iota
	// KindOverloaded is an admission shed: the server is healthy but full.
	// The client backs off for RetryAfter, and its breaker counts the call
	// as a success.
	KindOverloaded
	// KindBudgetExpired is an admission fast-reject: the request's remaining
	// budget is below the method's observed service time. The caller's
	// deadline is as good as spent, so it is neither retried nor failed
	// over.
	KindBudgetExpired
	// KindNotReady is a replica still catching up; reads fail over to a
	// sibling.
	KindNotReady
	// KindNotOwner is a routed request on a server that does not own its
	// shard; the client refreshes its shard map and re-routes.
	KindNotOwner
	// KindChecksum is a payload that failed verification, damaged in
	// flight; a retry re-sends it intact.
	KindChecksum
)

// ServerError is a call the server refused. It is the one error type an
// error frame carries: the kind byte, RetryAfter in whole milliseconds
// (KindOverloaded's hint, 0 otherwise) and the text.
type ServerError struct {
	Kind       ErrorKind
	RetryAfter time.Duration
	Msg        string
}

func (e *ServerError) Error() string { return e.Msg }

func (e *ServerError) appendWire(b []byte) []byte {
	b = append(b, byte(e.Kind))
	b = wire.AppendUvarint(b, uint64(e.RetryAfter/time.Millisecond))
	return wire.AppendString(b, e.Msg)
}

func (e *ServerError) decodeWire(r *wire.Reader) {
	e.Kind = ErrorKind(r.Byte())
	e.RetryAfter = time.Duration(r.Uvarint()) * time.Millisecond
	e.Msg = r.String()
}

// isKind reports whether err's chain holds a ServerError of kind k.
func isKind(err error, k ErrorKind) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Kind == k
}

// callEnv is the admission envelope a call may carry: an explicit priority
// class and the caller's remaining deadline budget. The zero value means
// "no envelope" — the server applies the method's default class.
type callEnv struct {
	pri    Priority
	hasPri bool
	budget time.Duration
}

// wireTransport pools handshaked connections to one server, each carrying a
// single outstanding call at a time. Concurrency comes from the pool (each
// in-flight call owns a connection), not from multiplexing — which keeps
// frames sequence-number-free and makes a timeout's blast radius a single
// connection.
type wireTransport struct {
	dial Dialer
	hsTO time.Duration

	mu     sync.Mutex
	idle   []net.Conn
	closed bool
}

// maxIdleWireConns bounds the per-server pool; beyond it, finished
// connections are closed rather than kept.
const maxIdleWireConns = 8

var errTransportClosed = errors.New("cluster: transport closed")

// get pops an idle connection or handshakes a fresh one.
func (t *wireTransport) get() (net.Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errTransportClosed
	}
	if n := len(t.idle); n > 0 {
		conn := t.idle[n-1]
		t.idle = t.idle[:n-1]
		t.mu.Unlock()
		return conn, nil
	}
	t.mu.Unlock()
	conn, err := t.dial()
	if err != nil {
		return nil, err
	}
	if err := clientHandshake(conn, t.hsTO); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: wire handshake: %w", err)
	}
	return conn, nil
}

// put returns a healthy connection to the pool.
func (t *wireTransport) put(conn net.Conn) {
	t.mu.Lock()
	if !t.closed && len(t.idle) < maxIdleWireConns {
		t.idle = append(t.idle, conn)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	conn.Close()
}

func (t *wireTransport) Close() error {
	t.mu.Lock()
	idle := t.idle
	t.idle = nil
	t.closed = true
	t.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
	return nil
}

// Call encodes args, performs one request/response exchange carrying the
// admission envelope env, and decodes into reply. The encode happens
// synchronously in the caller, so callers may recycle args-backing buffers
// once Call returns. With a timeout d, a goroutine only writes the request
// and reads the response frame; the caller decodes it into reply after
// winning the race against the timer. So an attempt abandoned to its
// timeout never writes the caller's reply, and a retry may decode into the
// same reply (and the destination it points at) without racing it.
func (t *wireTransport) Call(method string, args, reply wireMessage, d time.Duration, env callEnv) error {
	id, ok := wireMethodID[method]
	if !ok {
		return fmt.Errorf("cluster: unknown wire method %q", method)
	}
	conn, err := t.get()
	if err != nil {
		return err
	}
	frame := wire.GetFrame()
	if env.hasPri || env.budget > 0 {
		frame = append(frame, wire.KindRequestEnv)
		if env.hasPri {
			frame = append(frame, byte(env.pri)+1)
		} else {
			frame = append(frame, 0) // method-default sentinel
		}
		ms := uint64(env.budget / time.Millisecond)
		if ms == 0 && env.budget > 0 {
			ms = 1
		}
		frame = wire.AppendUvarint(frame, ms)
	} else {
		frame = append(frame, wire.KindRequest)
	}
	frame = wire.AppendUvarint(frame, uint64(id))
	frame = args.appendWire(frame)

	if d <= 0 {
		resp, err := exchangeWire(conn, frame)
		wire.PutBuf(frame)
		if err == nil {
			err = decodeResponse(resp, reply)
		}
		t.finish(conn, err)
		return err
	}
	// The exchange runs in a goroutine so a blackholed connection cannot
	// outlive the deadline (conns may be wrapped — fault injection, pipes —
	// so SetDeadline is not universally honored; closing the conn is).
	type result struct {
		resp []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := exchangeWire(conn, frame)
		wire.PutBuf(frame)
		done <- result{resp, err}
	}()
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		conn.Close() // unblocks the goroutine; the conn is not reusable
		return ErrCallTimeout
	case res := <-done:
		err := res.err
		if err == nil {
			err = decodeResponse(res.resp, reply)
		}
		t.finish(conn, err)
		return err
	}
}

// finish recycles or discards the connection depending on how the exchange
// ended: a server's refusal leaves a healthy framing stream, transport
// errors do not.
func (t *wireTransport) finish(conn net.Conn, err error) {
	var se *ServerError
	if err == nil || errors.As(err, &se) {
		t.put(conn)
		return
	}
	conn.Close()
}

// exchangeWire writes one request frame and reads the response frame, a
// wire.GetBuf buffer for decodeResponse.
func exchangeWire(conn net.Conn, frame []byte) ([]byte, error) {
	if err := wire.WriteFrame(conn, frame); err != nil {
		return nil, fmt.Errorf("cluster: wire write: %w", err)
	}
	resp, err := wire.ReadFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("cluster: wire read: %w", err)
	}
	return resp, nil
}

// decodeResponse decodes a response frame into reply, or returns the
// server's error frame as a *ServerError, and recycles the frame.
func decodeResponse(resp []byte, reply wireMessage) error {
	defer wire.PutBuf(resp)
	if len(resp) == 0 {
		return errors.New("cluster: empty wire response")
	}
	var se *ServerError
	switch resp[0] {
	case wire.KindResponse:
	case wire.KindError:
		se = new(ServerError)
		reply = se
	default:
		return fmt.Errorf("cluster: unexpected frame kind 0x%02x", resp[0])
	}
	r := wire.NewReader(resp[1:])
	reply.decodeWire(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("cluster: decode %T: %w", reply, err)
	}
	if se != nil {
		return se
	}
	return nil
}

// clientHandshake offers wire.Version on a fresh connection and requires the
// server to accept it, bounded by timeout via close-on-timer (deadline-free
// for wrapped conns).
func clientHandshake(conn net.Conn, timeout time.Duration) error {
	exchange := func() error {
		h := wire.Hello(wire.Version, wire.Version)
		if _, err := conn.Write(h[:]); err != nil {
			return err
		}
		var ack [8]byte
		if _, err := io.ReadFull(conn, ack[:]); err != nil {
			return err
		}
		ver, err := wire.ParseAck(ack)
		if err != nil {
			return err
		}
		if ver != wire.Version {
			return fmt.Errorf("%w: server answered version %d to %d", wire.ErrBadHandshake, ver, wire.Version)
		}
		return nil
	}
	if timeout <= 0 {
		return exchange()
	}
	done := make(chan error, 1)
	go func() { done <- exchange() }()
	tm := time.NewTimer(timeout)
	defer tm.Stop()
	select {
	case <-tm.C:
		conn.Close()
		return fmt.Errorf("cluster: wire handshake: %w", ErrCallTimeout)
	case err := <-done:
		return err
	}
}

// dialTransport dials one server and handshakes the wire protocol, returning
// a pooled transport that already holds the handshaked connection. A peer
// that does not answer the hello with a wire.Version ack — a pre-wire
// binary, a build of another wire version, or anything else — fails the
// dial.
func dialTransport(dial Dialer, hsTimeout time.Duration, m *Metrics) (*wireTransport, error) {
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := clientHandshake(conn, hsTimeout); err != nil {
		conn.Close()
		return nil, err
	}
	m.observeClientCall("Handshake", start)
	m.WireHandshakes.Inc()
	t := &wireTransport{dial: dial, hsTO: hsTimeout}
	t.idle = append(t.idle, conn)
	return t, nil
}
