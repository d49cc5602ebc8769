// Server side of the binary wire protocol: the per-connection handshake, the
// method table, and the frame loop that dispatches requests to the Service
// handlers.
//
// Each RPC is declared once, as a wireMethods row: its name, codec types,
// default admission class, and the rules a call must pass — exempt from
// admission or not, refused mid-catch-up, routed (the shard ownership
// check), a write (the catch-up and migration write gates). handleWireFrame
// and dispatch apply every one of them — admission, argument decode, the
// reply's frame limit and budget, the read gate, ownership, the write gates,
// ServerLatency and panic recovery — so a handler holds only its own logic,
// and the routed handlers are unexported so that no call skips the rules.
//
// A row's index is the method's frame id. Ids are frame-level protocol
// surface: they change only together with a wire.Version bump, since peers
// of one version share one numbering.
package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"platod2gl/internal/wire"
)

// wireMethod is one dispatchable RPC in the binary protocol: its short name
// (the metrics label), its default admission class, its dispatch flags, and
// typed constructors for the arg/reply structs plus the bridge into the
// Service handler, all built by wireRPC.
type wireMethod struct {
	name     string
	pri      Priority
	flags    methodFlags
	newArgs  func() wireMessage
	newReply func() wireMessage
	invoke   func(s *Service, args, reply wireMessage) error
}

// methodFlags are the per-method dispatch rules handleWireFrame applies.
type methodFlags uint8

const (
	// exempt methods bypass the admission gate. They are the control plane:
	// tiny, rare, and the very RPCs that relieve a saturated or
	// mid-migration server, so shedding them turns transient overload into
	// a self-sustaining outage. The concrete inversion the chaos drill
	// caught: writers parked on a migrating shard pin their handler slots,
	// the pinned slots starve the background class, and the background
	// class then sheds the ReleaseShard that would unpark the writers — a
	// deadlock only the park TTL escapes. The data-moving migration RPCs
	// (snapshots, WAL tails, pulls) stay gated.
	exempt methodFlags = 1 << iota
	// readGated methods are refused with ErrReplicaNotReady while the
	// replica catches up, so the client fails over to a converged sibling
	// (and two booting replicas never catch up from each other). Writes
	// have their own gate (gateWrite), which parks rather than rejects
	// during the final drain.
	readGated
	// routed methods carry a shard and routing epoch (routedArgs) and are
	// refused with NotOwner by a routed server that does not own the shard
	// (checkRoute).
	routed
	// write methods are routed methods that also pass the catch-up and
	// migration write gates (gateWrite, gateShardWrite) before the handler.
	write
)

// wireRPC builds one wireMethods row from a Service handler; the arg and reply
// types are inferred from the handler's signature.
func wireRPC[A, R any, PA interface {
	*A
	wireMessage
}, PR interface {
	*R
	wireMessage
}](name string, pri Priority, flags methodFlags, h func(*Service, PA, PR) error) wireMethod {
	return wireMethod{name: name, pri: pri, flags: flags,
		newArgs:  func() wireMessage { return PA(new(A)) },
		newReply: func() wireMessage { return PR(new(R)) },
		invoke:   func(s *Service, a, r wireMessage) error { return h(s, a.(PA), r.(PR)) },
	}
}

// wireMethods is the RPC surface, one row per method; the row index is the
// method's frame id, so append only. Default admission classes:
// latency-sensitive reads a training step or online lookup blocks on are
// interactive; bulk ingest and feature writes are prefetch; replication,
// migration, scrub and control-plane traffic is background. A request's
// envelope may override the class per call.
var wireMethods = []wireMethod{
	wireRPC("ApplyBatch", PriorityPrefetch, routed|write, (*Service).applyBatch),
	wireRPC("SampleNeighbors", PriorityInteractive, readGated|routed, (*Service).sampleNeighbors),
	wireRPC("Degree", PriorityInteractive, readGated|routed, (*Service).degree),
	wireRPC("Features", PriorityInteractive, readGated|routed, (*Service).features),
	wireRPC("SetFeatures", PriorityPrefetch, routed|write, (*Service).setFeatures),
	wireRPC("Sources", PriorityInteractive, readGated|routed, (*Service).sources),
	wireRPC("Stats", PriorityInteractive, readGated, (*Service).Stats),
	wireRPC("FetchSnapshot", PriorityBackground, readGated, (*Service).FetchSnapshot),
	wireRPC("FetchWALTail", PriorityBackground, 0, (*Service).FetchWALTail),
	wireRPC("SyncState", PriorityBackground, exempt, (*Service).SyncState),
	wireRPC("Routing", PriorityInteractive, exempt, (*Service).Routing),
	wireRPC("UpdateRouting", PriorityBackground, exempt, (*Service).UpdateRouting),
	wireRPC("FetchShardSnapshot", PriorityBackground, readGated, (*Service).FetchShardSnapshot),
	wireRPC("ParkShard", PriorityBackground, exempt, (*Service).ParkShard),
	wireRPC("ReleaseShard", PriorityBackground, exempt, (*Service).ReleaseShard),
	wireRPC("DropShard", PriorityBackground, 0, (*Service).DropShard),
	wireRPC("PullShard", PriorityBackground, 0, (*Service).PullShard),
	wireRPC("ShardDigest", PriorityBackground, 0, (*Service).ShardDigest),
	wireRPC("Scrub", PriorityBackground, 0, (*Service).Scrub),
	wireRPC("FetchAttrs", PriorityBackground, readGated, (*Service).FetchAttrs),
}

// wireMethodID maps a method's name ("Stats") to its frame id. Filled by
// init; it must not mention wireMethods in its initializer, because the
// client call path reads it and wireMethods reaches that path through its
// handlers (Scrub probes peers), which would be an initialization cycle.
var wireMethodID = map[string]int{}

func init() {
	for i, m := range wireMethods {
		wireMethodID[m.name] = i
	}
}

// serveConn handshakes a fresh connection and then serves request frames
// until it dies. One frame at a time per connection; concurrency comes from
// the client's connection pool. The handshake runs under a handshake token
// (ServerLimits.MaxHandshakes), so silent or slow-connecting peers cannot
// pin unbounded accept-side resources.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	if s.hsSem != nil {
		select {
		case s.hsSem <- struct{}{}:
		default:
			s.svc.metrics.ConnectionsRejected.Inc()
			return
		}
	}
	ok := s.handshake(conn)
	if s.hsSem != nil {
		<-s.hsSem
	}
	if !ok {
		return
	}
	m := s.svc.metrics
	// Every frame is read through one buffered reader, made after the
	// handshake read exactly its 8 bytes: a frame's header and a small
	// payload then cost one read.
	br := bufio.NewReader(conn)
	for {
		req, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		resp, method, held := s.handleWireFrame(req)
		if method != "" {
			// Recorded before the reply goes out, so a caller holding its
			// reply also sees the call here. resp holds its length prefix
			// already; + 4 adds the request's.
			m.PayloadBytes.With(method).Observe(int64(len(req)+len(resp)) + wire.HeaderSize)
		}
		wire.PutBuf(req)
		err = wire.WriteFrame(conn, resp)
		wire.PutBuf(resp)
		s.replies.release(held)
		if err != nil {
			return
		}
	}
}

// handshake reads the client's 8-byte hello and acks wire.Version, within
// ServerLimits.HandshakeTimeout when one is set. It returns false when the
// connection must be closed: the hello could not be read, it does not start
// with wire.Magic, or its version range excludes wire.Version (an ack of 0
// tells the client so before we hang up).
func (s *Server) handshake(conn net.Conn) bool {
	start := time.Now()
	if to := s.limits.HandshakeTimeout; to > 0 {
		conn.SetReadDeadline(start.Add(to))
		defer conn.SetReadDeadline(time.Time{})
	}
	var hello [8]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return false
	}
	minVer, maxVer, err := wire.ParseHello(hello)
	if err != nil {
		return false
	}
	ver := wire.Negotiate(minVer, maxVer)
	ack := wire.Ack(ver)
	if _, err := conn.Write(ack[:]); err != nil || ver == 0 {
		return false
	}
	m := s.svc.metrics
	m.WireHandshakes.Inc()
	m.ServerLatency.With("Handshake").ObserveSince(start)
	m.PayloadBytes.With("Handshake").Observe(16) // hello + ack, both 8 bytes
	return true
}

// handleWireFrame is the one place a request frame becomes a call. It reads
// the envelope, runs the method's admission, decodes the arguments, refuses
// a reply past the frame limit and reserves any other's size from the reply
// budget, invokes the handler (see dispatch), and encodes the response (or
// error) frame in a wire.GetFrame buffer, ready for wire.WriteFrame. held
// is the reserved size, which the caller releases once the frame is
// written. It never panics: corrupt frames fail the bounds-checked reader,
// and a recover converts a panicking handler or codec into an error frame
// naming the method, so one poisoned request fails alone instead of killing
// the connection loop with a half-written frame.
func (s *Server) handleWireFrame(req []byte) (resp []byte, method string, held int64) {
	defer func() {
		if p := recover(); p != nil {
			resp = errorFrame(fmt.Errorf("cluster: %s: recovered panic: %v", method, p))
		}
	}()
	fail := func(msg string) []byte { return errorFrame(errors.New(msg)) }
	if len(req) == 0 {
		return fail("cluster: malformed request frame"), "", 0
	}
	r := wire.NewReader(req[1:])
	var pri Priority
	var hasPri bool
	var budget time.Duration
	switch req[0] {
	case wire.KindRequest:
	case wire.KindRequestEnv:
		pb := r.Byte()
		budget = time.Duration(r.Uvarint()) * time.Millisecond
		if r.Err() != nil {
			return fail("cluster: malformed request envelope"), "", 0
		}
		if pb > 0 {
			if pb > numPriorities {
				return fail("cluster: unknown priority class"), "", 0
			}
			pri = Priority(pb - 1)
			hasPri = true
		}
	default:
		return fail("cluster: malformed request frame"), "", 0
	}
	id := r.Uvarint()
	if r.Err() != nil || id >= uint64(len(wireMethods)) {
		return fail("cluster: unknown wire method id"), "", 0
	}
	wm := &wireMethods[id]
	method = wm.name
	if !hasPri {
		pri = wm.pri
	}
	if wm.flags&exempt == 0 {
		if err := s.admit.acquire(wm.name, pri, budget); err != nil {
			return errorFrame(err), method, 0 // shed or fast-rejected
		}
		defer s.admit.release(wm.name, time.Now())
	}
	args := wm.newArgs()
	args.decodeWire(r)
	if err := r.Done(); err != nil {
		return errorFrame(fmt.Errorf("cluster: decode %s args: %v", wm.name, err)), method, 0
	}
	// A reply past the frame limit is refused before anything is built, so
	// one request cannot make the server allocate without bound; any other
	// must fit what the replies in flight leave of the budget, or the
	// request is shed like one the admission gate has no slot for.
	if rs, ok := args.(replySized); ok {
		n := rs.replyBytes()
		if n > wire.MaxFrame {
			return errorFrame(fmt.Errorf("cluster: %s reply would be over the %d-byte frame limit",
				wm.name, wire.MaxFrame)), method, 0
		}
		if !s.replies.reserve(int64(n)) {
			s.svc.metrics.incShed(wm.name, pri)
			return errorFrame(overloaded(wm.name, pri, minRetryAfter)), method, 0
		}
		held = int64(n)
	}
	reply := wm.newReply()
	if err := s.dispatch(wm, args, reply); err != nil {
		return errorFrame(err), method, held
	}
	b := append(wire.GetFrame(), wire.KindResponse)
	return reply.appendWire(b), method, held
}

// errorFrame encodes err as an error frame in a wire.GetFrame buffer: a
// ServerError with the kind and retry-after of the first ServerError in
// err's chain (KindApplication when there is none) and err's whole text.
func errorFrame(err error) []byte {
	se := &ServerError{Msg: err.Error()}
	var inner *ServerError
	if errors.As(err, &inner) {
		se.Kind, se.RetryAfter = inner.Kind, inner.RetryAfter
	}
	return se.appendWire(append(wire.GetFrame(), wire.KindError))
}

// dispatch runs one decoded call through its row's rules, in order: the
// catch-up read gate, the ownership check, the write gates, then the
// handler. ServerLatency times all of them and is observed in a defer, so a
// call that panics or parks is timed too; the reply's encoding is not part
// of it.
func (s *Server) dispatch(wm *wireMethod, args, reply wireMessage) error {
	defer s.svc.metrics.ServerLatency.With(wm.name).ObserveSince(time.Now())
	svc := s.svc
	if wm.flags&readGated != 0 && !svc.ready.Load() {
		return ErrReplicaNotReady
	}
	if wm.flags&routed != 0 {
		shard, epoch := args.(routedArgs).route()
		if err := svc.checkRoute(*shard, *epoch); err != nil {
			return err
		}
		// The write gates run before the handler takes pauseMu: a write
		// parked on either must not hold the read lock, or the gate owner's
		// own Pause() barrier would deadlock against it.
		if wm.flags&write != 0 {
			if err := svc.gateWrite(); err != nil {
				return err
			}
			if err := svc.gateShardWrite(*shard, *epoch); err != nil {
				return err
			}
		}
	}
	return wm.invoke(svc, args, reply)
}
