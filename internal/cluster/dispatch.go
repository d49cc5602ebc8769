// Server side of the binary wire protocol: the per-connection handshake and
// the frame loop that decodes requests, runs them through the admission
// gate, and dispatches them to the Service handlers.
//
// The wireMethods table is the binary protocol's method numbering. Ids are
// frame-level protocol surface: they change only together with a
// wire.Version bump, since peers of one version share one numbering.
package cluster

import (
	"fmt"
	"io"
	"net"
	"time"

	"platod2gl/internal/wire"
)

// wireMethod is one dispatchable RPC in the binary protocol: its short name
// (the metrics label), typed constructors for the arg/reply structs, and the
// bridge into the Service handler.
type wireMethod struct {
	name     string
	newArgs  func() wireMessage
	newReply func() wireMessage
	invoke   func(s *Service, args, reply wireMessage) error
}

// wireMethodPriorities assigns each method its default admission class.
// Latency-sensitive reads a training step or online lookup blocks on are
// interactive; bulk ingest and feature writes are prefetch; replication,
// migration, scrub, and control-plane traffic is background. Kept as a
// separate table (rather than widening every literal below) so the
// classification is reviewable at a glance.
var wireMethodPriorities = map[string]Priority{
	"ApplyBatch":         PriorityPrefetch,
	"SampleNeighbors":    PriorityInteractive,
	"Degree":             PriorityInteractive,
	"Features":           PriorityInteractive,
	"SetFeatures":        PriorityPrefetch,
	"Sources":            PriorityInteractive,
	"Stats":              PriorityInteractive,
	"FetchSnapshot":      PriorityBackground,
	"FetchWALTail":       PriorityBackground,
	"SyncState":          PriorityBackground,
	"Routing":            PriorityInteractive,
	"UpdateRouting":      PriorityBackground,
	"FetchShardSnapshot": PriorityBackground,
	"ParkShard":          PriorityBackground,
	"ReleaseShard":       PriorityBackground,
	"DropShard":          PriorityBackground,
	"PullShard":          PriorityBackground,
	"ShardDigest":        PriorityBackground,
	"Scrub":              PriorityBackground,
	"FetchAttrs":         PriorityBackground,
}

// admissionExempt lists the control-plane methods that bypass the admission
// gate. They are tiny, rare, and — critically — the very RPCs that relieve
// a saturated or mid-migration server: shedding them turns transient
// overload into a self-sustaining outage. The concrete inversion the chaos
// drill caught: writers parked on a migrating shard pin their handler slots,
// the pinned slots starve the background class, and the background class
// then sheds the ReleaseShard that would unpark the writers — a deadlock
// only the park TTL escapes. The data-moving migration RPCs (snapshots, WAL
// tails, pulls) stay gated; only the control plane is exempt.
var admissionExempt = map[string]bool{
	"Routing":       true,
	"UpdateRouting": true,
	"ParkShard":     true,
	"ReleaseShard":  true,
	"SyncState":     true,
}

// wireMethods assigns each method its frame id (the slice index). Append
// only; ids are wire-protocol surface.
var wireMethods = []wireMethod{
	{"ApplyBatch",
		func() wireMessage { return new(BatchArgs) },
		func() wireMessage { return new(BatchReply) },
		func(s *Service, a, r wireMessage) error { return s.ApplyBatch(a.(*BatchArgs), r.(*BatchReply)) }},
	{"SampleNeighbors",
		func() wireMessage { return new(SampleArgs) },
		func() wireMessage { return new(SampleReply) },
		func(s *Service, a, r wireMessage) error {
			return s.SampleNeighbors(a.(*SampleArgs), r.(*SampleReply))
		}},
	{"Degree",
		func() wireMessage { return new(DegreeArgs) },
		func() wireMessage { return new(DegreeReply) },
		func(s *Service, a, r wireMessage) error { return s.Degree(a.(*DegreeArgs), r.(*DegreeReply)) }},
	{"Features",
		func() wireMessage { return new(FeatureArgs) },
		func() wireMessage { return new(FeatureReply) },
		func(s *Service, a, r wireMessage) error { return s.Features(a.(*FeatureArgs), r.(*FeatureReply)) }},
	{"SetFeatures",
		func() wireMessage { return new(SetFeaturesArgs) },
		func() wireMessage { return new(SetFeaturesReply) },
		func(s *Service, a, r wireMessage) error {
			return s.SetFeatures(a.(*SetFeaturesArgs), r.(*SetFeaturesReply))
		}},
	{"Sources",
		func() wireMessage { return new(SourcesArgs) },
		func() wireMessage { return new(SourcesReply) },
		func(s *Service, a, r wireMessage) error { return s.Sources(a.(*SourcesArgs), r.(*SourcesReply)) }},
	{"Stats",
		func() wireMessage { return new(StatsArgs) },
		func() wireMessage { return new(StatsReply) },
		func(s *Service, a, r wireMessage) error { return s.Stats(a.(*StatsArgs), r.(*StatsReply)) }},
	{"FetchSnapshot",
		func() wireMessage { return new(SnapshotArgs) },
		func() wireMessage { return new(SnapshotReply) },
		func(s *Service, a, r wireMessage) error {
			return s.FetchSnapshot(a.(*SnapshotArgs), r.(*SnapshotReply))
		}},
	{"FetchWALTail",
		func() wireMessage { return new(WALTailArgs) },
		func() wireMessage { return new(WALTailReply) },
		func(s *Service, a, r wireMessage) error {
			return s.FetchWALTail(a.(*WALTailArgs), r.(*WALTailReply))
		}},
	{"SyncState",
		func() wireMessage { return new(SyncStateArgs) },
		func() wireMessage { return new(SyncStateReply) },
		func(s *Service, a, r wireMessage) error {
			return s.SyncState(a.(*SyncStateArgs), r.(*SyncStateReply))
		}},
	{"Routing",
		func() wireMessage { return new(RoutingArgs) },
		func() wireMessage { return new(RoutingReply) },
		func(s *Service, a, r wireMessage) error { return s.Routing(a.(*RoutingArgs), r.(*RoutingReply)) }},
	{"UpdateRouting",
		func() wireMessage { return new(UpdateRoutingArgs) },
		func() wireMessage { return new(UpdateRoutingReply) },
		func(s *Service, a, r wireMessage) error {
			return s.UpdateRouting(a.(*UpdateRoutingArgs), r.(*UpdateRoutingReply))
		}},
	{"FetchShardSnapshot",
		func() wireMessage { return new(ShardSnapshotArgs) },
		func() wireMessage { return new(ShardSnapshotReply) },
		func(s *Service, a, r wireMessage) error {
			return s.FetchShardSnapshot(a.(*ShardSnapshotArgs), r.(*ShardSnapshotReply))
		}},
	{"ParkShard",
		func() wireMessage { return new(ParkShardArgs) },
		func() wireMessage { return new(ParkShardReply) },
		func(s *Service, a, r wireMessage) error {
			return s.ParkShard(a.(*ParkShardArgs), r.(*ParkShardReply))
		}},
	{"ReleaseShard",
		func() wireMessage { return new(ReleaseShardArgs) },
		func() wireMessage { return new(ReleaseShardReply) },
		func(s *Service, a, r wireMessage) error {
			return s.ReleaseShard(a.(*ReleaseShardArgs), r.(*ReleaseShardReply))
		}},
	{"DropShard",
		func() wireMessage { return new(DropShardArgs) },
		func() wireMessage { return new(DropShardReply) },
		func(s *Service, a, r wireMessage) error {
			return s.DropShard(a.(*DropShardArgs), r.(*DropShardReply))
		}},
	{"PullShard",
		func() wireMessage { return new(PullShardArgs) },
		func() wireMessage { return new(PullShardReply) },
		func(s *Service, a, r wireMessage) error {
			return s.PullShard(a.(*PullShardArgs), r.(*PullShardReply))
		}},
	{"ShardDigest",
		func() wireMessage { return new(DigestArgs) },
		func() wireMessage { return new(DigestReply) },
		func(s *Service, a, r wireMessage) error {
			return s.ShardDigest(a.(*DigestArgs), r.(*DigestReply))
		}},
	{"Scrub",
		func() wireMessage { return new(ScrubArgs) },
		func() wireMessage { return new(ScrubReply) },
		func(s *Service, a, r wireMessage) error { return s.Scrub(a.(*ScrubArgs), r.(*ScrubReply)) }},
	{"FetchAttrs",
		func() wireMessage { return new(AttrsArgs) },
		func() wireMessage { return new(AttrsReply) },
		func(s *Service, a, r wireMessage) error { return s.FetchAttrs(a.(*AttrsArgs), r.(*AttrsReply)) }},
}

// wireMethodID maps the fully-qualified method name ("PlatoD2GL.Stats", the
// form every call site already uses) to its frame id. Filled by init; it must
// not mention wireMethods in its initializer, because the client call path
// reads it and wireMethods reaches that path through its handlers (Scrub
// probes peers), which would be an initialization cycle.
var wireMethodID = map[string]int{}

// wireMethodPri is the per-id default admission class, resolved from
// wireMethodPriorities at init — used when a request carries no envelope
// (a bare KindRequest frame, or an envelope whose priority byte is the
// "method default" sentinel 0).
var wireMethodPri = make([]Priority, len(wireMethods))

// wireMethodExempt is admissionExempt resolved to frame ids.
var wireMethodExempt = make([]bool, len(wireMethods))

func init() {
	for i, m := range wireMethods {
		wireMethodID[ServiceName+"."+m.name] = i
		wireMethodPri[i] = wireMethodPriorities[m.name]
		wireMethodExempt[i] = admissionExempt[m.name]
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
	for {
		req, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		resp, method := s.handleWireFrame(req)
		if method != "" {
			// Recorded before the reply goes out, so a caller holding its
			// reply also sees the call here. resp holds its length prefix
			// already; + 4 adds the request's.
			m.PayloadBytes.With(method).Observe(int64(len(req)+len(resp)) + wire.HeaderSize)
		}
		wire.PutBuf(req)
		err = wire.WriteFrame(conn, resp)
		wire.PutBuf(resp)
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

// handleWireFrame decodes one request frame, runs it through the admission
// gate, invokes the handler, and encodes the response (or error) frame in a
// wire.GetFrame buffer, ready for wire.WriteFrame. It never panics: corrupt
// frames fail the bounds-checked reader, and a recover backstop converts
// anything that slips through into an error frame so one bad request cannot
// kill the connection loop with a half-written frame.
func (s *Server) handleWireFrame(req []byte) (resp []byte, method string) {
	fail := func(msg string) []byte {
		b := append(wire.GetFrame(), wire.KindError)
		return wire.AppendString(b, msg)
	}
	defer func() {
		if p := recover(); p != nil {
			resp = fail(fmt.Sprintf("cluster: %s: internal error: %v", method, p))
		}
	}()
	if len(req) == 0 {
		return fail("cluster: malformed request frame"), ""
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
			return fail("cluster: malformed request envelope"), ""
		}
		if pb > 0 {
			if pb > numPriorities {
				return fail("cluster: unknown priority class"), ""
			}
			pri = Priority(pb - 1)
			hasPri = true
		}
	default:
		return fail("cluster: malformed request frame"), ""
	}
	id := r.Uvarint()
	if r.Err() != nil || id >= uint64(len(wireMethods)) {
		return fail("cluster: unknown wire method id"), ""
	}
	wm := wireMethods[id]
	method = wm.name
	if !hasPri {
		pri = wireMethodPri[id]
	}
	if !wireMethodExempt[id] {
		if err := s.admit.acquire(wm.name, pri, budget); err != nil {
			// Shed or fast-rejected: the error frame carries the typed message
			// (retry-after hint included) back to the client's classifiers.
			return fail(err.Error()), method
		}
		defer s.admit.release(wm.name, time.Now())
	}
	args := wm.newArgs()
	args.decodeWire(r)
	if err := r.Done(); err != nil {
		return fail(fmt.Sprintf("cluster: decode %s args: %v", wm.name, err)), method
	}
	reply := wm.newReply()
	if err := wm.invoke(s.svc, args, reply); err != nil {
		// Handler errors cross as error frames and resurface client-side as
		// rpc.ServerError, which the retry and routing layers classify.
		return fail(err.Error()), method
	}
	b := append(wire.GetFrame(), wire.KindResponse)
	return reply.appendWire(b), method
}
