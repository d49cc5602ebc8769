// Package cluster implements PlatoD2GL's distributed deployment (Sec. I:
// billion-edge graphs "cannot be stored in a single machine"): a set of
// graph servers, each owning the samtrees of the sources hashed to it
// (hash-by-source partitioning, the same scheme the paper configures for
// AliGraph), plus a fan-out client that partitions update batches and
// reassembles sampling results.
//
// The RPCs travel over the binary wire protocol (internal/wire, see
// transport.go and dispatch.go) on any net.Conn: TCP for the standalone
// server binary, in-memory pipes for tests and single-process clusters — the
// paper's cluster of 54 storage servers is simulated as N in-process servers
// (see DESIGN.md, substitutions).
//
// The client side is fault tolerant (see retry.go, health.go): per-call
// timeouts, bounded retries with exponential backoff and jitter, automatic
// redial of dead peers, per-peer circuit breakers, and optional graceful
// degradation for sampling fan-outs. ApplyBatch is at-most-once: batches
// carry client-assigned sequence numbers deduplicated server-side (see
// dedup.go), so retries never double-apply deletes. The server side
// survives accept-loop hiccups and recovers handler panics into RPC errors.
//
// Shards can be replicated (see replica.go, sync.go): with Options.Replicas
// = R each logical shard maps to a group of R peers. Writes fan out to the
// whole group and converge through the at-most-once identity; reads
// load-balance across live replicas and fail over on timeout, circuit-open,
// or a replica still catching up. A rejoining replica converges by pulling
// a live peer's snapshot plus WAL tail (SyncFromPeer) before re-entering
// the read rotation.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/sampler"
	"platod2gl/internal/storage"
	"platod2gl/internal/wire"
)

// BatchArgs carries a topology update batch. ClientID and Seq identify the
// batch for server-side at-most-once deduplication: a retried batch carries
// the same pair and is applied at most once. Zero values bypass dedup (the
// server's own migration replays). Shard and RouteEpoch route the batch (see
// shardmap.go): a routed server that does not own Shard at RouteEpoch
// rejects with NotOwner instead of applying. RouteEpoch 0 is the client's
// frozen placement, which only an unrouted server accepts.
type BatchArgs struct {
	Events     []graph.Event
	ClientID   uint64
	Seq        uint64
	Shard      int
	RouteEpoch uint64
	// Sum is the sender's checksum over Events (checksumEvents); the server
	// recomputes it before applying so a batch corrupted in flight is
	// rejected instead of poisoning the store.
	Sum uint64
}

// BatchReply reports the resulting edge count on the server. Duplicate is
// set when the batch had already been applied and was skipped.
type BatchReply struct {
	NumEdges  int64
	Duplicate bool
}

// SampleArgs requests fanout weighted neighbor samples for each seed.
// Shard/RouteEpoch: see BatchArgs.
type SampleArgs struct {
	Seeds      []graph.VertexID
	Type       graph.EdgeType
	Fanout     int
	Seed       int64
	Shard      int
	RouteEpoch uint64
}

// SampleReply returns, per seed, its samples flattened: seed i owns
// Neighbors[i*Fanout:(i+1)*Fanout]. Slots that could not be filled hold the
// seed itself.
type SampleReply struct {
	Neighbors []graph.VertexID
}

// DegreeArgs queries out-degrees. Shard/RouteEpoch: see BatchArgs.
type DegreeArgs struct {
	Nodes      []graph.VertexID
	Type       graph.EdgeType
	Shard      int
	RouteEpoch uint64
}

// DegreeReply returns the degrees aligned with the request.
type DegreeReply struct {
	Degrees []int
}

// FeatureArgs requests dense feature rows, and optionally the nodes'
// labels — supervised training against a cluster needs the labels pushed by
// SetFeatures back out. Shard/RouteEpoch: see BatchArgs.
type FeatureArgs struct {
	Nodes      []graph.VertexID
	Dim        int
	WithLabels bool
	Shard      int
	RouteEpoch uint64
}

// FeatureReply carries one shard's feature rows, plus one label per node
// (unlabeled = 0) when WithLabels was set, from the server's store into the
// caller's batch with one copy each way. The features handler points it at
// the store and appendWire encodes each row straight from there; the caller
// points it at its destination and decodeWire writes each row straight
// into it. The frame holds a row-major (len(Nodes) × Dim) float block —
// a missing vertex is a zero row, a stored vector is cut to Dim or padded
// with zeros — then the label block, empty without WithLabels: the bytes
// of AppendFloat32s(GatherFeatures) and AppendInt32s(GatherLabels).
type FeatureReply struct {
	dim int // floats per row, on both sides

	// Encoding side, set by the features handler.
	attrs      *kvstore.Store
	nodes      []graph.VertexID
	withLabels bool

	// Decoding side, set by the caller: row j of the frame goes to the rows
	// of out in run j of occ, and label j to the same indices of labels (nil
	// when labels were not asked for).
	out    []float32
	labels []int32
	occ    occRuns
	// floats and nLabels are the element counts the frame carried.
	// decodeWire writes only when they fit the destination, so a lying
	// reply writes nothing and the caller reports the mismatch.
	floats, nLabels int
}

// SourcesArgs requests the source vertices of one logical shard's relation.
// A routed server filters its answer to sources hashing into Shard — which
// keeps a migration destination's staged copy invisible until cutover, and
// lets one server own several logical shards without double-reporting.
type SourcesArgs struct {
	Type       graph.EdgeType
	Shard      int
	RouteEpoch uint64
}

// SourcesReply lists this server's sources for the relation.
type SourcesReply struct {
	Nodes []graph.VertexID
}

// SetFeaturesArgs pushes dense feature rows and labels to a server.
// Shard/RouteEpoch: see BatchArgs.
type SetFeaturesArgs struct {
	Nodes      []graph.VertexID
	Dim        int
	Data       []float32 // row-major (len(Nodes) x Dim)
	Labels     []int32   // optional, aligned with Nodes (empty = none)
	Shard      int
	RouteEpoch uint64
}

// SetFeaturesReply is empty.
type SetFeaturesReply struct{}

// StatsArgs is empty.
type StatsArgs struct{}

// StatsReply reports server-level statistics.
type StatsReply struct {
	NumEdges    int64
	MemoryBytes int64
	NumSources  int
}

// BatchHook is the durability hook invoked before every applied batch. It
// receives the batch's dedup identity so write-ahead logs can persist it and
// rebuild the dedup table on recovery.
type BatchHook func(clientID, seq uint64, events []graph.Event) error

// Service is the RPC receiver for one graph server.
type Service struct {
	store   storage.TopologyStore
	attrs   *kvstore.Store
	onBatch BatchHook
	dedup   *batchDedup
	metrics *Metrics     // never nil: NewService allocates one
	pauseMu sync.RWMutex // held for writing while the server drains for shutdown

	// Replica sync state (see sync.go). ready gates reads: a replica that is
	// still catching up rejects them so the client fails over to a converged
	// sibling. syncEpoch changes on every completed catch-up, letting clients
	// distinguish "re-synced since my write was missed" from "still the
	// replica that missed it". syncWAL, set via EnableSync, is the local WAL
	// this server streams to catching-up siblings.
	ready     atomic.Bool
	syncBlock atomic.Bool // writes park on readyCh instead of being rejected
	syncMu    sync.Mutex  // guards readyCh and the ready/epoch transitions
	readyCh   chan struct{}
	syncEpoch atomic.Uint64
	syncWAL   *eventlog.Writer

	// Routing and migration state (see shardmap.go, migrate.go). routing is
	// the installed shard map view (nil: unrouted server); parked maps
	// mid-cutover shards to their write gates; dialFor resolves a migration
	// source address to a transport for PullShard.
	advertise atomic.Pointer[string]
	routing   atomic.Pointer[serviceRouting]
	routeMu   sync.Mutex // serializes routing installs; guards dialFor
	dialFor   func(addr string) Dialer
	parkMu    sync.Mutex
	parked    map[int]*shardGate
	migMu     sync.Mutex     // one inbound migration pull at a time
	hooks     MigrationHooks // chaos-test instrumentation; zero in production

	// scrubber, when installed (SetScrubber), serves on-demand anti-entropy
	// rounds via the Scrub RPC. See antientropy.go.
	scrubber atomic.Pointer[Scrubber]
}

// NewService wraps a topology store and an attribute store. The service
// starts ready (serving reads); replicated deployments that must catch up
// first call BeginCatchUp before exposing it.
func NewService(store storage.TopologyStore, attrs *kvstore.Store) *Service {
	s := &Service{store: store, attrs: attrs, dedup: newBatchDedup(), metrics: &Metrics{},
		parked: make(map[int]*shardGate)}
	s.ready.Store(true)
	s.syncEpoch.Store(nextSyncEpoch())
	return s
}

// SetBatchHook installs a durability hook invoked before every applied
// batch (e.g. a write-ahead log append). A hook error rejects the batch.
func (s *Service) SetBatchHook(fn BatchHook) { s.onBatch = fn }

// MarkApplied seeds the dedup table with a batch identity recovered from a
// write-ahead log, so client retries that straddle a server restart stay
// at-most-once.
func (s *Service) MarkApplied(clientID, seq uint64) { s.dedup.markApplied(clientID, seq) }

// Pause blocks new batch applications (in-flight ones drain first) and
// returns a resume function. Used to quiesce the store before a shutdown
// snapshot so the snapshot and the truncated WAL agree.
func (s *Service) Pause() (resume func()) {
	s.pauseMu.Lock()
	var once sync.Once
	return func() { once.Do(s.pauseMu.Unlock) }
}

// applyBatch is the ApplyBatch handler: it applies a topology update batch
// at most once, invoking the durability hook first. Duplicate (ClientID,
// Seq) pairs are skipped and reported as success.
func (s *Service) applyBatch(args *BatchArgs, reply *BatchReply) error {
	// Verify before the dedup claim: a corrupted batch must not consume its
	// at-most-once identity, or the client's (clean) retry would be skipped
	// as a duplicate.
	if err := verifySum(s.metrics, "ApplyBatch events", checksumEvents(args.Events), args.Sum); err != nil {
		return err
	}
	return s.applyEvents(args, reply)
}

// applyEvents is applyBatch without the checksum check. Called outside
// dispatch, it also skips the write gates: it is the entry point for
// WAL-tail records during catch-up, which must apply while the gates hold
// direct writes back, and for a migration's staged events.
func (s *Service) applyEvents(args *BatchArgs, reply *BatchReply) (err error) {
	s.pauseMu.RLock()
	defer s.pauseMu.RUnlock()
	var finish func(error)
	if args.ClientID != 0 && args.Seq != 0 {
		var apply bool
		var derr error
		apply, finish, derr = s.dedup.claim(args.ClientID, args.Seq)
		if derr != nil {
			return derr
		}
		if !apply {
			reply.NumEdges = s.store.NumEdges()
			reply.Duplicate = true
			return nil
		}
	}
	// Its own recover, not only the dispatcher's: a panicking apply must
	// still settle its dedup claim, and catch-up and migration call this
	// outside dispatch.
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("cluster: ApplyBatch: recovered panic: %v", p)
		}
		if finish != nil {
			finish(err)
		}
	}()
	if s.onBatch != nil {
		if err := s.onBatch(args.ClientID, args.Seq, args.Events); err != nil {
			return fmt.Errorf("cluster: batch hook: %w", err)
		}
	}
	s.store.ApplyBatch(args.Events)
	reply.NumEdges = s.store.NumEdges()
	return nil
}

// sampleNeighbors draws weighted neighbor samples for each seed. Its reply
// is built before anything else can fail; dispatch has held its size to
// the frame limit (SampleArgs.replyBytes).
func (s *Service) sampleNeighbors(args *SampleArgs, reply *SampleReply) error {
	if args.Fanout < 0 {
		return fmt.Errorf("cluster: negative fanout %d", args.Fanout)
	}
	// The local sampler's frontier path: the client sends distinct seeds, so
	// each seed is one store draw of Fanout, in seed order, from a generator
	// seeded Seed+1.
	reply.Neighbors = sampler.New(s.store, sampler.Options{Seed: args.Seed}).
		SampleNeighbors(args.Seeds, args.Type, args.Fanout).Neighbors
	return nil
}

// degree returns out-degrees.
func (s *Service) degree(args *DegreeArgs, reply *DegreeReply) error {
	reply.Degrees = make([]int, len(args.Nodes))
	for i, n := range args.Nodes {
		reply.Degrees[i] = s.store.Degree(n, args.Type)
	}
	return nil
}

// features gathers feature rows; dispatch has held the reply's size to the
// frame limit (FeatureArgs.replyBytes).
func (s *Service) features(args *FeatureArgs, reply *FeatureReply) error {
	if s.attrs == nil {
		return fmt.Errorf("cluster: server has no attribute store")
	}
	if args.Dim < 0 {
		return fmt.Errorf("cluster: negative feature dim %d", args.Dim)
	}
	// The rows are read from the store as the reply frame is encoded.
	*reply = FeatureReply{dim: args.Dim, attrs: s.attrs, nodes: args.Nodes, withLabels: args.WithLabels}
	return nil
}

// featureReplySize is the payload size of a Features response frame: the
// kind byte, then the float and label blocks, each a count and 4 bytes per
// element. It saturates instead of overflowing.
func featureReplySize(nodes, dim int, withLabels bool) uint64 {
	if uint64(dim) > wire.MaxFrame {
		return math.MaxUint64
	}
	floats := uint64(nodes) * uint64(dim)
	var labels uint64
	if withLabels {
		labels = uint64(nodes)
	}
	return 1 + uvarintLen(floats) + 4*floats + uvarintLen(labels) + 4*labels
}

// uvarintLen is the encoded length of x as a uvarint.
func uvarintLen(x uint64) uint64 { return uint64(bits.Len64(x|1)+6) / 7 }

// sources lists this server's source vertices for a relation. A routed
// request is answered with only the sources hashing into the requested
// shard, so sources staged here by an in-flight migration (owned elsewhere
// until cutover) are never reported early.
func (s *Service) sources(args *SourcesArgs, reply *SourcesReply) error {
	all := s.store.Sources(args.Type)
	if rt := s.routing.Load(); rt != nil {
		kept := make([]graph.VertexID, 0, len(all))
		for _, n := range all {
			if ShardOf(n, rt.m.NumShards) == args.Shard {
				kept = append(kept, n)
			}
		}
		all = kept
	}
	reply.Nodes = all
	return nil
}

// setFeatures stores feature rows (and optional labels) on this server.
func (s *Service) setFeatures(args *SetFeaturesArgs, _ *SetFeaturesReply) error {
	// Hold pauseMu like topology writes do: ParkShard's Pause barrier must
	// drain in-flight feature writes too, or a migration's FetchAttrs could
	// race a write that passed the gate before the park.
	s.pauseMu.RLock()
	defer s.pauseMu.RUnlock()
	if s.attrs == nil {
		return fmt.Errorf("cluster: server has no attribute store")
	}
	// Dim is held to the payload's length first, so the product below cannot
	// overflow into a match that would size rows past the payload.
	if len(args.Nodes) > 0 && (args.Dim < 0 || args.Dim > len(args.Data)) ||
		len(args.Data) != len(args.Nodes)*args.Dim {
		return fmt.Errorf("cluster: feature payload %d != %d nodes x %d dim",
			len(args.Data), len(args.Nodes), args.Dim)
	}
	if len(args.Labels) != 0 && len(args.Labels) != len(args.Nodes) {
		return fmt.Errorf("cluster: %d labels for %d nodes", len(args.Labels), len(args.Nodes))
	}
	for i, n := range args.Nodes {
		row := make([]float32, args.Dim)
		copy(row, args.Data[i*args.Dim:(i+1)*args.Dim])
		s.attrs.SetFeatures(n, row)
		if len(args.Labels) != 0 {
			s.attrs.SetLabel(n, args.Labels[i])
		}
	}
	return nil
}

// Stats reports server statistics. NumSources counts distinct source
// vertices with out-edges across all relations, when the store exposes
// per-relation stats (DynamicStore does).
func (s *Service) Stats(_ *StatsArgs, reply *StatsReply) error {
	reply.NumEdges = s.store.NumEdges()
	reply.MemoryBytes = s.store.MemoryBytes()
	if rs, ok := s.store.(interface {
		AllStats() []storage.RelationStats
	}); ok {
		for _, st := range rs.AllStats() {
			reply.NumSources += st.Sources
		}
	}
	return nil
}

// Server serves the RPC service over accepted connections in the binary
// wire protocol (see dispatch.go). Every request passes through the
// admission gate (see admission.go) except the control-plane methods
// exempt from it.
type Server struct {
	svc     *Service
	admit   *admissionGate
	replies *replyBudget // bytes of replies being built or written
	limits  ServerLimits
	conns   atomic.Int64  // live handshaking-or-serving connections
	hsSem   chan struct{} // in-flight handshake tokens; nil = unlimited
}

// ServerLimits bounds the server's accept-side resources. Connections past
// MaxConns, and connections that cannot get a handshake token when
// MaxHandshakes are already negotiating, are closed immediately —
// a clean refusal the client sees as a dial/handshake failure — instead of
// each occupying a goroutine forever. The zero value disables all caps
// (in-process pipe clusters want that).
type ServerLimits struct {
	// MaxConns caps concurrently served connections. <= 0: unlimited.
	MaxConns int
	// MaxHandshakes caps connections simultaneously inside the handshake
	// phase. <= 0: unlimited.
	MaxHandshakes int
	// HandshakeTimeout bounds the hello/ack exchange of one fresh
	// connection, so a peer that connects and goes silent cannot pin a
	// handshake token. <= 0: no deadline.
	HandshakeTimeout time.Duration
}

// DefaultServerLimits is the production starting point for TCP servers.
func DefaultServerLimits() ServerLimits {
	return ServerLimits{MaxConns: 1024, MaxHandshakes: 128, HandshakeTimeout: 5 * time.Second}
}

// NewServer serves svc. The admission gate starts at DefaultAdmission;
// accept-side limits start disabled (SetLimits).
func NewServer(svc *Service) *Server {
	return &Server{svc: svc, admit: newAdmissionGate(DefaultAdmission(), svc.metrics),
		replies: newReplyBudget(replyBudgetBytes)}
}

// SetAdmission replaces the admission gate's configuration.
// cfg.MaxConcurrent <= 0 disables admission control entirely. Call before
// Serve; the gate is swapped without synchronization.
func (s *Server) SetAdmission(cfg AdmissionConfig) {
	s.admit = newAdmissionGate(cfg, s.svc.metrics)
}

// SetLimits installs accept-side resource caps. Call before Serve.
func (s *Server) SetLimits(l ServerLimits) {
	s.limits = l
	if l.MaxHandshakes > 0 {
		s.hsSem = make(chan struct{}, l.MaxHandshakes)
	} else {
		s.hsSem = nil
	}
}

// acceptBackoffMax caps the accept-loop retry delay.
const acceptBackoffMax = time.Second

// Serve accepts connections until the listener closes. Transient accept
// errors (EMFILE, ECONNABORTED, ...) are retried with exponential backoff
// instead of silently killing the server's accept loop.
func (s *Server) Serve(lis net.Listener) {
	var delay time.Duration
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if delay == 0 {
				delay = 5 * time.Millisecond
			} else if delay *= 2; delay > acceptBackoffMax {
				delay = acceptBackoffMax
			}
			time.Sleep(delay)
			continue
		}
		delay = 0
		if maxC := s.limits.MaxConns; maxC > 0 && s.conns.Load() >= int64(maxC) {
			s.svc.metrics.ConnectionsRejected.Inc()
			conn.Close()
			continue
		}
		s.conns.Add(1)
		go func(conn net.Conn) {
			defer s.conns.Add(-1)
			s.serveConn(conn)
		}(conn)
	}
}

// ServeConn serves a single connection (blocking).
func (s *Server) ServeConn(conn net.Conn) { s.serveConn(conn) }

// Client is the fan-out client over a set of graph servers. Sources are
// partitioned hash-by-source across logical shards: shard(src) = h(src) mod
// NumShards. With Options.Replicas = R, each shard is served by a replica
// group of R peers (consecutive in the peer list): writes fan out to every
// replica, reads load-balance across them with automatic failover.
type Client struct {
	// peerMu guards peers and peerByAddr: the peer list grows when an
	// adopted shard map introduces a server the client has not dialed
	// (elastic scale-out), so every indexed access goes through peerAt or a
	// locked section. Existing entries are never mutated or removed.
	peerMu     sync.RWMutex
	peers      []*peer // dialed peers grouped: group g owns peers[g*replicas:(g+1)*replicas]
	peerByAddr map[string]int

	replicas int
	opts     Options
	metrics  *Metrics
	clientID uint64
	seq      atomic.Uint64

	// route is the shard map every operation routes through: the frozen
	// placement at epoch 0 (shard g = dialed group g), an adopted map after.
	// refreshMu single-flights map refreshes and adoption.
	route     atomic.Pointer[clientRoute]
	refreshMu sync.Mutex

	jitterMu sync.Mutex
	jitter   *rand.Rand
}

// newClientID draws a nonzero dedup identity for this client.
func newClientID(rng *rand.Rand) uint64 {
	for {
		if id := rng.Uint64(); id != 0 {
			return id
		}
	}
}

// NewClientOptions builds a fault-tolerant client over per-peer dialers.
// Connections are made lazily on first use and redialed when they die.
// transports holds connections Dial has already handshaked; callers outside
// the package pass nil. transports[i] may be nil, and dialers may hold nil
// entries (a peer with no dialer is never redialed). With Options.Replicas =
// R > 1 the peer list must be grouped consecutively by shard — shard s's
// replicas at indices [s*R, (s+1)*R) — and its length must be a multiple of
// R.
func NewClientOptions(transports []*wireTransport, dialers []Dialer, opts Options) *Client {
	n := len(transports)
	if n == 0 {
		n = len(dialers)
	}
	if n == 0 {
		panic("cluster: client needs at least one peer")
	}
	r := opts.Replicas
	if r <= 0 {
		r = 1
	}
	if n%r != 0 {
		panic(fmt.Sprintf("cluster: %d peers not divisible into replica groups of %d", n, r))
	}
	jitter := newJitterRNG(opts.Seed)
	c := &Client{opts: opts, metrics: opts.Metrics, jitter: jitter, replicas: r,
		peerByAddr: make(map[string]int)}
	if c.metrics == nil {
		// Allocate eagerly so counters recorded before the first Metrics()
		// call are never lost and the accessor stays race-free.
		c.metrics = &Metrics{}
	}
	c.clientID = newClientID(jitter)
	c.peers = make([]*peer, n)
	for i := range c.peers {
		p := &peer{
			idx: i, replica: i % r,
			br: newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, c.metrics),
		}
		if i < len(transports) {
			p.tc = transports[i]
		}
		if i < len(dialers) {
			p.dial = dialers[i]
		}
		c.peers[i] = p
	}
	// The frozen placement is the epoch-0 map: shard g lives on dialed
	// group g, until the first map adopted from the cluster replaces it.
	frozen := &ShardMap{NumShards: n / r, Replicas: r, Assign: make([]int, n/r)}
	groups := make([][]*peer, n/r)
	for g := range groups {
		frozen.Assign[g] = g
		groups[g] = c.peers[g*r : (g+1)*r : (g+1)*r]
	}
	c.route.Store(&clientRoute{m: frozen, groups: groups, rr: make([]atomic.Uint64, len(groups))})
	return c
}

// Dial connects to a cluster of graph servers over TCP with fault-tolerant
// options; dead peers are redialed automatically. With Options.Replicas = R
// the address list is grouped consecutively by shard: addrs[s*R:(s+1)*R]
// are shard s's replicas. A replicated cluster is expected to be dialable
// with some replicas down, so with R > 1 an unreachable peer is tolerated —
// it reconnects lazily on first use — as long as every replica group has at
// least one live member; with R = 1 every server must answer.
func Dial(addrs []string, opts Options) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no server addresses")
	}
	r := opts.Replicas
	if r < 1 {
		r = 1
	}
	if len(addrs)%r != 0 {
		return nil, fmt.Errorf("cluster: %d addresses not divisible into replica groups of %d", len(addrs), r)
	}
	if opts.Metrics == nil {
		// Allocate before the eager dials so handshake metrics from them
		// land in the same Metrics the client will use.
		opts.Metrics = &Metrics{}
	}
	fail := func(transports []*wireTransport, err error) (*Client, error) {
		for _, t := range transports {
			if t != nil {
				t.Close()
			}
		}
		return nil, err
	}
	transports := make([]*wireTransport, len(addrs))
	dialers := make([]Dialer, len(addrs))
	for i, addr := range addrs {
		dialers[i] = TCPDialer(addr, opts.CallTimeout)
		t, err := dialTransport(dialers[i], opts.CallTimeout, opts.Metrics)
		if err != nil {
			if r == 1 {
				return fail(transports, fmt.Errorf("cluster: dial %s: %w", addr, err))
			}
			continue
		}
		transports[i] = t
	}
	for s := 0; s*r < len(addrs); s++ {
		live := 0
		for i := s * r; i < (s+1)*r; i++ {
			if transports[i] != nil {
				live++
			}
		}
		if live == 0 {
			return fail(transports, fmt.Errorf("cluster: no live replica for shard %d (%v)", s, addrs[s*r:(s+1)*r]))
		}
	}
	c := NewClientOptions(transports, dialers, opts)
	c.SetPeerAddrs(addrs)
	// Routing handshake: learn the cluster's shard map (if it has one) and
	// fail fast on a torn or stale map instead of silently mis-routing.
	if err := c.handshake(addrs); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// SetPeerAddrs records the server address of peer i as addrs[i], letting an
// adopted shard map (AdoptRouting) match its server list against the peers
// the client already has instead of dialing duplicates. Dial does this
// automatically; NewClientOptions callers (in-process clusters) do it by
// hand with their pseudo-addresses.
func (c *Client) SetPeerAddrs(addrs []string) {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	for i, addr := range addrs {
		if i >= len(c.peers) || addr == "" {
			break
		}
		c.peers[i].addr = addr
		c.peerByAddr[addr] = i
	}
}

// peerAt returns peer i under the read lock (the peer list can grow
// concurrently when a shard map introduces a new server).
func (c *Client) peerAt(i int) *peer {
	c.peerMu.RLock()
	defer c.peerMu.RUnlock()
	return c.peers[i]
}

// allPeers snapshots the peer list.
func (c *Client) allPeers() []*peer {
	c.peerMu.RLock()
	defer c.peerMu.RUnlock()
	return c.peers[:len(c.peers):len(c.peers)]
}

// NumServers returns the total peer count, including servers learned from
// an adopted shard map after the initial dial.
func (c *Client) NumServers() int { return len(c.allPeers()) }

// Metrics returns the client's fault-tolerance counters (never nil; a
// private instance is used when Options.Metrics was unset).
func (c *Client) Metrics() *Metrics { return c.metrics }

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// ApplyBatch partitions events by source shard and applies the per-shard
// sub-batches in parallel, fanning each sub-batch out to every replica of
// its shard. All replicas receive the same (ClientID, Seq) identity, so
// server-side dedup both makes retries at-most-once (even for deletes) and
// lets a batch that reaches a replica twice — directly and via catch-up
// WAL streaming — apply exactly once. A sub-batch succeeds when any replica
// acknowledges it; replicas that missed it are marked stale and repaired by
// catch-up.
func (c *Client) ApplyBatch(events []graph.Event) error {
	return c.ApplyBatchCtx(context.Background(), events)
}

// ApplyBatchCtx is ApplyBatch with a caller-supplied context: the deadline
// (when set) propagates to every server as the request's remaining budget and
// bounds the retry loop end to end, and a WithPriority annotation overrides
// the method's default admission class.
func (c *Client) ApplyBatchCtx(ctx context.Context, events []graph.Event) error {
	rt := c.route.Load()
	shards := rt.m.NumShards
	parts := make([][]graph.Event, shards)
	for _, ev := range events {
		p := ShardOf(ev.Edge.Src, shards)
		parts[p] = append(parts[p], ev)
	}
	seqs := make([]uint64, shards)
	for p := range parts {
		if len(parts[p]) != 0 {
			seqs[p] = c.seq.Add(1)
		}
	}
	return c.fanOut(shards, func(s int) error {
		if len(parts[s]) == 0 {
			return nil
		}
		args := &BatchArgs{Events: parts[s], ClientID: c.clientID, Seq: seqs[s], Sum: checksumEvents(parts[s])}
		return c.writeShard(ctx, rt, s, "ApplyBatch", args)
	})
}

// SampleNeighbors draws fanout samples per seed across the cluster,
// reassembling results in seed order. Missing slots hold the seed itself.
// With Options.Degraded set, a failed shard degrades its seeds to self-loop
// fallbacks instead of failing the batch, and counts one DegradedShards.
func (c *Client) SampleNeighbors(seeds []graph.VertexID, et graph.EdgeType, fanout int, seed int64) ([]graph.VertexID, error) {
	return c.SampleNeighborsCtx(context.Background(), seeds, et, fanout, seed)
}

// SampleNeighborsCtx is SampleNeighbors with a caller-supplied context whose
// deadline propagates cluster-wide as the request budget.
func (c *Client) SampleNeighborsCtx(ctx context.Context, seeds []graph.VertexID, et graph.EdgeType, fanout int, seed int64) ([]graph.VertexID, error) {
	if fanout < 0 {
		return nil, fmt.Errorf("cluster: negative fanout %d", fanout)
	}
	out := make([]graph.VertexID, len(seeds)*fanout)
	rt := c.route.Load()
	shards := rt.m.NumShards
	// Each shard samples every distinct seed once and the reply block is
	// scattered back to all of its occurrences (see scratch.go).
	scratch := getCoalesceScratch(shards)
	dups := scratch.coalesce(seeds)
	if dups > 0 {
		// Savings: 8 bytes per duplicate seed on the request, 8*fanout
		// bytes per duplicate's sample block on the reply.
		c.metrics.CoalescedSeeds.Add(int64(dups))
		c.metrics.CoalescedBytes.Add(int64(dups) * 8 * int64(1+fanout))
	}
	errs := c.fanOutAll(shards, func(p int) error {
		partSeeds, runs := scratch.part(p)
		if len(partSeeds) == 0 {
			return nil
		}
		args := &SampleArgs{Seeds: partSeeds, Type: et, Fanout: fanout, Seed: seed + int64(p)}
		var reply SampleReply
		if err := c.readShard(ctx, rt, p, "SampleNeighbors", args, &reply); err != nil {
			return err
		}
		if len(reply.Neighbors) != len(partSeeds)*fanout {
			return fmt.Errorf("cluster: shard %d returned %d samples, want %d",
				p, len(reply.Neighbors), len(partSeeds)*fanout)
		}
		for j := range partSeeds {
			block := reply.Neighbors[j*fanout : (j+1)*fanout]
			for _, origIdx := range runs.run(j) {
				copy(out[int(origIdx)*fanout:(int(origIdx)+1)*fanout], block)
			}
		}
		return nil
	})
	for p, err := range errs {
		if err == nil {
			continue
		}
		if !c.opts.Degraded {
			scratch.release()
			return nil, err
		}
		c.metrics.DegradedShards.Inc()
		// Graceful degradation: the dead shard's seeds fall back to
		// themselves — the protocol's convention for unknown vertices —
		// keeping the result full-length so training proceeds on partial
		// neighborhoods.
		_, runs := scratch.part(p)
		for j := 0; j < runs.len(); j++ {
			for _, origIdx := range runs.run(j) {
				base := int(origIdx) * fanout
				for k := 0; k < fanout; k++ {
					out[base+k] = seeds[origIdx]
				}
			}
		}
	}
	scratch.release()
	return out, nil
}

// SampleSubgraph expands seeds along a meta-path hop by hop across the
// cluster.
func (c *Client) SampleSubgraph(seeds []graph.VertexID, path graph.MetaPath, fanouts []int, seed int64) ([][]graph.VertexID, error) {
	return c.SampleSubgraphCtx(context.Background(), seeds, path, fanouts, seed)
}

// SampleSubgraphCtx is SampleSubgraph with a caller-supplied context whose
// deadline bounds the whole multi-hop expansion, not just one hop.
func (c *Client) SampleSubgraphCtx(ctx context.Context, seeds []graph.VertexID, path graph.MetaPath, fanouts []int, seed int64) ([][]graph.VertexID, error) {
	if len(path) != len(fanouts) {
		return nil, fmt.Errorf("cluster: meta-path length %d != fanouts %d", len(path), len(fanouts))
	}
	layers := make([][]graph.VertexID, len(path))
	frontier := seeds
	for hop, et := range path {
		next, err := c.SampleNeighborsCtx(ctx, frontier, et, fanouts[hop], seed+int64(hop)*7919)
		if err != nil {
			return nil, err
		}
		layers[hop] = next
		frontier = next
	}
	return layers, nil
}

// Degree queries out-degrees across the cluster, reading one live replica
// per shard.
func (c *Client) Degree(nodes []graph.VertexID, et graph.EdgeType) ([]int, error) {
	return c.DegreeCtx(context.Background(), nodes, et)
}

// DegreeCtx is Degree with a caller-supplied context whose deadline
// propagates cluster-wide as the request budget.
func (c *Client) DegreeCtx(ctx context.Context, nodes []graph.VertexID, et graph.EdgeType) ([]int, error) {
	out := make([]int, len(nodes))
	rt := c.route.Load()
	scratch := getCoalesceScratch(rt.m.NumShards)
	c.metrics.CoalescedRows.Add(int64(scratch.coalesce(nodes)))
	err := c.fanOut(rt.m.NumShards, func(p int) error {
		partNodes, runs := scratch.part(p)
		if len(partNodes) == 0 {
			return nil
		}
		var reply DegreeReply
		if err := c.readShard(ctx, rt, p, "Degree", &DegreeArgs{Nodes: partNodes, Type: et}, &reply); err != nil {
			return err
		}
		if len(reply.Degrees) != len(partNodes) {
			return fmt.Errorf("cluster: shard %d returned %d degrees for %d nodes",
				p, len(reply.Degrees), len(partNodes))
		}
		for j, deg := range reply.Degrees {
			for _, origIdx := range runs.run(j) {
				out[origIdx] = deg
			}
		}
		return nil
	})
	scratch.release()
	return out, err
}

// SetFeatures pushes features (and optional labels) to the servers owning
// each node under hash-by-source partitioning. Feature writes are absolute
// (last write wins), so retries are safe without dedup.
func (c *Client) SetFeatures(nodes []graph.VertexID, dim int, data []float32, labels []int32) error {
	return c.SetFeaturesCtx(context.Background(), nodes, dim, data, labels)
}

// SetFeaturesCtx is SetFeatures with a caller-supplied context whose
// deadline propagates cluster-wide as the request budget.
func (c *Client) SetFeaturesCtx(ctx context.Context, nodes []graph.VertexID, dim int, data []float32, labels []int32) error {
	if len(data) != len(nodes)*dim {
		return fmt.Errorf("cluster: feature payload %d != %d nodes x %d dim", len(data), len(nodes), dim)
	}
	if len(labels) != 0 && len(labels) != len(nodes) {
		return fmt.Errorf("cluster: %d labels for %d nodes", len(labels), len(nodes))
	}
	type part struct {
		nodes  []graph.VertexID
		data   []float32
		labels []int32
	}
	rt := c.route.Load()
	shards := rt.m.NumShards
	parts := make([]part, shards)
	for i, n := range nodes {
		p := ShardOf(n, shards)
		parts[p].nodes = append(parts[p].nodes, n)
		parts[p].data = append(parts[p].data, data[i*dim:(i+1)*dim]...)
		if len(labels) != 0 {
			parts[p].labels = append(parts[p].labels, labels[i])
		}
	}
	return c.fanOut(shards, func(s int) error {
		if len(parts[s].nodes) == 0 {
			return nil
		}
		args := &SetFeaturesArgs{Nodes: parts[s].nodes, Dim: dim, Data: parts[s].data, Labels: parts[s].labels}
		return c.writeShard(ctx, rt, s, "SetFeatures", args)
	})
}

// Features gathers feature rows for nodes from their owning shards into a
// dense row-major (len(nodes) x dim) matrix, reading one live replica per
// shard.
func (c *Client) Features(nodes []graph.VertexID, dim int) ([]float32, error) {
	data, _, err := c.featuresLabels(context.Background(), nodes, dim, false)
	return data, err
}

// FeaturesCtx is Features with a caller-supplied context whose deadline
// propagates cluster-wide as the request budget.
func (c *Client) FeaturesCtx(ctx context.Context, nodes []graph.VertexID, dim int) ([]float32, error) {
	data, _, err := c.featuresLabels(ctx, nodes, dim, false)
	return data, err
}

// FeaturesLabels gathers feature rows and class labels in one fan-out —
// the read half of SetFeatures' (features, labels) push, which supervised
// training needs back out. Unlabeled nodes get label 0.
func (c *Client) FeaturesLabels(nodes []graph.VertexID, dim int) ([]float32, []int32, error) {
	return c.featuresLabels(context.Background(), nodes, dim, true)
}

// FeaturesLabelsCtx is FeaturesLabels with a caller-supplied context whose
// deadline propagates cluster-wide as the request budget.
func (c *Client) FeaturesLabelsCtx(ctx context.Context, nodes []graph.VertexID, dim int) ([]float32, []int32, error) {
	return c.featuresLabels(ctx, nodes, dim, true)
}

func (c *Client) featuresLabels(ctx context.Context, nodes []graph.VertexID, dim int, withLabels bool) ([]float32, []int32, error) {
	out := make([]float32, len(nodes)*dim)
	var labels []int32
	if withLabels {
		labels = make([]int32, len(nodes))
	}
	// Feature lists repeat the ids of the sampled frontiers they are built
	// from: each shard reads every distinct id once, and each reply row and
	// label is decoded into the first of its occurrences and copied to the
	// rest (see scratch.go and FeatureReply).
	rt := c.route.Load()
	scratch := getCoalesceScratch(rt.m.NumShards)
	c.metrics.CoalescedRows.Add(int64(scratch.coalesce(nodes)))
	err := c.fanOut(rt.m.NumShards, func(p int) error {
		partNodes, runs := scratch.part(p)
		if len(partNodes) == 0 {
			return nil
		}
		reply := FeatureReply{dim: dim, out: out, labels: labels, occ: runs}
		args := &FeatureArgs{Nodes: partNodes, Dim: dim, WithLabels: withLabels}
		if err := c.readShard(ctx, rt, p, "Features", args, &reply); err != nil {
			return err
		}
		if reply.floats != len(partNodes)*dim {
			return fmt.Errorf("cluster: shard %d returned %d floats", p, reply.floats)
		}
		if withLabels && reply.nLabels != len(partNodes) {
			return fmt.Errorf("cluster: shard %d returned %d labels for %d nodes",
				p, reply.nLabels, len(partNodes))
		}
		return nil
	})
	scratch.release()
	return out, labels, err
}

// Sources lists the cluster's source vertices for a relation, concatenated
// across logical shards (one live replica each) and sorted for determinism.
// Each logical shard is asked once and routed servers filter to the shard's
// hash slice, so a server owning several shards never double-reports, and
// migration-staged copies stay invisible.
func (c *Client) Sources(et graph.EdgeType) ([]graph.VertexID, error) {
	return c.SourcesCtx(context.Background(), et)
}

// SourcesCtx is Sources with a caller-supplied context whose deadline
// propagates cluster-wide as the request budget.
func (c *Client) SourcesCtx(ctx context.Context, et graph.EdgeType) ([]graph.VertexID, error) {
	var mu sync.Mutex
	var all []graph.VertexID
	rt := c.route.Load()
	err := c.fanOut(rt.m.NumShards, func(p int) error {
		var reply SourcesReply
		if err := c.readShard(ctx, rt, p, "Sources", &SourcesArgs{Type: et}, &reply); err != nil {
			return err
		}
		mu.Lock()
		all = append(all, reply.Nodes...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all, nil
}

// Stats aggregates statistics across the cluster, counting each server
// group once (one live replica per group), so totals match an unreplicated
// deployment of the same data. During an in-flight migration the copy
// staged on the destination is transiently counted too — Stats is a
// capacity view, not a topology oracle.
func (c *Client) Stats() (StatsReply, error) {
	return c.StatsCtx(context.Background())
}

// StatsCtx is Stats with a caller-supplied context whose deadline propagates
// cluster-wide as the request budget.
func (c *Client) StatsCtx(ctx context.Context) (StatsReply, error) {
	var mu sync.Mutex
	var agg StatsReply
	collect := func(reply *StatsReply) {
		mu.Lock()
		agg.NumEdges += reply.NumEdges
		agg.MemoryBytes += reply.MemoryBytes
		agg.NumSources += reply.NumSources
		mu.Unlock()
	}
	rt := c.route.Load()
	err := c.fanOut(len(rt.groups), func(g int) error {
		var reply StatsReply
		if err := c.readGroup(ctx, g, rt.groups[g], &rt.rr[g], "Stats", &StatsArgs{}, &reply); err != nil {
			return err
		}
		collect(&reply)
		return nil
	})
	return agg, err
}

// Close closes all peer connections.
func (c *Client) Close() error {
	var first error
	for _, p := range c.allPeers() {
		if err := p.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fanOut runs fn(s) for shards logical shards concurrently, returning the
// first error. The caller passes the shard count of the route it partitioned
// under, so a concurrent adoption cannot skew the fan-out width.
func (c *Client) fanOut(shards int, fn func(s int) error) error {
	for _, err := range c.fanOutAll(shards, fn) {
		if err != nil {
			return err
		}
	}
	return nil
}

// fanOutAll runs fn(s) for shards logical shards concurrently, returning
// every shard's outcome (the degraded-mode building block).
func (c *Client) fanOutAll(shards int, fn func(s int) error) []error {
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = fn(s)
		}(s)
	}
	wg.Wait()
	return errs
}
