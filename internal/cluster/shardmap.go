// Epoch-versioned shard routing: the placement artifact that makes the
// cluster elastic. Placement used to be frozen at boot — shard(src) =
// h(src) mod NumServers — so a hot or full cluster could only be fixed with
// downtime. A ShardMap decouples the two halves of that formula: the hash
// space stays fixed at NumShards logical shards for the cluster's lifetime,
// while the assignment of logical shards to server groups is a versioned,
// changeable artifact (DistDGL and GLISP both treat placement this way).
//
// Every per-shard request carries its logical shard and the map epoch the
// client routed under. A routed server that does not own that shard rejects
// with a NotOwner error carrying its own epoch; the client refreshes its map
// from any live server (the Routing RPC) and re-routes with a bounded retry
// budget, so a cutover is a handful of transparent re-routes rather than a
// failed operation. Epoch 0 is the client's frozen placement (shard g =
// dialed server group g): unrouted servers accept it, routed servers reject
// it with NotOwner so the client adopts their map.
package cluster

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"platod2gl/internal/graph"
)

// ShardOf maps a source vertex to its logical shard under a numShards-way
// hash partitioning. This is the one hash both sides of the protocol share:
// clients use it to partition fan-outs, servers use it to filter and
// migrate per-shard state.
func ShardOf(src graph.VertexID, numShards int) int {
	return int(mix(uint64(src)) % uint64(numShards))
}

// ShardMap is the cluster's routing table: an epoch-versioned assignment of
// logical shards to server groups. NumShards is fixed for the lifetime of a
// cluster (it defines the hash space); Servers and Assign change across
// epochs as servers join and shards migrate. With Replicas = R, Servers is
// grouped consecutively exactly like client peer lists: group g's replicas
// are Servers[g*R:(g+1)*R].
type ShardMap struct {
	Epoch     uint64
	NumShards int
	Replicas  int
	Servers   []string // flat, grouped by Replicas
	Assign    []int    // len NumShards; Assign[s] = owning server group
}

// IdentityMap builds the epoch-1 map that first routes a cluster: shard s
// lives on server group s mod groups (with as many logical shards as
// requested — typically a small multiple of the server count, so there is
// something to move when the cluster grows).
func IdentityMap(servers []string, replicas, numShards int) (*ShardMap, error) {
	if replicas < 1 {
		replicas = 1
	}
	if len(servers) == 0 || len(servers)%replicas != 0 {
		return nil, fmt.Errorf("cluster: %d servers not divisible into replica groups of %d", len(servers), replicas)
	}
	groups := len(servers) / replicas
	if numShards <= 0 {
		numShards = groups
	}
	if numShards < groups {
		return nil, fmt.Errorf("cluster: %d logical shards cannot cover %d server groups", numShards, groups)
	}
	m := &ShardMap{
		Epoch:     1,
		NumShards: numShards,
		Replicas:  replicas,
		Servers:   append([]string(nil), servers...),
		Assign:    make([]int, numShards),
	}
	for s := range m.Assign {
		m.Assign[s] = s % groups
	}
	return m, nil
}

// NumGroups returns the number of server groups in the map.
func (m *ShardMap) NumGroups() int {
	if m.Replicas <= 0 {
		return len(m.Servers)
	}
	return len(m.Servers) / m.Replicas
}

// Group returns the addresses of server group g.
func (m *ShardMap) Group(g int) []string {
	r := m.Replicas
	if r <= 0 {
		r = 1
	}
	return m.Servers[g*r : (g+1)*r]
}

// GroupOf returns the index of the server group containing addr, or -1.
func (m *ShardMap) GroupOf(addr string) int {
	r := m.Replicas
	if r <= 0 {
		r = 1
	}
	for i, a := range m.Servers {
		if a == addr {
			return i / r
		}
	}
	return -1
}

// OwnedBy lists the logical shards assigned to server group g, ascending.
func (m *ShardMap) OwnedBy(g int) []int {
	var owned []int
	for s, a := range m.Assign {
		if a == g {
			owned = append(owned, s)
		}
	}
	return owned
}

// Clone deep-copies the map (the driver mutates clones, never a live map).
func (m *ShardMap) Clone() *ShardMap {
	cp := *m
	cp.Servers = append([]string(nil), m.Servers...)
	cp.Assign = append([]int(nil), m.Assign...)
	return &cp
}

// Validate checks structural invariants.
func (m *ShardMap) Validate() error {
	if m.Epoch == 0 {
		return fmt.Errorf("cluster: shard map epoch 0 is reserved for the client's frozen placement")
	}
	r := m.Replicas
	if r < 1 {
		return fmt.Errorf("cluster: shard map replicas %d < 1", m.Replicas)
	}
	if len(m.Servers) == 0 || len(m.Servers)%r != 0 {
		return fmt.Errorf("cluster: %d servers not divisible into replica groups of %d", len(m.Servers), r)
	}
	if m.NumShards <= 0 || len(m.Assign) != m.NumShards {
		return fmt.Errorf("cluster: shard map has %d assignments for %d shards", len(m.Assign), m.NumShards)
	}
	groups := len(m.Servers) / r
	seen := make(map[string]bool, len(m.Servers))
	for _, a := range m.Servers {
		if a == "" {
			return fmt.Errorf("cluster: shard map contains an empty server address")
		}
		if seen[a] {
			return fmt.Errorf("cluster: shard map lists server %s twice", a)
		}
		seen[a] = true
	}
	for s, g := range m.Assign {
		if g < 0 || g >= groups {
			return fmt.Errorf("cluster: shard %d assigned to group %d of %d", s, g, groups)
		}
	}
	return nil
}

// String renders the map compactly for logs and the rebalance CLI.
func (m *ShardMap) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch %d, %d shards x %d replicas over %d groups:", m.Epoch, m.NumShards, m.Replicas, m.NumGroups())
	for g := 0; g < m.NumGroups(); g++ {
		fmt.Fprintf(&b, " [%s:", strings.Join(m.Group(g), ","))
		for _, s := range m.OwnedBy(g) {
			fmt.Fprintf(&b, " %d", s)
		}
		b.WriteByte(']')
	}
	return b.String()
}

// CountBalancePlan computes the migrations that bring per-group shard
// counts within one of each other, moving shards from the most-loaded
// groups to the least-loaded. This is the pluggable placement policy's
// trivial instance — a locality-aware (min-cut / power-law) policy slots in
// here later by proposing different (shard, to) pairs.
type Move struct {
	Shard    int
	From, To int
}

// CountBalancePlan returns the moves to count-balance m (empty when already
// balanced). Moves are ordered and independent; the driver executes them
// one at a time.
func CountBalancePlan(m *ShardMap) []Move {
	groups := m.NumGroups()
	if groups <= 1 {
		return nil
	}
	owned := make([][]int, groups)
	for g := range owned {
		owned[g] = m.OwnedBy(g)
	}
	var moves []Move
	for {
		// Recompute extremes each round; ties break toward lower indices so
		// the plan is deterministic.
		maxG, minG := 0, 0
		for g := 1; g < groups; g++ {
			if len(owned[g]) > len(owned[maxG]) {
				maxG = g
			}
			if len(owned[g]) < len(owned[minG]) {
				minG = g
			}
		}
		if len(owned[maxG])-len(owned[minG]) <= 1 {
			return moves
		}
		// Move the highest-numbered shard off the fullest group: stable and
		// leaves low shards (often the oldest/hottest) in place.
		src := owned[maxG]
		shard := src[len(src)-1]
		owned[maxG] = src[:len(src)-1]
		owned[minG] = append(owned[minG], shard)
		sort.Ints(owned[minG])
		moves = append(moves, Move{Shard: shard, From: maxG, To: minG})
	}
}

// ---------------------------------------------------------------------------
// Server-side routing state.

// serviceRouting is a Service's installed view of the shard map: the map,
// which group this server is (or -1 when it is joining and owns nothing
// yet), and the derived per-shard ownership bitmap.
type serviceRouting struct {
	m     *ShardMap
	self  int
	owned []bool
}

func newServiceRouting(m *ShardMap, self int) *serviceRouting {
	rt := &serviceRouting{m: m, self: self, owned: make([]bool, m.NumShards)}
	if self >= 0 {
		for s, g := range m.Assign {
			if g == self {
				rt.owned[s] = true
			}
		}
	}
	return rt
}

// SetAdvertise records the address this server appears under in shard maps;
// UpdateRouting resolves the server's own group by this address. The server
// binary sets it from -advertise (defaulting to -addr); in-process clusters
// use their pseudo-addresses.
func (s *Service) SetAdvertise(addr string) { s.advertise.Store(&addr) }

// Advertise returns the server's advertised address ("" when unset).
func (s *Service) Advertise() string {
	if p := s.advertise.Load(); p != nil {
		return *p
	}
	return ""
}

// SetDialResolver installs the transport factory PullShard uses to reach a
// migration source by address: TCP in the server binary, in-memory pipes in
// LocalCluster.
func (s *Service) SetDialResolver(resolve func(addr string) Dialer) {
	s.routeMu.Lock()
	s.dialFor = resolve
	s.routeMu.Unlock()
}

func (s *Service) resolveDialer(addr string) (Dialer, error) {
	s.routeMu.Lock()
	resolve := s.dialFor
	s.routeMu.Unlock()
	if resolve == nil {
		return nil, fmt.Errorf("cluster: server has no dial resolver for %s (SetDialResolver not called)", addr)
	}
	d := resolve(addr)
	if d == nil {
		return nil, fmt.Errorf("cluster: dial resolver cannot reach %s", addr)
	}
	return d, nil
}

// SetRouting installs a shard map with an explicit self group index (-1:
// owns nothing). Used by in-process clusters and at boot; remote pushes go
// through UpdateRouting, which resolves self by advertised address. Parked
// shards this server no longer owns are released.
func (s *Service) SetRouting(m *ShardMap, self int) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if self >= m.NumGroups() {
		return fmt.Errorf("cluster: self group %d out of range (%d groups)", self, m.NumGroups())
	}
	s.installRouting(newServiceRouting(m.Clone(), self))
	return nil
}

// RoutingSnapshot returns the installed map (a private copy) and self group
// index, or nil when the server is unrouted.
func (s *Service) RoutingSnapshot() (*ShardMap, int) {
	rt := s.routing.Load()
	if rt == nil {
		return nil, -1
	}
	return rt.m.Clone(), rt.self
}

// installRouting swaps the routing state in and releases any parked shard
// this server stopped owning — the parked writers wake, re-check ownership,
// and bounce their clients to the new owner with NotOwner.
func (s *Service) installRouting(rt *serviceRouting) {
	s.routing.Store(rt)
	s.parkMu.Lock()
	for shard := range s.parked {
		if shard >= len(rt.owned) || !rt.owned[shard] {
			s.unparkLocked(shard)
		}
	}
	s.parkMu.Unlock()
}

// notOwnerError is a routed request landing on a server that does not own
// its shard. The client refreshes its map and re-routes; the text names the
// server's routing epoch for whoever reads the error.
func notOwnerError(shard int, epoch uint64) error {
	return &ServerError{Kind: KindNotOwner, Msg: fmt.Sprintf("cluster: not owner of shard %d (routing epoch %d)", shard, epoch)}
}

// checkRoute is the server-side ownership gate: an unrouted server passes
// everything; a routed one requires the shard to be owned under its map and
// rejects epoch 0 (the frozen placement, whose shard ids name a different
// hash space) outright. The rejection carries this server's epoch so a
// stale client knows to refresh.
func (s *Service) checkRoute(shard int, epoch uint64) error {
	rt := s.routing.Load()
	switch {
	case rt == nil:
		return nil
	case epoch != 0 && (shard < 0 || shard >= rt.m.NumShards):
		return fmt.Errorf("cluster: shard %d out of range (%d logical shards)", shard, rt.m.NumShards)
	case epoch == 0 || !rt.owned[shard]:
		s.metrics.NotOwnerRejects.Inc()
		return notOwnerError(shard, rt.m.Epoch)
	}
	return nil
}

// shardRouting returns the installed map for a shard control operation
// (export, park, pull, drop), refusing when the server has no map to check
// ownership against or shard lies outside the map's hash space.
func (s *Service) shardRouting(op string, shard int) (*serviceRouting, error) {
	rt := s.routing.Load()
	if rt == nil {
		return nil, fmt.Errorf("cluster: cannot %s shard %d: server has no shard map installed", op, shard)
	}
	if shard < 0 || shard >= rt.m.NumShards {
		return nil, fmt.Errorf("cluster: shard %d out of range (%d logical shards)", shard, rt.m.NumShards)
	}
	return rt, nil
}

// ---------------------------------------------------------------------------
// Per-shard write parking (the cutover gate).

// shardGate parks writes to one migrating shard. The TTL timer is the
// dead-driver backstop: if the migration driver vanishes between park and
// cutover, the gate self-releases instead of wedging the shard's writes
// until every client times out forever.
type shardGate struct {
	ch    chan struct{}
	timer *time.Timer
}

// gateShardWrite parks a routed write to a shard that is mid-cutover until
// the gate releases (cutover routing push, explicit ReleaseShard, or TTL
// expiry), then re-checks ownership — after a cutover the shard has a new
// owner and the parked write must bounce, not apply. Called before pauseMu
// so parked writes cannot deadlock ParkShard's own drain barrier.
func (s *Service) gateShardWrite(shard int, epoch uint64) error {
	s.parkMu.Lock()
	gate, ok := s.parked[shard]
	s.parkMu.Unlock()
	if !ok {
		return nil
	}
	<-gate.ch
	return s.checkRoute(shard, epoch)
}

// parkShard installs the gate for one shard (idempotent) and returns after
// every in-flight write has drained into the WAL: the Pause round-trip is a
// barrier on pauseMu, which every applying batch holds for reading.
func (s *Service) parkShard(shard int, ttl time.Duration) {
	s.parkMu.Lock()
	if _, ok := s.parked[shard]; !ok {
		gate := &shardGate{ch: make(chan struct{})}
		if ttl > 0 {
			gate.timer = time.AfterFunc(ttl, func() { s.releaseShard(shard) })
		}
		s.parked[shard] = gate
	}
	s.parkMu.Unlock()
	resume := s.Pause()
	resume()
}

// releaseShard opens the gate (idempotent).
func (s *Service) releaseShard(shard int) {
	s.parkMu.Lock()
	s.unparkLocked(shard)
	s.parkMu.Unlock()
}

// unparkLocked opens shard's gate, if it has one, and stops its TTL timer.
// The caller holds parkMu.
func (s *Service) unparkLocked(shard int) {
	if gate, ok := s.parked[shard]; ok {
		close(gate.ch)
		if gate.timer != nil {
			gate.timer.Stop()
		}
		delete(s.parked, shard)
	}
}

// ReleaseAllShards opens every parked write gate. Servers call it on
// shutdown and restart: a park belongs to a migration driver's in-flight
// cutover, and neither the gate channels nor the TTL timers survive the
// process, so a restarted server that rebuilt `parked` entries from nothing
// must not leave old parks wedging writes until clients give up — the
// restart already aborted whatever migration the park served.
func (s *Service) ReleaseAllShards() {
	s.parkMu.Lock()
	for shard := range s.parked {
		s.unparkLocked(shard)
	}
	s.parkMu.Unlock()
}

// ---------------------------------------------------------------------------
// Routing RPCs.

// RoutingArgs is empty.
type RoutingArgs struct{}

// RoutingReply carries the server's installed shard map. Has is false on an
// unrouted server.
type RoutingReply struct {
	Has bool
	Map ShardMap
}

// Routing reports this server's shard map — the handshake and refresh RPC.
// Always served, even while catching up: routing state is control-plane.
func (s *Service) Routing(_ *RoutingArgs, reply *RoutingReply) error {
	if rt := s.routing.Load(); rt != nil {
		reply.Has = true
		reply.Map = *rt.m.Clone()
	}
	return nil
}

// UpdateRoutingArgs pushes a new shard map to a server.
type UpdateRoutingArgs struct {
	Map ShardMap
}

// UpdateRoutingReply reports the server's routing epoch after the push —
// equal to the pushed epoch when it was installed, higher when the server
// already knew a newer map (the push is then a no-op).
type UpdateRoutingReply struct {
	Epoch uint64
}

// UpdateRouting installs a newer shard map. The server resolves its own
// group by its advertised address; a server absent from the map owns
// nothing and NotOwner-bounces every per-shard request. Stale pushes
// (epoch <= installed) are ignored, making the driver's fan-out push
// idempotent and unordered-safe.
func (s *Service) UpdateRouting(args *UpdateRoutingArgs, reply *UpdateRoutingReply) error {
	m := args.Map.Clone()
	if verr := m.Validate(); verr != nil {
		return verr
	}
	s.routeMu.Lock()
	defer s.routeMu.Unlock()
	if cur := s.routing.Load(); cur != nil {
		if m.Epoch <= cur.m.Epoch {
			reply.Epoch = cur.m.Epoch
			return nil
		}
		if m.NumShards != cur.m.NumShards {
			return fmt.Errorf("cluster: shard map push changes NumShards %d -> %d (fixed for the cluster's lifetime)",
				cur.m.NumShards, m.NumShards)
		}
	}
	self := -1
	if addr := s.Advertise(); addr != "" {
		self = m.GroupOf(addr)
	} else if cur := s.routing.Load(); cur != nil {
		self = cur.self // address-less in-process server keeps its identity
	}
	s.installRouting(newServiceRouting(m, self))
	reply.Epoch = m.Epoch
	return nil
}

// approxMapBytes sizes a shard map payload for the RPC histograms.
func approxMapBytes(m *ShardMap) int64 {
	n := int64(24 + 8*len(m.Assign))
	for _, a := range m.Servers {
		n += int64(len(a)) + 8
	}
	return n
}

// ---------------------------------------------------------------------------
// Routed request stamping (client side).

// routedArgs is implemented by every per-shard request payload, the args of
// the routed wireMethods rows: route points at its shard and routing epoch.
// The client stamps them immediately before each routing attempt, so a
// re-route after a refresh carries the new epoch; dispatch checks them.
type routedArgs interface {
	route() (shard *int, epoch *uint64)
}

func (a *BatchArgs) route() (*int, *uint64)       { return &a.Shard, &a.RouteEpoch }
func (a *SampleArgs) route() (*int, *uint64)      { return &a.Shard, &a.RouteEpoch }
func (a *DegreeArgs) route() (*int, *uint64)      { return &a.Shard, &a.RouteEpoch }
func (a *FeatureArgs) route() (*int, *uint64)     { return &a.Shard, &a.RouteEpoch }
func (a *SetFeaturesArgs) route() (*int, *uint64) { return &a.Shard, &a.RouteEpoch }
func (a *SourcesArgs) route() (*int, *uint64)     { return &a.Shard, &a.RouteEpoch }

// stampRoute stamps args when it is a routed payload.
func stampRoute(args wireMessage, shard int, epoch uint64) {
	if ra, ok := args.(routedArgs); ok {
		s, e := ra.route()
		*s, *e = shard, epoch
	}
}

// ---------------------------------------------------------------------------
// Client-side routing: adoption, refresh, re-route.

// clientRoute is the client's resolved view of a shard map: the map plus
// each server group's peers and a per-group read-rotation counter.
type clientRoute struct {
	m      *ShardMap
	groups [][]*peer
	rr     []atomic.Uint64
}

// maxReroutes bounds how many map-refresh-and-retry hops one operation may
// take chasing a moving shard. Each cutover advances the epoch by one, so
// anything beyond a few hops means the map is churning faster than the
// client can follow — surface the error.
const maxReroutes = 4

// rerouteSettleDelay is the wait before retrying when a NotOwner rejection
// arrived but no newer map is visible yet — the cutover push is mid-flight
// across the server set.
const rerouteSettleDelay = 10 * time.Millisecond

// AdoptRouting installs a shard map on the client: peers are created for
// any servers the client has not dialed yet (via Options.DialServer, TCP by
// default), and all per-shard operations route through the map from the
// next call on. The first map replaces the epoch-0 frozen placement and may
// change NumShards; after that only newer epochs of the same hash space are
// accepted.
func (c *Client) AdoptRouting(m *ShardMap) error {
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	return c.adoptLocked(m)
}

func (c *Client) adoptLocked(m *ShardMap) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if m.Replicas != c.replicas {
		return fmt.Errorf("cluster: shard map has %d replicas per group, client is configured for %d", m.Replicas, c.replicas)
	}
	cur := c.route.Load()
	if cur.m.Epoch != 0 && m.NumShards != cur.m.NumShards {
		return fmt.Errorf("cluster: shard map changes NumShards %d -> %d", cur.m.NumShards, m.NumShards)
	}
	if m.Epoch <= cur.m.Epoch {
		return nil // already current
	}
	m = m.Clone()
	groups := make([][]*peer, m.NumGroups())
	for g := range groups {
		ps := make([]*peer, 0, c.replicas)
		for _, addr := range m.Group(g) {
			pe, err := c.peerFor(addr)
			if err != nil {
				return err
			}
			ps = append(ps, pe)
		}
		groups[g] = ps
	}
	c.route.Store(&clientRoute{m: m, groups: groups, rr: make([]atomic.Uint64, len(groups))})
	return nil
}

// RoutingMap returns the client's adopted shard map (a copy), or nil while
// it routes under the epoch-0 frozen placement.
func (c *Client) RoutingMap() *ShardMap {
	if rt := c.route.Load(); rt.m.Epoch != 0 {
		return rt.m.Clone()
	}
	return nil
}

// peerFor returns the peer for addr, creating it (with a lazy dialer) on
// first sight — how the client grows from N to N+1 servers without
// redialing.
func (c *Client) peerFor(addr string) (*peer, error) {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	if idx, ok := c.peerByAddr[addr]; ok {
		return c.peers[idx], nil
	}
	dial := dialAddr(c.opts.DialServer, addr, c.opts.CallTimeout)
	if dial == nil {
		return nil, fmt.Errorf("cluster: no dialer for new server %s (set Options.DialServer)", addr)
	}
	idx := len(c.peers)
	pe := &peer{
		idx: idx, replica: idx % c.replicas,
		addr: addr, dial: dial,
		br: newBreaker(c.opts.BreakerThreshold, c.opts.BreakerCooldown, c.metrics),
	}
	c.peers = append(c.peers, pe)
	c.peerByAddr[addr] = idx
	return pe, nil
}

// RefreshRouting polls the cluster for a shard map newer than minEpoch and
// adopts the newest one found, reporting whether the client's epoch
// advanced. Concurrent refreshes coalesce on refreshMu; the scan stops at
// the first map strictly newer than the client's (bounded re-route hops
// handle multi-step cutovers).
func (c *Client) RefreshRouting(minEpoch uint64) bool {
	cur := c.route.Load()
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	if now := c.route.Load(); now.m.Epoch > cur.m.Epoch && now.m.Epoch >= minEpoch {
		return true // a concurrent refresh already advanced past the hint
	}
	cur = c.route.Load()
	for g := 0; g < len(cur.groups); g++ {
		for _, pe := range cur.groups[g] {
			var reply RoutingReply
			if err := c.callPeCtx(context.Background(), pe, "Routing", &RoutingArgs{}, &reply, 0, false); err != nil || !reply.Has {
				continue
			}
			if reply.Map.Epoch > cur.m.Epoch {
				if err := c.adoptLocked(&reply.Map); err == nil {
					c.metrics.RoutingRefreshes.Inc()
					return true
				}
			}
			break // this group answered; move on to the next group
		}
	}
	return false
}

// handshake validates and adopts routing state at dial time. Every replica
// group is asked for its map; the cluster must be uniformly routed or
// uniformly unrouted — a mix means some server lost (or never received) the
// map and would silently mis-route writes, so the dial fails fast with the
// repair instruction instead.
func (c *Client) handshake(addrs []string) error {
	type report struct {
		addr string
		m    *ShardMap
	}
	var routed []report
	var unrouted []string
	groups := len(addrs) / c.replicas
	for g := 0; g < groups; g++ {
		answered := false
		for r := 0; r < c.replicas && !answered; r++ {
			idx := g*c.replicas + r
			var reply RoutingReply
			if err := c.callPeCtx(context.Background(), c.peerAt(idx), "Routing", &RoutingArgs{}, &reply, 0, false); err != nil {
				continue // unreachable replica; Dial already ensured one live per group
			}
			answered = true
			if reply.Has {
				routed = append(routed, report{addr: addrs[idx], m: &reply.Map})
			} else {
				unrouted = append(unrouted, addrs[idx])
			}
		}
	}
	if len(routed) == 0 {
		return nil // uniformly unrouted: keep the epoch-0 frozen placement
	}
	if len(unrouted) > 0 {
		return fmt.Errorf("cluster: handshake: server(s) %s have no shard map while %s is at routing epoch %d — "+
			"re-push the map (platod2gl-rebalance -servers ... push) before serving traffic",
			strings.Join(unrouted, ","), routed[0].addr, routed[0].m.Epoch)
	}
	best := routed[0]
	for _, rep := range routed[1:] {
		if rep.m.NumShards != best.m.NumShards || rep.m.Replicas != best.m.Replicas {
			return fmt.Errorf("cluster: handshake: mismatched shard maps: %s reports %d shards x %d replicas, %s reports %d x %d",
				best.addr, best.m.NumShards, best.m.Replicas, rep.addr, rep.m.NumShards, rep.m.Replicas)
		}
		if rep.m.Epoch > best.m.Epoch {
			best = rep
		}
	}
	if err := c.AdoptRouting(best.m); err != nil {
		return fmt.Errorf("cluster: handshake: %w", err)
	}
	return nil
}

// roundTrip dials one control RPC to addr outside the peer machinery (used
// by the rebalance driver and join mode, where no Client exists yet).
func roundTrip(dial Dialer, method string, args, reply wireMessage, timeout time.Duration) error {
	tc, err := dialTransport(dial, timeout, &Metrics{})
	if err != nil {
		return err
	}
	defer tc.Close()
	return tc.Call(method, args, reply, timeout, callEnv{})
}
