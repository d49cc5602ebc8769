// Live shard migration: moving one logical shard's topology and attribute
// state from a source server to a destination while both keep serving, then
// flipping routing atomically via the epoch-versioned shard map
// (shardmap.go). This is ROADMAP item 3 — the step that makes the cluster
// genuinely elastic (grow N→N+1, rebalance a hot server) — built on the
// machinery replica catch-up already proved out: snapshot + WAL-tail
// streaming and write gating.
//
// A migration runs in three phases, driven by the control-plane Driver:
//
//  1. Bulk copy (under live writes). The destination pulls a shard-filtered
//     snapshot of the source's topology (plus the source's dedup table, so
//     retried batches stay at-most-once across the move), then drains the
//     source's WAL tail — filtered to the shard — until it has momentarily
//     caught up. Writes keep flowing to the source the whole time; anything
//     applied there lands in its WAL and therefore in the tail stream.
//
//  2. Park and deterministic drain. The source parks the shard's writes on
//     a gate *before* they touch the store or WAL, then executes a Pause
//     barrier: every write already past the gate is drained into the WAL
//     before ParkShard returns its WAL position. The destination then
//     drains the tail to exactly that position — a deterministic "caught
//     up" condition, no quiet-window heuristics — and pulls the shard's
//     feature vectors and labels (copied at park time, so no feature write
//     can slip between copy and cutover). Parked writes are not lost: they
//     wait on the gate and either proceed on the source (abort) or bounce
//     with NotOwner and transparently re-route to the destination
//     (cutover). A park TTL self-releases the gate if the driver dies.
//
//  3. Cutover. The driver installs an epoch+1 map assigning the shard to
//     the destination, pushing it destination-first (so re-routed writes
//     land), source second (installing the map releases the park, bouncing
//     parked writes into the re-route path), then the remaining servers.
//     The source's copy is then dropped (unless kept for forensics).
//
// Any failure before cutover aborts cleanly: the park is released, the
// destination's staged copy is dropped, and the cluster continues under the
// old placement — data loss is impossible because the source's copy is
// never touched until after the routing flip.
//
// Replicated deployments (Replicas > 1) are out of scope for migration:
// a replica group already tolerates member loss, and a group is rebuilt by
// SyncFromPeer, not migrated. The driver rejects them explicitly.
package cluster

import (
	"fmt"
	"time"

	"platod2gl/internal/graph"
)

// defaultParkTTL is the self-release backstop on a parked shard: if the
// migration driver dies between park and cutover, writes resume on the
// source after this long instead of stalling until every client times out.
const defaultParkTTL = 30 * time.Second

// migrateChunk bounds the events per batch when staging snapshot data or
// dropping a shard, keeping single WAL records and lock hold times sane.
const migrateChunk = 4096

// MigrationHooks instrument the destination-side pull path for chaos tests:
// each hook runs at a phase boundary and may return an error to abort the
// pull (simulating a crash at exactly that point). Zero value: no hooks.
type MigrationHooks struct {
	// AfterShardSnapshot runs after the shard snapshot has been staged,
	// before WAL-tail draining starts.
	AfterShardSnapshot func(shard int) error
	// AfterTailChunk runs after each applied WAL-tail chunk.
	AfterTailChunk func(shard int) error
}

// SetMigrationHooks installs chaos-test instrumentation. Call before the
// service starts serving.
func (s *Service) SetMigrationHooks(h MigrationHooks) { s.hooks = h }

// applyChunked applies events through the WAL-durable applyEvents path in
// bounded chunks, bypassing routing and gates (migration staging must
// proceed while the shard is owned elsewhere).
func (s *Service) applyChunked(events []graph.Event) error {
	for len(events) > 0 {
		n := len(events)
		if n > migrateChunk {
			n = migrateChunk
		}
		var reply BatchReply
		if err := s.applyEvents(&BatchArgs{Events: events[:n]}, &reply); err != nil {
			return err
		}
		events = events[n:]
	}
	return nil
}

// filterShard keeps only events whose source hashes into shard. Returns the
// input slice unchanged when everything matches (the common case: routed
// clients send single-shard batches).
func filterShard(events []graph.Event, shard, numShards int) []graph.Event {
	for i, ev := range events {
		if ShardOf(ev.Edge.Src, numShards) != shard {
			out := make([]graph.Event, i, len(events))
			copy(out, events[:i])
			for _, ev := range events[i:] {
				if ShardOf(ev.Edge.Src, numShards) == shard {
					out = append(out, ev)
				}
			}
			return out
		}
	}
	return events
}

// ---------------------------------------------------------------------------
// Source-side migration RPCs.

// ShardSnapshotArgs requests a shard-filtered topology snapshot.
type ShardSnapshotArgs struct {
	Shard int
}

// ShardSnapshotReply carries one shard's topology as AddEdge events, the
// WAL position the export is consistent with (tail streaming starts past
// it), the hash space it was filtered under, and the source's dedup table.
// Sum checksums Events end-to-end.
type ShardSnapshotReply struct {
	Events    []graph.Event
	WALSeq    uint64
	NumShards int
	Dedup     []DedupEntry
	Sum       uint64
}

// FetchShardSnapshot exports one logical shard's topology under a write
// quiesce (Pause), so the event set and the returned WAL position agree.
// Only the shard's current owner serves this — exporting from a non-owner
// would stage a stale or partial copy.
func (s *Service) FetchShardSnapshot(args *ShardSnapshotArgs, reply *ShardSnapshotReply) error {
	rt, err := s.shardRouting("export", args.Shard)
	if err != nil {
		return err
	}
	if !rt.owned[args.Shard] {
		return notOwnerError(args.Shard, rt.m.Epoch)
	}
	if s.wal == nil {
		return fmt.Errorf("cluster: cannot export shard %d: server has no WAL to stream a tail from", args.Shard)
	}
	resume := s.Pause()
	defer resume()
	reply.WALSeq = s.wal.Seq()
	reply.NumShards = rt.m.NumShards
	if err := forEachSource(s.store, args.Shard, rt.m.NumShards, func(et graph.EdgeType, src graph.VertexID, nbrs []graph.VertexID, weights []float64) {
		for i, dst := range nbrs {
			reply.Events = append(reply.Events, graph.Event{
				Kind: graph.AddEdge,
				Edge: graph.Edge{Src: src, Dst: dst, Type: et, Weight: weights[i]},
			})
		}
	}); err != nil {
		return err
	}
	reply.Dedup = s.dedup.export()
	reply.Sum = checksumEvents(reply.Events)
	return nil
}

// ParkShardArgs parks one shard's writes for cutover. TTLMillis bounds the
// park (0: default 30s) — the dead-driver backstop.
type ParkShardArgs struct {
	Shard     int
	TTLMillis int64
}

// ParkShardReply returns the WAL position after the park barrier: every
// write to the shard that will ever be in this server's WAL is at or before
// this sequence, so draining the tail to it is an exact catch-up condition.
type ParkShardReply struct {
	WALSeq uint64
}

// ParkShard gates the shard's writes (they wait, not fail) and drains every
// in-flight write into the WAL via a Pause barrier before returning the WAL
// position. Idempotent; re-parking does not extend a pending TTL.
func (s *Service) ParkShard(args *ParkShardArgs, reply *ParkShardReply) error {
	if _, err := s.shardRouting("park", args.Shard); err != nil {
		return err
	}
	if s.wal == nil {
		return fmt.Errorf("cluster: cannot park shard %d: server has no WAL to drain against", args.Shard)
	}
	ttl := time.Duration(args.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = defaultParkTTL
	}
	s.parkShard(args.Shard, ttl)
	reply.WALSeq = s.wal.Seq()
	return nil
}

// ReleaseShardArgs releases a parked shard (migration abort).
type ReleaseShardArgs struct {
	Shard int
}

// ReleaseShardReply is empty.
type ReleaseShardReply struct{}

// ReleaseShard opens a parked shard's write gate; parked writes proceed on
// this server under the unchanged routing. Idempotent.
func (s *Service) ReleaseShard(args *ReleaseShardArgs, _ *ReleaseShardReply) error {
	s.releaseShard(args.Shard)
	return nil
}

// DropShardArgs removes one shard's local state (post-cutover source
// cleanup, or destination rollback after an abort).
type DropShardArgs struct {
	Shard int
}

// DropShardReply reports what was removed.
type DropShardReply struct {
	DroppedEdges    int64
	DroppedVertices int64
}

// DropShard deletes one shard's topology and attributes from this server.
// It refuses when this server owns the shard under its installed map (or
// has no map at all): dropping owned data is the one mistake the routing
// layer exists to prevent. Deletions go through the WAL-durable batch path,
// so a restart does not resurrect the dropped shard.
func (s *Service) DropShard(args *DropShardArgs, reply *DropShardReply) error {
	rt, err := s.shardRouting("drop", args.Shard)
	if err != nil {
		return err
	}
	if rt.owned[args.Shard] {
		return fmt.Errorf("cluster: refusing to drop shard %d: this server owns it at routing epoch %d", args.Shard, rt.m.Epoch)
	}
	v := rt.m.NumShards
	var dels []graph.Event
	if err := forEachSource(s.store, args.Shard, v, func(et graph.EdgeType, src graph.VertexID, nbrs []graph.VertexID, _ []float64) {
		for _, dst := range nbrs {
			dels = append(dels, graph.Event{Kind: graph.DeleteEdge, Edge: graph.Edge{Src: src, Dst: dst, Type: et}})
		}
	}); err != nil {
		return err
	}
	if err := s.applyChunked(dels); err != nil {
		return fmt.Errorf("cluster: drop shard %d topology: %w", args.Shard, err)
	}
	reply.DroppedEdges = int64(len(dels))
	var attrs AttrsReply
	attrs.collect(s.attrs, inShard(args.Shard, v))
	for _, id := range attrs.Nodes {
		s.attrs.DeleteVertex(id)
	}
	for _, k := range attrs.EdgeKeys {
		s.attrs.DeleteEdgeFeatures(k)
	}
	reply.DroppedVertices = int64(len(attrs.Nodes))
	return nil
}

// ---------------------------------------------------------------------------
// Destination-side pull.

// PullShardArgs tell a destination server to pull shard state from Source.
// AfterSeq 0 starts with a snapshot; nonzero resumes tail draining past it.
// UntilSeq 0 drains until momentarily caught up with the source's writer;
// nonzero (the post-park call) drains to exactly that position and then
// copies the shard's attributes.
type PullShardArgs struct {
	Shard             int
	Source            string
	AfterSeq          uint64
	UntilSeq          uint64
	CallTimeoutMillis int64
}

// PullShardReply reports the drained WAL position (the next call's
// AfterSeq) and the copy volume.
type PullShardReply struct {
	EndSeq  uint64
	Bytes   int64
	Batches int64
}

// PullShard stages one shard's state from a source server: shard snapshot
// (WAL-durable via the batch path, so a destination restart re-recovers the
// staged copy), then shard-filtered WAL-tail draining, then — on the
// post-park call — the shard's attributes, checksummed like every other
// transfer. The staged copy is invisible to clients until cutover: routed
// reads for the shard bounce off this server with NotOwner, and routed
// Sources requests filter by ownership. One pull runs at a time.
func (s *Service) PullShard(args *PullShardArgs, reply *PullShardReply) error {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	rt, err := s.shardRouting("pull", args.Shard)
	if err != nil {
		return err
	}
	v := rt.m.NumShards
	dial, err := s.resolveDialer(args.Source)
	if err != nil {
		return err
	}
	timeout := time.Duration(args.CallTimeoutMillis) * time.Millisecond
	tr, err := dialTransfer(s, dial, timeout, s.metrics, args.Shard, v)
	if err != nil {
		return fmt.Errorf("cluster: migration dial %s: %w", args.Source, err)
	}
	defer tr.close()

	tr.after = args.AfterSeq
	if tr.after == 0 {
		var snap ShardSnapshotReply
		if err := tr.call("FetchShardSnapshot", &ShardSnapshotArgs{Shard: args.Shard}, &snap); err != nil {
			return fmt.Errorf("cluster: fetch shard %d snapshot from %s: %w", args.Shard, args.Source, err)
		}
		if err := verifySum(s.metrics, "FetchShardSnapshot events", checksumEvents(snap.Events), snap.Sum); err != nil {
			return err
		}
		if snap.NumShards != v {
			return fmt.Errorf("cluster: source %s exports %d logical shards, this server routes %d", args.Source, snap.NumShards, v)
		}
		if err := s.applyChunked(snap.Events); err != nil {
			return fmt.Errorf("cluster: stage shard %d snapshot: %w", args.Shard, err)
		}
		s.dedup.importEntries(snap.Dedup)
		tr.bytes += approxEvents(len(snap.Events))
		tr.after = snap.WALSeq
		if h := s.hooks.AfterShardSnapshot; h != nil {
			if err := h(args.Shard); err != nil {
				return fmt.Errorf("cluster: migration hook after snapshot: %w", err)
			}
		}
	}

	for {
		n, writer, err := tr.drainStep()
		if err != nil {
			return err
		}
		if h := s.hooks.AfterTailChunk; h != nil && n > 0 {
			if err := h(args.Shard); err != nil {
				return fmt.Errorf("cluster: migration hook after tail chunk: %w", err)
			}
		}
		if args.UntilSeq > 0 {
			if tr.after >= args.UntilSeq {
				break // drained to the park point: exactly caught up
			}
		} else if writer <= tr.after {
			break // momentarily caught up with the live writer
		}
	}
	if args.UntilSeq > 0 {
		n, err := tr.pullAttrs()
		if err != nil {
			return err
		}
		tr.bytes += n
	}
	reply.EndSeq, reply.Bytes, reply.Batches = tr.after, tr.bytes, tr.batches
	return nil
}

// ---------------------------------------------------------------------------
// The control-plane migration driver.

// Driver orchestrates shard migrations and cluster growth from outside the
// data path: it speaks only control RPCs (Routing/UpdateRouting, ParkShard,
// PullShard, ...) to servers by address. The rebalance CLI and the chaos
// tests both drive migrations through it.
type Driver struct {
	// Dial builds the transport to a server address. nil: TCP.
	Dial func(addr string) Dialer
	// CallTimeout bounds control RPCs (park, release, routing). 0: 10s.
	CallTimeout time.Duration
	// PullTimeout bounds the data-moving steps (PullShard, DropShard),
	// which scale with shard size. 0: 2m.
	PullTimeout time.Duration
	// ParkTTL is the source's park self-release backstop. 0: 30s.
	ParkTTL time.Duration
	// KeepSource skips dropping the source's copy after cutover (forensics;
	// the copy is unreachable — routing points elsewhere — but occupies
	// memory until dropped).
	KeepSource bool
	// Metrics receives migration counters. nil: a private instance per
	// MigrateShard call.
	Metrics *Metrics
	// Logf receives human-oriented progress lines. nil: silent.
	Logf func(format string, args ...any)
	// BeforeCutover, if set, runs after the destination has fully converged
	// but before any server sees the new map. Returning an error aborts the
	// migration — the no-data-loss rollback path chaos tests exercise.
	BeforeCutover func(shard int, next *ShardMap) error
}

func (d *Driver) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

func (d *Driver) ctlTimeout() time.Duration {
	if d.CallTimeout > 0 {
		return d.CallTimeout
	}
	return 10 * time.Second
}

func (d *Driver) pullTimeout() time.Duration {
	if d.PullTimeout > 0 {
		return d.PullTimeout
	}
	return 2 * time.Minute
}

func (d *Driver) parkTTL() time.Duration {
	if d.ParkTTL > 0 {
		return d.ParkTTL
	}
	return defaultParkTTL
}

// call performs one RPC round trip to addr.
func (d *Driver) call(addr, method string, args, reply wireMessage, timeout time.Duration) error {
	return roundTrip(dialAddr(d.Dial, addr, d.ctlTimeout()), method, args, reply, timeout)
}

// ServerRouting is one server's routing state in a Survey.
type ServerRouting struct {
	Addr  string
	Err   error  // unreachable
	Has   bool   // has a shard map installed
	Epoch uint64 // its map's epoch when Has
	Map   *ShardMap
}

// Survey queries every server's installed shard map.
func (d *Driver) Survey(addrs []string) []ServerRouting {
	out := make([]ServerRouting, len(addrs))
	for i, addr := range addrs {
		out[i] = ServerRouting{Addr: addr}
		var reply RoutingReply
		if err := d.call(addr, "Routing", &RoutingArgs{}, &reply, d.ctlTimeout()); err != nil {
			out[i].Err = err
			continue
		}
		if reply.Has {
			m := reply.Map
			out[i].Has = true
			out[i].Epoch = m.Epoch
			out[i].Map = &m
		}
	}
	return out
}

// FetchMap returns the newest shard map any of addrs reports. Errors when
// no reachable server has one (run InitRouting first) or when the maps
// disagree on the hash space.
func (d *Driver) FetchMap(addrs []string) (*ShardMap, error) {
	var best *ShardMap
	var lastErr error
	for _, sr := range d.Survey(addrs) {
		if sr.Err != nil {
			lastErr = sr.Err
			continue
		}
		if !sr.Has {
			continue
		}
		if best != nil && (sr.Map.NumShards != best.NumShards || sr.Map.Replicas != best.Replicas) {
			return nil, fmt.Errorf("cluster: servers report incompatible shard maps (%d shards x %d vs %d x %d)",
				best.NumShards, best.Replicas, sr.Map.NumShards, sr.Map.Replicas)
		}
		if best == nil || sr.Map.Epoch > best.Epoch {
			best = sr.Map
		}
	}
	if best == nil {
		if lastErr != nil {
			return nil, fmt.Errorf("cluster: no shard map found (last server error: %w)", lastErr)
		}
		return nil, fmt.Errorf("cluster: no server has a shard map installed; initialize routing first")
	}
	return best, nil
}

// Push installs m on every server it lists, in plain order. Servers already
// at a newer epoch ignore the push (idempotent). Returns the first error
// after attempting every server.
func (d *Driver) Push(m *ShardMap) error {
	var first error
	for _, addr := range m.Servers {
		var reply UpdateRoutingReply
		if err := d.call(addr, "UpdateRouting", &UpdateRoutingArgs{Map: *m}, &reply, d.ctlTimeout()); err != nil {
			d.logf("routing: push epoch %d to %s failed: %v", m.Epoch, addr, err)
			if first == nil {
				first = fmt.Errorf("cluster: push shard map to %s: %w", addr, err)
			}
		}
	}
	return first
}

// InitRouting builds the identity map over addrs (numShards logical shards,
// <= 0: one per server group) and installs it everywhere. The cluster must
// be initialized exactly once; after that, maps evolve by epoch.
func (d *Driver) InitRouting(addrs []string, replicas, numShards int) (*ShardMap, error) {
	m, err := IdentityMap(addrs, replicas, numShards)
	if err != nil {
		return nil, err
	}
	for _, sr := range d.Survey(addrs) {
		if sr.Has {
			return nil, fmt.Errorf("cluster: %s already has a shard map (epoch %d, %d shards x %d replicas); routing is initialized once — evolve it with grow/move/rebalance",
				sr.Addr, sr.Epoch, sr.Map.NumShards, sr.Map.Replicas)
		}
	}
	if err := d.Push(m); err != nil {
		return nil, err
	}
	d.logf("routing: initialized %s", m)
	return m, nil
}

// AddServer extends m with a new server group (Replicas addresses) that
// owns nothing yet, bumps the epoch, and pushes the result everywhere —
// including the new servers, which learn the map (and their own emptiness)
// from the push. Rebalance or MigrateShard then gives the group shards.
func (d *Driver) AddServer(m *ShardMap, addrs []string) (*ShardMap, error) {
	if len(addrs) != m.Replicas {
		return nil, fmt.Errorf("cluster: a server group needs %d addresses (got %d)", m.Replicas, len(addrs))
	}
	next := m.Clone()
	next.Epoch++
	next.Servers = append(next.Servers, addrs...)
	if err := next.Validate(); err != nil {
		return nil, err
	}
	if err := d.Push(next); err != nil {
		return nil, err
	}
	d.logf("routing: added server group %v at epoch %d", addrs, next.Epoch)
	return next, nil
}

// MigrateShard moves one logical shard to toGroup: bulk copy under live
// writes, park + deterministic drain + feature copy, cutover, source drop.
// Any pre-cutover failure aborts with the old placement intact. Returns the
// new map after cutover (or m unchanged when the shard is already there).
func (d *Driver) MigrateShard(m *ShardMap, shard, toGroup int) (*ShardMap, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.Replicas != 1 {
		return nil, fmt.Errorf("cluster: live shard migration supports Replicas=1 deployments (got %d): a replica group is rebuilt by SyncFromPeer, not migrated", m.Replicas)
	}
	if shard < 0 || shard >= m.NumShards {
		return nil, fmt.Errorf("cluster: shard %d out of range (%d logical shards)", shard, m.NumShards)
	}
	if toGroup < 0 || toGroup >= m.NumGroups() {
		return nil, fmt.Errorf("cluster: destination group %d out of range (%d groups)", toGroup, m.NumGroups())
	}
	from := m.Assign[shard]
	if from == toGroup {
		return m, nil
	}
	src := m.Group(from)[0]
	dst := m.Group(toGroup)[0]
	metrics := d.Metrics
	if metrics == nil {
		metrics = &Metrics{}
	}
	d.logf("migration: shard %d: %s -> %s (from epoch %d)", shard, src, dst, m.Epoch)

	abort := func(stage string, cause error) error {
		metrics.MigrationAborts.Inc()
		var rel ReleaseShardReply
		if rerr := d.call(src, "ReleaseShard", &ReleaseShardArgs{Shard: shard}, &rel, d.ctlTimeout()); rerr != nil {
			d.logf("migration: shard %d: abort: release on %s failed (park TTL will self-release): %v", shard, src, rerr)
		}
		var drop DropShardReply
		if derr := d.call(dst, "DropShard", &DropShardArgs{Shard: shard}, &drop, d.pullTimeout()); derr != nil {
			d.logf("migration: shard %d: abort: drop staged copy on %s failed: %v", shard, dst, derr)
		} else {
			d.logf("migration: shard %d: abort: dropped staged copy on %s (%d edges)", shard, dst, drop.DroppedEdges)
		}
		return fmt.Errorf("cluster: migrate shard %d (%s): %w", shard, stage, cause)
	}

	ctlMillis := d.ctlTimeout().Milliseconds()

	// Phase 1: bulk copy under live writes.
	var bulk PullShardReply
	if err := d.call(dst, "PullShard",
		&PullShardArgs{Shard: shard, Source: src, CallTimeoutMillis: ctlMillis}, &bulk, d.pullTimeout()); err != nil {
		return nil, abort("bulk copy", err)
	}
	metrics.MigrationBytes.Add(bulk.Bytes)
	metrics.MigrationBatches.Add(bulk.Batches)
	d.logf("migration: shard %d: bulk copy done (%d bytes, %d tail batches, wal seq %d)", shard, bulk.Bytes, bulk.Batches, bulk.EndSeq)

	// Phase 2: park the shard's writes on the source, drain the tail to the
	// park point, copy features.
	cutStart := time.Now()
	var park ParkShardReply
	if err := d.call(src, "ParkShard",
		&ParkShardArgs{Shard: shard, TTLMillis: d.parkTTL().Milliseconds()}, &park, d.ctlTimeout()); err != nil {
		return nil, abort("park", err)
	}
	var fin PullShardReply
	if err := d.call(dst, "PullShard",
		&PullShardArgs{Shard: shard, Source: src, AfterSeq: bulk.EndSeq, UntilSeq: park.WALSeq,
			CallTimeoutMillis: ctlMillis}, &fin, d.pullTimeout()); err != nil {
		return nil, abort("final drain", err)
	}
	metrics.MigrationBytes.Add(fin.Bytes)
	metrics.MigrationBatches.Add(fin.Batches)

	next := m.Clone()
	next.Epoch++
	next.Assign[shard] = toGroup

	if d.BeforeCutover != nil {
		if err := d.BeforeCutover(shard, next); err != nil {
			return nil, abort("before cutover", err)
		}
	}

	// Phase 3: cutover. Destination first, so re-routed traffic lands; the
	// source second — installing the new map releases its park, bouncing
	// parked writes into the clients' re-route path; everyone else after.
	var ur UpdateRoutingReply
	if err := d.call(dst, "UpdateRouting", &UpdateRoutingArgs{Map: *next}, &ur, d.ctlTimeout()); err != nil {
		return nil, abort("cutover push to destination", err)
	}
	if err := d.call(src, "UpdateRouting", &UpdateRoutingArgs{Map: *next}, &ur, d.ctlTimeout()); err != nil {
		// The destination already owns the shard at epoch+1; the old map on
		// the source will keep bouncing clients (via its park TTL and their
		// refresh scans) until a re-push lands. Not abortable — surface it.
		metrics.CutoverNanos.Add(int64(time.Since(cutStart)))
		return next, fmt.Errorf("cluster: migrate shard %d: cutover installed on %s but push to source %s failed (re-run a routing push): %w",
			shard, dst, src, err)
	}
	metrics.CutoverNanos.Add(int64(time.Since(cutStart)))
	for _, addr := range next.Servers {
		if addr == src || addr == dst {
			continue
		}
		var r UpdateRoutingReply
		if err := d.call(addr, "UpdateRouting", &UpdateRoutingArgs{Map: *next}, &r, d.ctlTimeout()); err != nil {
			d.logf("migration: shard %d: routing push to %s failed (clients will learn epoch %d via NotOwner refresh): %v",
				shard, addr, next.Epoch, err)
		}
	}
	metrics.ShardsMigrated.Inc()
	d.logf("migration: shard %d: cutover to %s at epoch %d (%.1fms park-to-flip)",
		shard, dst, next.Epoch, float64(time.Since(cutStart))/float64(time.Millisecond))

	// Phase 4: retire the source's copy.
	if !d.KeepSource {
		var drop DropShardReply
		if err := d.call(src, "DropShard", &DropShardArgs{Shard: shard}, &drop, d.pullTimeout()); err != nil {
			d.logf("migration: shard %d: post-cutover drop on %s failed (copy is unreachable but resident): %v", shard, src, err)
		} else {
			d.logf("migration: shard %d: dropped source copy on %s (%d edges, %d vertices)",
				shard, src, drop.DroppedEdges, drop.DroppedVertices)
		}
	}
	return next, nil
}

// Rebalance count-balances m by migrating shards one at a time, recomputing
// the plan after each move. Returns the final map and the number of shards
// moved; on error the map reflects every migration that completed.
func (d *Driver) Rebalance(m *ShardMap) (*ShardMap, int, error) {
	moved := 0
	for {
		plan := CountBalancePlan(m)
		if len(plan) == 0 {
			return m, moved, nil
		}
		mv := plan[0]
		next, err := d.MigrateShard(m, mv.Shard, mv.To)
		if err != nil {
			return m, moved, err
		}
		m = next
		moved++
	}
}

// Grow is the N→N+1 scale-out: add a server group, then rebalance shards
// onto it. Returns the final map and shards moved.
func (d *Driver) Grow(m *ShardMap, addrs []string) (*ShardMap, int, error) {
	next, err := d.AddServer(m, addrs)
	if err != nil {
		return m, 0, err
	}
	return d.Rebalance(next)
}
