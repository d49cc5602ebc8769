// Anti-entropy: detecting and repairing replica divergence that slipped
// past the synchronous write path. Replication here is client-driven
// fan-out — a network partition, a crashed-then-restored process, or plain
// disk corruption can leave one replica silently holding different state
// than its group, and nothing on the request path would ever notice (reads
// fail over, writes mark stale and move on). The scrubber closes that gap:
//
//   - Every store maintains cheap incremental state digests — an
//     order-independent XOR over per-entry checksums, O(1) per mutation —
//     for attributes (kvstore) and a walk-computed one for topology. The
//     ShardDigest RPC exposes them.
//   - A background Scrubber on each server periodically compares its own
//     digests against its replica peers', re-checking a few times with
//     delays so in-flight write skew settles before anything is declared
//     divergent. It also re-verifies the service's own WAL (per-frame CRC)
//     and snapshot (CRC trailer), the files OpenDurable opened, so latent
//     disk corruption is found before the next restart would load it.
//   - A mismatch is classified: if this replica disagrees with the healthy
//     majority (ties broken by WAL position), it is diverged and — with
//     AutoRepair — rebuilds itself from a healthy peer via the proven
//     catch-up path (SyncFromPeer), converging byte-identically,
//     features included. Local disk corruption triggers the same repair,
//     whose closing Checkpoint rewrites the snapshot and truncates the WAL
//     (a WAL-only server keeps its WAL: only a snapshot may replace it).
//
// Topology digests cover the edge set (type, src, dst), not weights: the
// sampling trees reconstruct weights through float summation whose rounding
// depends on insertion order, so weight bits are not replica-stable even
// when the logical state is identical. Weight divergence with an identical
// edge set would require a lost UpdateWeight, which the WAL-shipped
// catch-up path already covers.
package cluster

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
	"platod2gl/internal/storage"
)

// ---------------------------------------------------------------------------
// Digests.

// topoSeed keeps the topology digest domain-separated from attribute sums.
const topoSeed = 0x746f706f6c6f6779

// edgeDigest is one edge's contribution to the topology digest.
func edgeDigest(et graph.EdgeType, src, dst graph.VertexID) uint64 {
	h := graph.Mix64(topoSeed ^ uint64(et))
	h = graph.Mix64(h ^ uint64(src))
	return graph.Mix64(h ^ uint64(dst))
}

// topologyDigest XORs edgeDigest over the store's *distinct* edge set —
// optionally filtered to one logical shard — so identical edge sets produce
// identical digests regardless of insertion order or internal layout.
// Duplicate entries are digested once: the samtree can transiently hold an
// edge — or a whole source run — in more than one leaf, and which copies a
// walk reports is not replica-stable (a snapshot save/load cycle
// redistributes them), so multiplicity — like the weight bits — must stay
// out of the digest or byte-equal replicas would scrub as diverged
// (forEachSource skips a repeated source).
func topologyDigest(store storage.TopologyStore, shard, numShards int) (uint64, error) {
	var d uint64
	seen := make(map[graph.VertexID]struct{})
	err := forEachSource(store, shard, numShards, func(et graph.EdgeType, src graph.VertexID, nbrs []graph.VertexID, _ []float64) {
		clear(seen)
		for _, dst := range nbrs {
			if _, dup := seen[dst]; dup {
				continue
			}
			seen[dst] = struct{}{}
			d ^= edgeDigest(et, src, dst)
		}
	})
	return d, err
}

// DigestArgs requests a server's state digests. Shard < 0 digests the whole
// store; Shard >= 0 restricts to one logical shard under a NumShards hash
// space (used by the rebalance CLI to compare per-shard across owners).
type DigestArgs struct {
	Shard     int
	NumShards int
}

// DigestReply carries one server's state digests plus the context a
// comparator needs: convergence state (skip replicas mid-catch-up), WAL
// position (tie-break two-replica divergence), and the sync epoch.
type DigestReply struct {
	Topology  uint64 // order-independent edge-set digest
	Attrs     uint64 // attribute-store digest (features, labels, edge feats)
	NumEdges  int64
	WALSeq    uint64
	SyncEpoch uint64
	Ready     bool
}

// localDigest computes this server's digests under a write quiesce, so a
// digest is never torn mid-batch. The Pause barrier is the same one
// snapshots use; the walk is O(edges), paid on every scrubber round and
// every serving-refresher poll.
func (s *Service) localDigest(shard, numShards int) (DigestReply, error) {
	var reply DigestReply
	if shard >= 0 && numShards <= 0 {
		return reply, fmt.Errorf("cluster: shard digest needs a hash space (shard %d, numShards %d)", shard, numShards)
	}
	resume := s.Pause()
	defer resume()
	topo, err := topologyDigest(s.store, shard, numShards)
	if err != nil {
		return reply, err
	}
	reply.Topology = topo
	if s.attrs != nil {
		if shard < 0 {
			reply.Attrs = s.attrs.Digest()
		} else {
			reply.Attrs = s.attrs.DigestWhere(inShard(shard, numShards))
		}
	}
	reply.NumEdges = s.store.NumEdges()
	if s.wal != nil {
		reply.WALSeq = s.wal.Seq()
	}
	reply.SyncEpoch = s.syncEpoch.Load()
	reply.Ready = s.ready.Load()
	return reply, nil
}

// ShardDigestCtx fetches the digest of one logical shard through the fan-out
// client, riding the same routing, failover, and admission machinery as data
// reads. The serving tier's refresher polls it to detect shard-level change
// without walking edges over the wire.
func (c *Client) ShardDigestCtx(ctx context.Context, shard int) (DigestReply, error) {
	var reply DigestReply
	rt := c.route.Load()
	args := &DigestArgs{Shard: shard, NumShards: rt.m.NumShards}
	err := c.readShard(ctx, rt, shard, "ShardDigest", args, &reply)
	return reply, err
}

// ShardDigest serves this server's state digests. Served even while not
// ready — the Ready flag tells comparators to skip it — because a scrubber
// probing a catching-up sibling must not error out the whole round.
func (s *Service) ShardDigest(args *DigestArgs, reply *DigestReply) (err error) {
	*reply, err = s.localDigest(args.Shard, args.NumShards)
	return err
}

// ---------------------------------------------------------------------------
// The scrubber.

// ScrubConfig configures a Scrubber.
type ScrubConfig struct {
	// Interval between background rounds (Start). <= 0: 30s.
	Interval time.Duration
	// Self is this server's address as it appears in Peers; it is skipped
	// when fanning digest probes out.
	Self string
	// Peers are the replica group's member addresses (may include Self).
	// Empty: digest comparison is skipped and only disk checks run.
	Peers []string
	// Dial builds the transport to a peer address. nil: TCP.
	Dial func(addr string) Dialer
	// CallTimeout bounds each digest probe. 0: 10s. (Repair pulls use
	// RepairTimeout.)
	CallTimeout time.Duration
	// RepairTimeout bounds each repair RPC (snapshot fetches move the whole
	// store). 0: 2m.
	RepairTimeout time.Duration
	// SettleRetries re-checks a digest mismatch this many times before
	// declaring divergence, absorbing in-flight write skew. <= 0: 3.
	SettleRetries int
	// SettleDelay is the wait between settle re-checks. <= 0: 100ms.
	SettleDelay time.Duration
	// AutoRepair rebuilds this replica from a healthy peer when a round
	// finds it diverged or locally corrupt. Off: rounds only report.
	AutoRepair bool
	// Metrics receives scrub counters. nil: a private instance.
	Metrics *Metrics
	// Logf receives human-oriented scrub lines. nil: silent.
	Logf func(format string, args ...any)
}

// PeerDigest is one server's whole-store digest probe (or its failure), in
// a scrub round or an integrity check.
type PeerDigest struct {
	Addr   string
	Err    string // probe failure ("" on success)
	Digest DigestReply
}

// ok reports whether the digest is usable evidence: the probe succeeded and
// the replica is serving (not mid-catch-up).
func (p *PeerDigest) ok() bool { return p.Err == "" && p.Digest.Ready }

// RoundReport is one scrub round's outcome, carried by the Scrub RPC.
type RoundReport struct {
	DurationNanos int64
	Local         DigestReply
	Peers         []PeerDigest
	DiskErrors    []string // on-disk CRC failures found this round
	Diverged      bool     // this replica disagrees with the healthy majority
	Corrupt       bool     // local disk corruption detected
	RepairPeer    string   // peer a repair pulled from ("" when none ran)
	Repaired      bool
	RepairErr     string
	RepairBytes   int64
}

// healthy reports whether the round found nothing wrong.
func (r *RoundReport) healthy() bool {
	return !r.Diverged && !r.Corrupt && len(r.DiskErrors) == 0
}

// Scrubber runs anti-entropy rounds for one service: digest comparison
// across its replica group, CRC verification of the service's WAL and
// snapshot files, and (optionally) self-repair from a healthy peer.
type Scrubber struct {
	svc *Service
	cfg ScrubConfig

	mu sync.Mutex // serializes rounds (background loop vs Scrub RPC)
	// unrepaired is set, under mu, while this scrubber's own failed repair
	// keeps the replica not ready: the next round repairs again.
	unrepaired bool
	last       atomic.Pointer[RoundReport]
	stopCh     chan struct{}
	doneCh     chan struct{}
	started    bool
}

// NewScrubber builds a scrubber for svc. Call Start for the background
// loop, or RunRound (directly or via the Scrub RPC) for on-demand rounds.
func NewScrubber(svc *Service, cfg ScrubConfig) *Scrubber {
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.RepairTimeout <= 0 {
		cfg.RepairTimeout = 2 * time.Minute
	}
	if cfg.SettleRetries <= 0 {
		cfg.SettleRetries = 3
	}
	if cfg.SettleDelay <= 0 {
		cfg.SettleDelay = 100 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	return &Scrubber{svc: svc, cfg: cfg}
}

func (sc *Scrubber) logf(format string, args ...any) {
	if sc.cfg.Logf != nil {
		sc.cfg.Logf(format, args...)
	}
}

// Start launches the background scrub loop. Idempotent.
func (sc *Scrubber) Start() {
	sc.mu.Lock()
	if sc.started {
		sc.mu.Unlock()
		return
	}
	sc.started = true
	sc.stopCh = make(chan struct{})
	sc.doneCh = make(chan struct{})
	stop, done := sc.stopCh, sc.doneCh
	sc.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(sc.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				sc.RunRound()
			}
		}
	}()
}

// Stop halts the background loop and waits for an in-flight round.
func (sc *Scrubber) Stop() {
	sc.mu.Lock()
	if !sc.started {
		sc.mu.Unlock()
		return
	}
	sc.started = false
	close(sc.stopCh)
	done := sc.doneCh
	sc.mu.Unlock()
	<-done
}

// LastReport returns the most recent round's report (zero before any round).
func (sc *Scrubber) LastReport() RoundReport {
	if r := sc.last.Load(); r != nil {
		return *r
	}
	return RoundReport{}
}

// RunRound executes one scrub round and returns its report. Rounds are
// serialized: a Scrub RPC arriving mid-background-round waits.
func (sc *Scrubber) RunRound() RoundReport {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	start := time.Now()
	var rep RoundReport

	sc.checkDisk(&rep)
	sc.compareDigests(&rep)

	// Latency covers detection only; a triggered repair is accounted by its
	// own counters.
	sc.cfg.Metrics.ScrubLatency.ObserveSince(start)
	sc.cfg.Metrics.ScrubRounds.Inc()

	if (rep.Diverged || rep.Corrupt) && sc.cfg.AutoRepair {
		sc.repair(&rep)
	}
	rep.DurationNanos = int64(time.Since(start))
	sc.last.Store(&rep)
	if !rep.healthy() || rep.Repaired {
		sc.logf("scrub: diverged=%v corrupt=%v disk_errors=%d repaired=%v repair_peer=%q repair_err=%q",
			rep.Diverged, rep.Corrupt, len(rep.DiskErrors), rep.Repaired, rep.RepairPeer, rep.RepairErr)
	}
	return rep
}

// checkDisk re-verifies the service's WAL frames and snapshot trailer. A
// file not written yet is skipped, one that cannot be read is a disk error,
// and one that fails verification is corrupt.
func (sc *Scrubber) checkDisk(rep *RoundReport) {
	report := func(what string, err error, corrupt bool) {
		rep.DiskErrors = append(rep.DiskErrors, fmt.Sprintf("%s: %v", what, err))
		if corrupt {
			rep.Corrupt = true
			sc.cfg.Metrics.CorruptionDetected.Inc()
		}
	}
	if w := sc.svc.wal; w != nil {
		if vr, err := eventlog.Verify(w.Path()); err != nil && !os.IsNotExist(err) {
			report("wal "+w.Path(), err, false)
		} else if vr.Corrupt {
			report("wal "+w.Path(), fmt.Errorf("corrupt frame at offset %d (last good seq %d)", vr.BadOffset, vr.LastSeq), true)
		}
	}
	if p := sc.svc.snapshot; p != "" {
		if f, err := os.Open(p); err == nil {
			err = storage.VerifySnapshot(f)
			f.Close()
			if err != nil {
				report("snapshot "+p, err, true)
			}
		} else if !os.IsNotExist(err) {
			report("snapshot "+p, err, false)
		}
	}
}

// digestKey is the comparable pair replicas are grouped by: two replicas
// hold the same state when their keys are equal.
type digestKey struct{ topo, attrs uint64 }

func (d *DigestReply) key() digestKey { return digestKey{d.Topology, d.Attrs} }

// compareDigests probes the replica group and classifies any persistent
// mismatch. A transient mismatch (writes in flight during the probe) is
// absorbed by re-checking SettleRetries times: divergence is only declared
// when the group still disagrees after the skew had time to settle.
//
// A replica that is not ready is mid-catch-up and has nothing meaningful to
// compare, unless the catch-up was this scrubber's repair and it failed:
// then the round reports it diverged, so the repair runs again. A round
// that finds the replica ready forgets the failed repair.
func (sc *Scrubber) compareDigests(rep *RoundReport) {
	if !sc.svc.ready.Load() {
		rep.Diverged = sc.unrepaired
		return
	}
	sc.unrepaired = false
	local, err := sc.svc.localDigest(-1, 0)
	if err != nil {
		rep.DiskErrors = append(rep.DiskErrors, fmt.Sprintf("local digest: %v", err))
		return
	}
	rep.Local = local
	if len(sc.cfg.Peers) == 0 {
		return // nothing to compare against; the digest still reports state
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if local, err = sc.svc.localDigest(-1, 0); err != nil {
				rep.DiskErrors = append(rep.DiskErrors, fmt.Sprintf("local digest: %v", err))
				return
			}
		}
		peers := sc.probePeers()
		rep.Local, rep.Peers = local, peers
		if digestsAgree(local, peers) {
			rep.Diverged = false
			return
		}
		if attempt >= sc.cfg.SettleRetries {
			break
		}
		time.Sleep(sc.cfg.SettleDelay)
	}
	sc.cfg.Metrics.DigestMismatches.Inc()
	sc.classify(rep)
}

// probePeers fetches every peer's whole-store digest.
func (sc *Scrubber) probePeers() []PeerDigest {
	var out []PeerDigest
	for _, addr := range sc.cfg.Peers {
		if addr == sc.cfg.Self {
			continue
		}
		pd := PeerDigest{Addr: addr}
		if err := roundTrip(dialAddr(sc.cfg.Dial, addr, sc.cfg.CallTimeout), "ShardDigest",
			&DigestArgs{Shard: -1}, &pd.Digest, sc.cfg.CallTimeout); err != nil {
			pd.Err = err.Error()
		}
		out = append(out, pd)
	}
	return out
}

// digestsAgree reports whether every reachable, ready peer matches local.
func digestsAgree(local DigestReply, peers []PeerDigest) bool {
	for _, p := range peers {
		if !p.ok() {
			continue // unreachable or catching up: not evidence either way
		}
		if p.Digest.key() != local.key() {
			return false
		}
	}
	return true
}

// classify decides, after a persistent mismatch, whether this replica is
// the diverged one: the digest value held by the majority of ready group
// members (local included) is presumed healthy; with no majority — the
// two-replica case — the member with the higher WAL position wins, since a
// partitioned replica missed appends rather than invented them. An exact
// WAL tie falls through to a deterministic address-order tie-break so the
// group converges instead of splitting forever.
func (sc *Scrubber) classify(rep *RoundReport) {
	localKey := rep.Local.key()
	votes := map[digestKey]int{localKey: 1}
	bestPeer := map[digestKey]string{}
	var maxPeerWAL uint64
	var maxPeerKey digestKey
	var maxPeerAddr string
	for _, p := range rep.Peers {
		if !p.ok() {
			continue
		}
		k := p.Digest.key()
		votes[k]++
		if _, ok := bestPeer[k]; !ok || p.Digest.WALSeq > maxPeerWAL {
			bestPeer[k] = p.Addr
		}
		if p.Digest.WALSeq >= maxPeerWAL {
			maxPeerWAL, maxPeerKey, maxPeerAddr = p.Digest.WALSeq, k, p.Addr
		}
	}
	// Deterministic winner: most votes, ties by key order.
	keys := make([]digestKey, 0, len(votes))
	for k := range votes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if votes[keys[i]] != votes[keys[j]] {
			return votes[keys[i]] > votes[keys[j]]
		}
		if keys[i].topo != keys[j].topo {
			return keys[i].topo < keys[j].topo
		}
		return keys[i].attrs < keys[j].attrs
	})
	winner := keys[0]
	if votes[winner] > 1 && winner == localKey {
		return // local agrees with the majority: a peer is diverged, its own scrubber repairs it
	}
	if votes[winner] == 1 {
		// No majority (the R=2 case, or total disagreement): trust the
		// highest WAL position.
		if maxPeerAddr == "" || maxPeerWAL < rep.Local.WALSeq {
			return // local is strictly the most advanced copy: hold state, let the peer repair
		}
		if maxPeerWAL == rep.Local.WALSeq {
			// Exact WAL tie with differing digests: both sides applied
			// every write but in different interleavings (racing batches on
			// the fan-out), so neither is "more correct" — converging on
			// either beats a permanent split. The tied member with the
			// lexically smallest address holds; everyone else rebuilds from
			// it. Every scrubber computes the same winner independently, so
			// exactly one side yields without coordination.
			tieAddr, tieKey := sc.cfg.Self, localKey
			for _, p := range rep.Peers {
				if !p.ok() || p.Digest.WALSeq != rep.Local.WALSeq {
					continue
				}
				if p.Addr < tieAddr {
					tieAddr, tieKey = p.Addr, p.Digest.key()
				}
			}
			if tieAddr == sc.cfg.Self || tieKey == localKey {
				return // local holds (or already matches the tie winner)
			}
			rep.Diverged = true
			rep.RepairPeer = tieAddr
			return
		}
		winner = maxPeerKey
	}
	rep.Diverged = true
	rep.RepairPeer = bestPeer[winner]
	if rep.RepairPeer == "" {
		rep.RepairPeer = maxPeerAddr
	}
}

// pickRepairPeer returns the peer a corruption-only repair pulls from: any
// reachable ready peer (they all agree when nothing diverged).
func (sc *Scrubber) pickRepairPeer(rep *RoundReport) string {
	if rep.RepairPeer != "" {
		return rep.RepairPeer
	}
	peers := rep.Peers
	if len(peers) == 0 {
		peers = sc.probePeers()
	}
	for _, p := range peers {
		if p.ok() {
			return p.Addr
		}
	}
	return ""
}

// repair rebuilds this replica from a healthy peer through the catch-up
// path, which replaces the local stores and ends in the service's
// Checkpoint.
func (sc *Scrubber) repair(rep *RoundReport) {
	peer := sc.pickRepairPeer(rep)
	if peer == "" {
		rep.RepairErr = "no healthy peer to repair from"
		sc.logf("scrub: repair needed but %s", rep.RepairErr)
		return
	}
	rep.RepairPeer = peer
	sc.cfg.Metrics.RepairsTriggered.Inc()
	sc.logf("scrub: repairing from %s (diverged=%v corrupt=%v)", peer, rep.Diverged, rep.Corrupt)

	stats, err := SyncFromPeer(sc.svc, dialAddr(sc.cfg.Dial, peer, sc.cfg.CallTimeout), SyncOptions{
		CallTimeout: sc.cfg.RepairTimeout,
		Metrics:     sc.cfg.Metrics,
	})
	sc.unrepaired = err != nil && !sc.svc.ready.Load()
	if err != nil {
		rep.RepairErr = err.Error()
		sc.logf("scrub: repair from %s failed (replica stays out of rotation; next round retries): %v", peer, err)
		return
	}
	rep.RepairBytes = stats.SnapshotBytes + stats.AttrBytes
	sc.cfg.Metrics.RepairBytes.Add(rep.RepairBytes)
	rep.Repaired = true
	sc.logf("scrub: repaired from %s (%d bytes)", peer, rep.RepairBytes)
}

// ---------------------------------------------------------------------------
// The Scrub RPC.

// SetScrubber installs sc as the scrubber the Scrub RPC drives. Call before
// serving.
func (s *Service) SetScrubber(sc *Scrubber) { s.scrubber.Store(sc) }

// ScrubArgs is empty.
type ScrubArgs struct{}

// ScrubReply carries the on-demand round's report.
type ScrubReply struct {
	Report RoundReport
}

// Scrub runs one scrub round on demand (the rebalance CLI's verify verb and
// tests use it) and returns the report.
func (s *Service) Scrub(_ *ScrubArgs, reply *ScrubReply) error {
	sc := s.scrubber.Load()
	if sc == nil {
		return fmt.Errorf("cluster: no scrubber installed on this server")
	}
	reply.Report = sc.RunRound()
	return nil
}
