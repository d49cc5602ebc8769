// WAL-shipped replica catch-up: a rejoining replica converges with its
// group by pulling a live sibling's snapshot plus the WAL tail past it,
// instead of requiring the full event history. The protocol is four RPCs —
// SyncState (am I converged? which epoch?), FetchSnapshot (quiesced store
// image + dedup table + WAL position), FetchWALTail (length-framed records
// past a sequence number), FetchAttrs (the attribute store, which the
// topology WAL does not cover) — driven client-side by SyncFromPeer, on the
// drain and attribute steps migration shares (transfer.go).
//
// Convergence argument. While catching up, the replica is "not ready":
// reads are rejected (the cluster client fails over to a converged
// sibling), and direct writes are first rejected, then — once the tail is
// nearly drained — parked on a gate until ready. Rejected writes are not
// lost: the cluster client only reports a batch written after a sibling
// acked it, which puts the batch in that sibling's WAL, which the tail
// stream delivers. A batch that arrives twice — directly and via the tail —
// applies once, because both paths go through ApplyBatch's (ClientID, Seq)
// dedup, and the snapshot carries the serving peer's dedup table so
// batches already inside the snapshot are recognized too. The final drain
// runs in blocking mode precisely so a write racing the ready transition
// parks and applies instead of vanishing into the gap between "last tail
// fetch" and "accepting writes again".
package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"platod2gl/internal/eventlog"
)

// Sync epochs: every completed catch-up (and every fresh Service) gets a
// distinct epoch, so a client that recorded a replica's epoch when marking
// it stale can tell "this replica has re-synced since" from "this is still
// the replica that missed my write". The process-start base makes epochs
// from different incarnations of the same server distinct too.
var (
	syncEpochBase    = uint64(time.Now().UnixNano())
	syncEpochCounter atomic.Uint64
)

func nextSyncEpoch() uint64 { return syncEpochBase + syncEpochCounter.Add(1) }

// SetMetrics installs shared fault-tolerance counters (snapshots served,
// WAL batches streamed). May be the same Metrics instance a Client uses.
// Call before NewServer; nil keeps the current instance.
func (s *Service) SetMetrics(m *Metrics) {
	if m != nil {
		s.metrics = m
	}
}

// Ready reports whether this replica serves reads (i.e. is converged).
func (s *Service) Ready() bool { return s.ready.Load() }

// BeginCatchUp takes the replica out of read service: reads and writes are
// rejected with ErrReplicaNotReady until MarkSynced. Idempotent.
func (s *Service) BeginCatchUp() {
	s.syncMu.Lock()
	if s.readyCh == nil {
		s.readyCh = make(chan struct{})
	}
	s.syncBlock.Store(false)
	s.ready.Store(false)
	s.syncMu.Unlock()
}

// beginBlockingDrain switches the write gate from rejecting to parking:
// incoming writes wait for MarkSynced instead of failing. Used for the
// final WAL drain so a write racing the ready transition cannot be missed.
func (s *Service) beginBlockingDrain() { s.syncBlock.Store(true) }

// MarkSynced declares the replica converged: bumps the sync epoch, resumes
// read service, and releases any writes parked on the catch-up gate.
func (s *Service) MarkSynced() {
	s.syncMu.Lock()
	s.syncEpoch.Store(nextSyncEpoch())
	s.ready.Store(true)
	if s.readyCh != nil {
		close(s.readyCh)
		s.readyCh = nil
	}
	s.syncBlock.Store(false)
	s.syncMu.Unlock()
}

// gateWrite is the write-path catch-up gate: a no-op when ready, a fast
// rejection during bulk catch-up, and a park-until-ready during the final
// blocking drain. Called before pauseMu so parked writes cannot deadlock
// the catch-up's own Pause.
func (s *Service) gateWrite() error {
	if s.ready.Load() {
		return nil
	}
	if !s.syncBlock.Load() {
		return ErrReplicaNotReady
	}
	s.syncMu.Lock()
	ch := s.readyCh
	s.syncMu.Unlock()
	if ch == nil {
		return nil // MarkSynced won the race
	}
	<-ch
	return nil
}

// SyncStateArgs is empty.
type SyncStateArgs struct{}

// SyncStateReply reports a replica's convergence state: whether it serves
// reads, the epoch of its last completed catch-up, its WAL position, and
// its edge count (diagnostics).
type SyncStateReply struct {
	Ready     bool
	SyncEpoch uint64
	WALSeq    uint64
	NumEdges  int64
}

// SyncState reports this replica's convergence state. Always served, even
// while not ready — it is how clients and siblings probe progress.
func (s *Service) SyncState(_ *SyncStateArgs, reply *SyncStateReply) error {
	reply.Ready = s.ready.Load()
	reply.SyncEpoch = s.syncEpoch.Load()
	if s.wal != nil {
		reply.WALSeq = s.wal.Seq()
	}
	reply.NumEdges = s.store.NumEdges()
	return nil
}

// SnapshotArgs is empty.
type SnapshotArgs struct{}

// SnapshotReply carries a quiesced store image, the WAL sequence the image
// is consistent with (tail streaming starts past it), and the serving
// replica's dedup table so batches inside the snapshot stay at-most-once on
// the loading side.
type SnapshotReply struct {
	Snapshot []byte
	WALSeq   uint64
	Dedup    []DedupEntry
	// Sum checksums Snapshot end-to-end (the image also carries its own
	// internal CRC trailer; this one catches corruption of the byte slice in
	// flight before the loader even parses it).
	Sum uint64
}

// FetchSnapshot serves a catch-up snapshot: writes drain (Pause), the WAL
// position is recorded, and the store plus dedup table are captured, all
// under the same quiescent point so image and tail agree. A replica that is
// itself not ready refuses — two empty booting replicas must not "catch up"
// from each other.
func (s *Service) FetchSnapshot(_ *SnapshotArgs, reply *SnapshotReply) error {
	st, ok := s.store.(snapshotStore)
	if !ok {
		return fmt.Errorf("cluster: store %T does not support snapshots", s.store)
	}
	resume := s.Pause()
	defer resume()
	if s.wal != nil {
		reply.WALSeq = s.wal.Seq()
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		return fmt.Errorf("cluster: snapshot: %w", err)
	}
	reply.Snapshot = buf.Bytes()
	reply.Sum = checksumBytes(reply.Snapshot)
	reply.Dedup = s.dedup.export()
	s.metrics.SnapshotsServed.Inc()
	return nil
}

// WALTailArgs requests complete WAL records with Seq > AfterSeq, at most
// MaxBatches of them (<= 0: unlimited).
type WALTailArgs struct {
	AfterSeq   uint64
	MaxBatches int
}

// WALTailReply returns the records plus the log positions the caller needs
// to drive the stream: EndSeq to resume from, WriterSeq to decide whether
// the tail is drained (WriterSeq <= the caller's AfterSeq) or was reset
// (WriterSeq < AfterSeq).
type WALTailReply struct {
	Records   []eventlog.BatchRecord
	EndSeq    uint64
	WriterSeq uint64
	// Sum checksums Records (checksumRecords).
	Sum uint64
}

// FetchWALTail streams a chunk of this server's WAL past AfterSeq. Safe
// against concurrent appends: a torn frame mid-file ends the chunk cleanly
// and a later call picks it up once complete.
func (s *Service) FetchWALTail(args *WALTailArgs, reply *WALTailReply) error {
	if s.wal == nil {
		return fmt.Errorf("cluster: server has no WAL to stream")
	}
	recs, err := eventlog.ReadTail(s.wal.Path(), args.AfterSeq, args.MaxBatches)
	if err != nil {
		return fmt.Errorf("cluster: wal tail: %w", err)
	}
	reply.Records = recs
	reply.Sum = checksumRecords(recs)
	reply.EndSeq = args.AfterSeq
	if n := len(recs); n > 0 {
		reply.EndSeq = recs[n-1].Seq
	}
	// Read the writer position after the file scan: anything appended in
	// between just makes the caller loop once more.
	reply.WriterSeq = s.wal.Seq()
	s.metrics.TailBatchesServed.Add(int64(len(recs)))
	return nil
}

// ErrSyncWALReset reports that the peer's WAL was reset (snapshot +
// truncate) mid-catch-up, invalidating the stream position. The caller
// restarts the catch-up from a fresh snapshot.
var ErrSyncWALReset = errors.New("cluster: peer WAL reset during catch-up")

// SyncOptions tune SyncFromPeer.
type SyncOptions struct {
	// CallTimeout bounds each sync RPC. Snapshot fetches move the whole
	// store image, so this is typically much larger than the regular
	// Options.CallTimeout. 0 disables.
	CallTimeout time.Duration
	// Metrics receives catch-up counters. nil: a private instance.
	Metrics *Metrics
}

// SyncStats reports what a catch-up moved — repair metrics feed on it.
type SyncStats struct {
	SnapshotBytes int64
	Batches       int64
	AttrBytes     int64
}

const (
	// The blocking drain requires syncDrainConfirms consecutive drained
	// fetches spaced by syncDrainPollDelay (~250ms of quiet) before declaring
	// convergence. At the moment the gate switches to blocking, at most one
	// batch per client can be in the hazard window — rejected here while its
	// sibling ack (hence its WAL record) is still in flight — because a
	// client issues a batch only after its predecessor's fan-out completed,
	// and once a successor parks on the gate the predecessor is provably in
	// the WAL. The quiet window only needs to outlast that single sibling
	// apply; parked writes quiesce the stream, so the window always arrives.
	syncDrainPollDelay = 25 * time.Millisecond
	syncDrainConfirms  = 10
)

// SyncFromPeer converges svc with a live replica of the same shard, as the
// convergence argument atop this file lays out: it loads the peer's quiesced
// snapshot in place of svc's stores, drains the WAL tail past it, copies
// the attributes, checkpoints the synced store, and re-enters read rotation
// under a fresh sync epoch (MarkSynced). The returned stats report what
// moved. On error the replica stays not ready; the caller may retry against
// the same or another peer.
func SyncFromPeer(svc *Service, dial Dialer, opts SyncOptions) (SyncStats, error) {
	var stats SyncStats
	if opts.Metrics == nil {
		opts.Metrics = &Metrics{}
	}
	svc.BeginCatchUp()
	tr, err := dialTransfer(svc, dial, opts.CallTimeout, opts.Metrics, -1, 0)
	if err != nil {
		return stats, fmt.Errorf("cluster: sync dial: %w", err)
	}
	defer tr.close()

	var snap SnapshotReply
	if err := tr.call("FetchSnapshot", &SnapshotArgs{}, &snap); err != nil {
		return stats, fmt.Errorf("cluster: fetch snapshot: %w", err)
	}
	if err := verifySum(opts.Metrics, "FetchSnapshot image", checksumBytes(snap.Snapshot), snap.Sum); err != nil {
		return stats, err
	}
	st, ok := svc.store.(snapshotStore)
	if !ok {
		return stats, fmt.Errorf("cluster: store %T cannot load snapshots", svc.store)
	}
	// Load merges, so the stale local state goes first.
	resume := svc.Pause()
	st.Reset()
	if svc.attrs != nil {
		svc.attrs.Reset()
	}
	svc.dedup.importEntries(snap.Dedup)
	err = st.Load(bytes.NewReader(snap.Snapshot))
	resume()
	if err != nil {
		return stats, fmt.Errorf("cluster: load snapshot: %w", err)
	}
	stats.SnapshotBytes = int64(len(snap.Snapshot))

	tr.after = snap.WALSeq
	confirms := 0
	blocking := false
	for confirms < syncDrainConfirms {
		n, writer, err := tr.drainStep()
		if err != nil {
			return stats, err
		}
		switch {
		case n > 0:
			confirms = 0
		case writer > tr.after:
			// An append in flight: drainStep bounds the wait.
		case !blocking:
			// Drained under rejection. Park direct writes and keep draining:
			// once a write parks here, the client's fan-out for it cannot
			// complete, so the sibling's WAL quiesces and the remaining tail
			// is finite.
			blocking = true
			svc.beginBlockingDrain()
		default:
			confirms++
			if confirms < syncDrainConfirms {
				time.Sleep(syncDrainPollDelay)
			}
		}
	}
	stats.Batches = tr.batches
	// Pull the peer's attributes while direct writes are still parked on the
	// gate: the peer's store is quiescent modulo in-flight absolute writes,
	// which converge on both sides.
	if stats.AttrBytes, err = tr.pullAttrs(); err != nil {
		return stats, err
	}
	// The local WAL holds only the tail: without a checkpoint a crash now
	// would recover just that.
	if err := svc.Checkpoint(); err != nil {
		return stats, err
	}
	svc.MarkSynced()
	opts.Metrics.CatchUps.Inc()
	opts.Metrics.CatchUpBytes.Add(stats.SnapshotBytes)
	opts.Metrics.CatchUpBatches.Add(stats.Batches)
	return stats, nil
}
