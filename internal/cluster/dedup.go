// At-most-once ApplyBatch: clients stamp every batch with a (ClientID, Seq)
// pair; servers deduplicate so a retry after a lost reply never re-applies
// its events. Idempotence cannot be assumed — re-applying a batch that
// deletes an edge later re-added by another batch corrupts the topology —
// so dedup is the only safe way to retry writes.
//
// With replica groups the same identity does double duty: every replica of
// a shard receives the same (ClientID, Seq) batch, and a rejoining replica
// replays its peer's WAL tail through the same filter, so a batch that
// arrives both directly and via catch-up streaming is still applied exactly
// once per replica.
package cluster

import (
	"fmt"
	"sync"
	"time"
)

// dedupWindow bounds how many completed sequence numbers are remembered per
// client. Retries are immediate (bounded by the client's retry budget), so a
// small window is ample; the cap keeps a long-lived server's memory bounded
// under client churn.
const dedupWindow = 4096

// dedupClientTTL is how long a client's window survives without any new
// batch from that client. Retries arrive within the retry budget (seconds),
// so a generous TTL loses nothing; without it the clients map itself grows
// one entry per client forever — millions of short-lived training jobs
// would leak a map entry (plus up to dedupWindow seqs) each.
const dedupClientTTL = 15 * time.Minute

// dedupSweepEvery bounds how often the lazy TTL sweep runs: at most once
// per this many claim/import operations, keeping the sweep's O(clients)
// cost off the per-batch path.
const dedupSweepEvery = 4096

type dedupKey struct {
	client uint64
	seq    uint64
}

// inflightBatch tracks a batch currently being applied so a concurrent
// duplicate (a retry racing its own abandoned first attempt) waits for the
// outcome instead of double-applying or wrongly reporting success.
type inflightBatch struct {
	done chan struct{}
	err  error
}

// clientWindow is one client's completed-batch history: a FIFO-bounded set
// stamped with its last activity for TTL eviction.
type clientWindow struct {
	seen       map[uint64]struct{}
	order      []uint64 // insertion order, for pruning
	lastActive time.Time
}

func (w *clientWindow) add(seq uint64) {
	if _, ok := w.seen[seq]; ok {
		return
	}
	w.seen[seq] = struct{}{}
	w.order = append(w.order, seq)
	if len(w.order) > dedupWindow {
		old := w.order[0]
		w.order = w.order[1:]
		delete(w.seen, old)
	}
}

// batchDedup is the server-side at-most-once filter.
type batchDedup struct {
	mu       sync.Mutex
	clients  map[uint64]*clientWindow
	inflight map[dedupKey]*inflightBatch
	ttl      time.Duration
	now      func() time.Time // injectable clock for TTL tests
	sinceGC  int              // operations since the last TTL sweep
}

func newBatchDedup() *batchDedup {
	return &batchDedup{
		clients:  make(map[uint64]*clientWindow),
		inflight: make(map[dedupKey]*inflightBatch),
		ttl:      dedupClientTTL,
		now:      time.Now,
	}
}

// window returns (creating if needed) the client's window, stamps its
// activity, and occasionally sweeps idle clients. Callers hold d.mu.
func (d *batchDedup) window(client uint64) *clientWindow {
	w := d.clients[client]
	if w == nil {
		w = &clientWindow{seen: make(map[uint64]struct{})}
		d.clients[client] = w
	}
	w.lastActive = d.now()
	d.maybeSweepLocked()
	return w
}

// maybeSweepLocked evicts clients idle past the TTL, at most once every
// dedupSweepEvery operations. Callers hold d.mu.
func (d *batchDedup) maybeSweepLocked() {
	d.sinceGC++
	if d.sinceGC < dedupSweepEvery || d.ttl <= 0 {
		return
	}
	d.sinceGC = 0
	cutoff := d.now().Add(-d.ttl)
	for client, w := range d.clients {
		if w.lastActive.Before(cutoff) {
			delete(d.clients, client)
		}
	}
}

// claim registers intent to apply (client, seq). It returns:
//   - apply=true: the caller owns the batch and must call finish() with the
//     apply outcome.
//   - apply=false, err=nil: the batch was already applied (duplicate retry);
//     report success without re-applying.
//   - apply=false, err!=nil: a concurrent attempt applied it and failed, or
//     the wait was interrupted; surface err so the client retries.
func (d *batchDedup) claim(client, seq uint64) (apply bool, finish func(error), err error) {
	key := dedupKey{client, seq}
	d.mu.Lock()
	if w, ok := d.clients[client]; ok {
		if _, done := w.seen[seq]; done {
			w.lastActive = d.now()
			d.mu.Unlock()
			return false, nil, nil
		}
	}
	if fl, ok := d.inflight[key]; ok {
		d.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return false, nil, fmt.Errorf("cluster: concurrent attempt for batch %d/%d failed: %w", client, seq, fl.err)
		}
		return false, nil, nil
	}
	fl := &inflightBatch{done: make(chan struct{})}
	d.inflight[key] = fl
	d.mu.Unlock()
	return true, func(applyErr error) {
		d.mu.Lock()
		delete(d.inflight, key)
		if applyErr == nil {
			d.window(client).add(seq)
		}
		fl.err = applyErr
		d.mu.Unlock()
		close(fl.done)
	}, nil
}

// DedupEntry is one completed batch identity, the unit of dedup-table
// transfer during replica catch-up.
type DedupEntry struct {
	ClientID uint64
	Seq      uint64
}

// export snapshots every remembered identity, for shipping to a rejoining
// replica alongside the store snapshot. Bounded by dedupWindow per client
// and the TTL eviction of idle clients.
func (d *batchDedup) export() []DedupEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []DedupEntry
	for client, w := range d.clients {
		for _, seq := range w.order {
			out = append(out, DedupEntry{ClientID: client, Seq: seq})
		}
	}
	return out
}

// importEntries merges completed batch identities: a peer's exported table,
// so batches its snapshot already contains are recognized as duplicates
// when client retries (or the WAL tail) deliver them again, or the
// identities a restart replays from its WAL.
func (d *batchDedup) importEntries(entries []DedupEntry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range entries {
		if e.ClientID == 0 || e.Seq == 0 {
			continue
		}
		d.window(e.ClientID).add(e.Seq)
	}
}
