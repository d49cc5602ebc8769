// State transfer: replica catch-up (SyncFromPeer), scrub repair (which runs
// the catch-up) and shard migration (PullShard) copy a peer's state through
// the same three steps. forEachSource walks topology per source (also the
// walk of the topology digest and of DropShard); transfer.drainStep applies
// one verified chunk of the peer's WAL tail, every event or one shard's;
// FetchAttrs exports attributes, the whole store or one shard, checksummed
// end to end, and transfer.pullAttrs verifies them before import. The
// callers differ only in what they start from and in when a drain is done:
// catch-up waits for a quiet window under parked writes, a migration pull
// for a WAL position.
package cluster

import (
	"fmt"
	"time"

	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

// forEachSource calls fn once per (relation, source) of the store, with the
// source's neighbors and weights; shard >= 0 restricts the walk to that
// logical shard under numShards. A source the store lists twice (the
// samtree can transiently hold a source run in two leaves) is visited once:
// Neighbors is a key lookup, so both occurrences resolve to the same full
// list. Callers hold whatever lock their walk needs.
func forEachSource(store storage.TopologyStore, shard, numShards int,
	fn func(et graph.EdgeType, src graph.VertexID, nbrs []graph.VertexID, weights []float64)) error {
	rs, ok := store.(interface {
		AllStats() []storage.RelationStats
	})
	if !ok {
		return fmt.Errorf("cluster: store %T cannot enumerate its relations", store)
	}
	seen := make(map[graph.VertexID]struct{})
	for _, st := range rs.AllStats() {
		et := st.Type
		clear(seen)
		for _, src := range store.Sources(et) {
			if shard >= 0 && ShardOf(src, numShards) != shard {
				continue
			}
			if _, dup := seen[src]; dup {
				continue
			}
			seen[src] = struct{}{}
			nbrs, weights := store.Neighbors(src, et)
			fn(et, src, nbrs, weights)
		}
	}
	return nil
}

// inShard reports whether a vertex hashes into shard under numShards.
func inShard(shard, numShards int) func(graph.VertexID) bool {
	return func(id graph.VertexID) bool { return ShardOf(id, numShards) == shard }
}

// ---------------------------------------------------------------------------
// Attribute export.

// AttrsArgs selects an attribute export. Shard < 0 exports the whole store,
// as in DigestArgs; Shard >= 0 exports one logical shard of the installed
// map, which this server must own.
type AttrsArgs struct {
	Shard int
}

// AttrsReply carries vertex features, labels, and edge features. Nodes
// aligns with RowLens (0 = the node has a label but no feature vector),
// Labels, and HasLabel, and Data concatenates the rows; EdgeLens aligns with
// EdgeKeys, and EdgeData concatenates their rows. Sum checksums the rest
// (checksumFeatures).
type AttrsReply struct {
	Nodes    []graph.VertexID
	RowLens  []int32
	Data     []float32
	Labels   []int32
	HasLabel []bool
	EdgeKeys []kvstore.EdgeKey
	EdgeLens []int32
	EdgeData []float32
	Sum      uint64
}

// approxBytes sizes the export for metrics.
func (r *AttrsReply) approxBytes() int64 {
	return approxIDs(len(r.Nodes)) + approxFloats(len(r.Data)+len(r.EdgeData)) +
		approxLabels(len(r.Labels)) + int64(len(r.EdgeKeys))*17
}

// collect appends the rows of every vertex, and every edge by its source,
// that keep accepts (nil: all). A nil store exports nothing.
func (r *AttrsReply) collect(attrs *kvstore.Store, keep func(graph.VertexID) bool) {
	if attrs == nil {
		return
	}
	attrs.RangeVertices(func(id graph.VertexID, features []float32, label int32, hasLabel bool) bool {
		if keep == nil || keep(id) {
			r.Nodes = append(r.Nodes, id)
			r.RowLens = append(r.RowLens, int32(len(features)))
			r.Data = append(r.Data, features...)
			r.Labels = append(r.Labels, label)
			r.HasLabel = append(r.HasLabel, hasLabel)
		}
		return true
	})
	attrs.RangeEdges(func(k kvstore.EdgeKey, features []float32) bool {
		if keep == nil || keep(k.Src) {
			r.EdgeKeys = append(r.EdgeKeys, k)
			r.EdgeLens = append(r.EdgeLens, int32(len(features)))
			r.EdgeData = append(r.EdgeData, features...)
		}
		return true
	})
}

// aligned reports whether the per-row slices line up with their keys and
// the row lengths cover the concatenated data exactly: what
// checksumFeatures and importAttrs index by.
func (r *AttrsReply) aligned() bool {
	n := len(r.Nodes)
	return len(r.RowLens) == n && len(r.Labels) == n && len(r.HasLabel) == n &&
		len(r.EdgeLens) == len(r.EdgeKeys) &&
		rowsCover(r.RowLens, len(r.Data)) && rowsCover(r.EdgeLens, len(r.EdgeData))
}

// rowsCover reports whether non-negative row lengths sum to total.
func rowsCover(lens []int32, total int) bool {
	sum := 0
	for _, l := range lens {
		if l < 0 {
			return false
		}
		sum += int(l)
	}
	return sum == total
}

// FetchAttrs exports attribute state under a write quiesce, checksummed.
// Catch-up and repair pull the whole store after their final drain, since
// the topology WAL does not cover attributes. A migration pulls its shard
// after ParkShard, whose barrier has drained every in-flight feature write:
// the feature path has no WAL, so the park is the only loss-free window.
func (s *Service) FetchAttrs(args *AttrsArgs, reply *AttrsReply) error {
	var keep func(graph.VertexID) bool
	if args.Shard >= 0 {
		rt, err := s.shardRouting("export attributes of", args.Shard)
		if err != nil {
			return err
		}
		if !rt.owned[args.Shard] {
			return notOwnerError(args.Shard, rt.m.Epoch)
		}
		keep = inShard(args.Shard, rt.m.NumShards)
	}
	resume := s.Pause()
	defer resume()
	reply.collect(s.attrs, keep)
	reply.Sum = checksumFeatures(reply)
	return nil
}

// importAttrs merges an attribute export into this server's attribute
// store. Rows are copied (the decoded reply's backing arrays are shared).
func (s *Service) importAttrs(r *AttrsReply) {
	if s.attrs == nil {
		return
	}
	off := 0
	for i, id := range r.Nodes {
		n := int(r.RowLens[i])
		if n > 0 {
			row := make([]float32, n)
			copy(row, r.Data[off:off+n])
			s.attrs.SetFeatures(id, row)
			off += n
		}
		if r.HasLabel[i] {
			s.attrs.SetLabel(id, r.Labels[i])
		}
	}
	off = 0
	for i, k := range r.EdgeKeys {
		n := int(r.EdgeLens[i])
		row := make([]float32, n)
		copy(row, r.EdgeData[off:off+n])
		s.attrs.SetEdgeFeatures(k, row)
		off += n
	}
}

// ---------------------------------------------------------------------------
// The receiving side.

const (
	// defaultSyncBatches is the WAL-tail chunk a drain step asks for.
	defaultSyncBatches = 256
	// syncTailPollDelay is the wait before re-fetching after a fetch found
	// the peer's writer ahead but no complete frame readable (an append in
	// flight); syncTailMaxPolls bounds how long that state may persist.
	syncTailPollDelay = 5 * time.Millisecond
	syncTailMaxPolls  = 400
)

// transfer is one state copy from a peer into svc: its connection, where
// its checksum failures are counted, the shard it keeps (shard < 0: all),
// and the drained WAL position with what the drain applied.
type transfer struct {
	svc     *Service
	tc      *wireTransport
	timeout time.Duration
	metrics *Metrics

	shard, numShards int

	after   uint64 // WAL position drained so far
	polls   int    // consecutive fetches that found an append in flight
	batches int64  // records applied
	bytes   int64  // approximate payload applied
}

// dialTransfer connects a transfer into svc to the peer behind dial.
func dialTransfer(svc *Service, dial Dialer, timeout time.Duration, m *Metrics, shard, numShards int) (*transfer, error) {
	tc, err := dialTransport(dial, timeout, m)
	if err != nil {
		return nil, err
	}
	return &transfer{svc: svc, tc: tc, timeout: timeout, metrics: m, shard: shard, numShards: numShards}, nil
}

func (t *transfer) close() { t.tc.Close() }

func (t *transfer) call(method string, args, reply wireMessage) error {
	return t.tc.Call(method, args, reply, t.timeout, callEnv{})
}

// drainStep fetches the peer's next WAL chunk past t.after, verifies it, and
// applies its records through the at-most-once batch path, keeping only the
// transfer's shard when it has one (a record left empty is skipped). It
// returns the records fetched and the peer's writer position; the caller
// decides from them whether the drain is done. A fetch that finds the writer
// ahead but no record counts toward the stall bound, and the next step waits
// syncTailPollDelay before fetching.
func (t *transfer) drainStep() (int, uint64, error) {
	if t.polls > 0 {
		time.Sleep(syncTailPollDelay)
	}
	var tail WALTailReply
	if err := t.call("FetchWALTail", &WALTailArgs{AfterSeq: t.after, MaxBatches: defaultSyncBatches}, &tail); err != nil {
		return 0, 0, fmt.Errorf("cluster: fetch wal tail after %d: %w", t.after, err)
	}
	if err := verifySum(t.metrics, "FetchWALTail records", checksumRecords(tail.Records), tail.Sum); err != nil {
		return 0, 0, err
	}
	if tail.WriterSeq < t.after {
		return 0, 0, fmt.Errorf("%w: writer at %d, stream at %d", ErrSyncWALReset, tail.WriterSeq, t.after)
	}
	for i := range tail.Records {
		rec := &tail.Records[i]
		evs := rec.Events
		if t.shard >= 0 {
			if evs = filterShard(evs, t.shard, t.numShards); len(evs) == 0 {
				continue
			}
		}
		var reply BatchReply
		if err := t.svc.applyEvents(&BatchArgs{Events: evs, ClientID: rec.ClientID, Seq: rec.ClientSeq}, &reply); err != nil {
			return 0, 0, fmt.Errorf("cluster: apply wal record %d: %w", rec.Seq, err)
		}
		t.batches++
		t.bytes += approxEvents(len(evs))
	}
	if n := len(tail.Records); n > 0 {
		t.after = tail.EndSeq
		t.polls = 0
		return n, tail.WriterSeq, nil
	}
	if tail.WriterSeq > t.after {
		t.polls++
		if t.polls > syncTailMaxPolls {
			return 0, 0, fmt.Errorf("cluster: wal tail stalled at %d (writer at %d)", t.after, tail.WriterSeq)
		}
	}
	return 0, tail.WriterSeq, nil
}

// pullAttrs fetches the peer's attribute export for the transfer's shard
// (or whole store), verifies its checksum, and merges it into svc. A
// payload that fails verification imports nothing. Returns its size.
func (t *transfer) pullAttrs() (int64, error) {
	var attrs AttrsReply
	if err := t.call("FetchAttrs", &AttrsArgs{Shard: t.shard}, &attrs); err != nil {
		return 0, fmt.Errorf("cluster: fetch attrs: %w", err)
	}
	if err := verifySum(t.metrics, "FetchAttrs payload", checksumFeatures(&attrs), attrs.Sum); err != nil {
		return 0, err
	}
	t.svc.importAttrs(&attrs)
	return attrs.approxBytes(), nil
}
