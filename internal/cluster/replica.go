// Replica groups: each logical shard maps to R peers instead of one, so a
// single replica loss is a non-event rather than a degraded mode. Writes
// fan out to every replica of the owning shard — the existing (ClientID,
// Seq) at-most-once identity makes all replicas converge despite
// independent retries — and succeed once any replica acknowledges; reads
// rotate across live replicas and fail over automatically on timeout,
// circuit-open, or a replica still catching up, so sampling stays exact
// with any single replica down. This mirrors what production GNN stores do
// (AliGraph replicates important vertices across servers; DistDGL
// co-locates replicated halo nodes) scaled down to whole-shard groups.
package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// staleProbeMinInterval rate-limits SyncState probes of a stale replica so
// every read does not re-probe a dead peer.
const staleProbeMinInterval = 50 * time.Millisecond

// NumShards returns the number of logical shards the client partitions
// under: the adopted shard map's hash space, or one shard per dialed
// replica group under the epoch-0 frozen placement.
func (c *Client) NumShards() int { return c.route.Load().m.NumShards }

// NumReplicas returns the replica-group size R.
func (c *Client) NumReplicas() int { return c.replicas }

// ErrReplicaNotReady is returned by read RPCs on a replica that has not yet
// converged with its group; the client treats it as a failover signal, not
// a request error.
var ErrReplicaNotReady error = &ServerError{Kind: KindNotReady, Msg: "cluster: replica not ready (catching up)"}

// failoverWorthy reports whether a per-replica error should move the read
// on to the next replica. Transport failures, open breakers, sheds and
// not-ready replicas fail over; other refusals (e.g. a negative fanout) are
// deterministic — every replica would reject them — so they surface
// immediately.
func failoverWorthy(err error) bool {
	return retryable(err) || isKind(err, KindNotReady) || IsOverloaded(err)
}

// readShard performs one read RPC against logical shard s of the route rt
// the operation partitioned under, on one live replica (readGroup).
func (c *Client) readShard(ctx context.Context, rt *clientRoute, s int, method string, args, reply wireMessage) error {
	return c.shardCall(rt, s, args, func(group []*peer, rr *atomic.Uint64) error {
		return c.readGroup(ctx, s, group, rr, method, args, reply)
	})
}

// writeShard performs one write RPC against logical shard s of the route
// rt, on every replica (writeGroup). The server-side (ClientID, Seq) dedup
// makes a re-routed delivery at-most-once even when the first attempt did
// apply before the reply was lost.
func (c *Client) writeShard(ctx context.Context, rt *clientRoute, s int, method string, args wireMessage) error {
	return c.shardCall(rt, s, args, func(group []*peer, _ *atomic.Uint64) error {
		return c.writeGroup(ctx, s, group, method, args)
	})
}

// shardCall runs call against the group that owns logical shard s under rt,
// with args stamped with s and rt's epoch, and re-routes on NotOwner (see
// reroute): args is re-stamped with the refreshed epoch before every hop,
// so a mid-call cutover costs a transparent retry instead of a failed
// operation.
func (c *Client) shardCall(rt *clientRoute, s int, args wireMessage, call func(group []*peer, rr *atomic.Uint64) error) error {
	for hop := 0; ; hop++ {
		g := rt.m.Assign[s]
		stampRoute(args, s, rt.m.Epoch)
		err := call(rt.groups[g], &rt.rr[g])
		if err == nil {
			return nil
		}
		if rt = c.reroute(rt, err, hop); rt == nil {
			return err
		}
	}
}

// reroute decides whether a shard call pinned to rt that failed with err
// may try again, and under which route. Only a NotOwner rejection, within
// maxReroutes hops, is re-routed: the client refreshes its map and retries
// under the newer one when it keeps rt's hash space. A shard id hashed under
// another NumShards (the frozen placement, when the first map is adopted)
// names different vertices there, so the operation fails with the rejection
// and the caller's next call partitions again. Returns nil to give up.
func (c *Client) reroute(rt *clientRoute, err error, hop int) *clientRoute {
	if !isKind(err, KindNotOwner) || hop >= maxReroutes {
		return nil
	}
	c.metrics.Reroutes.Inc()
	if !c.RefreshRouting(rt.m.Epoch + 1) {
		// Rejected, but no newer map visible yet: the cutover push is
		// mid-flight across the server set. Let it land.
		time.Sleep(rerouteSettleDelay)
	}
	if next := c.route.Load(); next.m.NumShards == rt.m.NumShards {
		return next
	}
	return nil
}

// readGroup performs one read RPC against a replica group, load-balancing
// across its replicas and failing over on transport failure, open breaker,
// or a replica that is still catching up. Stale replicas (ones that missed
// a write from this client) are skipped until a SyncState probe shows they
// re-synced. Returns the first success, a deterministic application error
// as soon as any replica reports one, or — when every replica failed — the
// last failover-worthy error.
func (c *Client) readGroup(ctx context.Context, s int, group []*peer, rrc *atomic.Uint64, method string, args, reply wireMessage) error {
	start := int(rrc.Add(1)-1) % len(group)
	var lastErr error
	for k := 0; k < len(group); k++ {
		pe := group[(start+k)%len(group)]
		if pe.stale.Load() && !c.tryClearStale(pe) {
			lastErr = fmt.Errorf("cluster: replica %d (shard %d) is stale", pe.idx, s)
			continue
		}
		// Only the last replica waits out an open breaker; the others fail
		// over to a sibling at once.
		err := c.callPeCtx(ctx, pe, method, args, reply, c.opts.MaxRetries, k < len(group)-1)
		if err == nil {
			return nil
		}
		if !failoverWorthy(err) {
			return err
		}
		lastErr = err
		if k < len(group)-1 {
			c.metrics.ReadFailovers.Inc()
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("cluster: shard %d has no replicas", s)
	}
	return fmt.Errorf("cluster: shard %d: all %d replicas failed: %w", s, len(group), lastErr)
}

// writeGroup fans a write out to every replica of a group concurrently. The
// write succeeds once at least one replica acknowledges; replicas that
// failed every attempt are marked stale (out of the read rotation until
// they demonstrably re-sync) rather than failing the batch — a missed write
// is repaired by WAL-shipped catch-up, not by stalling training. If every
// replica fails, the first error is returned (preferring a NotOwner
// rejection, which the caller can cure by re-routing).
//
// Each replica decodes into its own reply, made by the method's wireMethods
// row; the write's outcome is the acks alone. Already-stale replicas get a
// single attempt so a down replica does not tax every batch with a full
// retry cycle. In a group of two or more no replica waits out an open
// breaker: the write needs only one ack.
func (c *Client) writeGroup(ctx context.Context, s int, group []*peer, method string, args wireMessage) error {
	newReply := wireMethods[wireMethodID[method]].newReply
	errs := make([]error, len(group))
	var wg sync.WaitGroup
	for r, pe := range group {
		wg.Add(1)
		go func(r int, pe *peer) {
			defer wg.Done()
			budget := c.opts.MaxRetries
			if pe.stale.Load() {
				budget = 0
			}
			errs[r] = c.callPeCtx(ctx, pe, method, args, newReply(), budget, len(group) > 1)
		}(r, pe)
	}
	wg.Wait()
	acked := 0
	for _, err := range errs {
		if err == nil {
			acked++
		}
	}
	if acked == 0 {
		for _, err := range errs {
			if isKind(err, KindNotOwner) {
				return err
			}
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return fmt.Errorf("cluster: shard %d has no replicas", s)
	}
	for r, err := range errs {
		if err == nil {
			continue
		}
		if isKind(err, KindNotOwner) {
			// A routing disagreement inside the group (a push still landing),
			// not a missed write: the replica converges via its own map
			// update, so keep it in the read rotation.
			continue
		}
		c.markStale(group[r])
	}
	return nil
}

// markStale pulls a replica out of the read rotation after it missed one of
// this client's writes, and records the sync epoch it must move past to
// rejoin. A best-effort synchronous probe captures the replica's current
// epoch; if the replica is unreachable (the usual crash case) the epoch
// stays 0 and any subsequent ready state is accepted — a replicated server
// only reports ready after its boot-time catch-up.
func (c *Client) markStale(pe *peer) {
	if pe.stale.Swap(true) {
		return // already stale; keep the original epoch requirement
	}
	c.metrics.StaleMarks.Inc()
	pe.staleEpoch.Store(0)
	var reply SyncStateReply
	if err := c.callPeCtx(context.Background(), pe, "SyncState", &SyncStateArgs{}, &reply, 0, false); err == nil {
		pe.staleEpoch.Store(reply.SyncEpoch)
	}
}

// tryClearStale probes a stale replica's sync state (rate-limited) and
// clears the stale mark when the replica reports ready under a sync epoch
// different from the one recorded at the miss — i.e. it has completed a
// catch-up since. Returns whether the replica is usable for reads now.
func (c *Client) tryClearStale(pe *peer) bool {
	now := time.Now().UnixNano()
	last := pe.lastProbe.Load()
	if now-last < int64(staleProbeMinInterval) || !pe.lastProbe.CompareAndSwap(last, now) {
		return false
	}
	var reply SyncStateReply
	if err := c.callPeCtx(context.Background(), pe, "SyncState", &SyncStateArgs{}, &reply, 0, false); err != nil {
		return false
	}
	if !reply.Ready || reply.SyncEpoch == pe.staleEpoch.Load() {
		return false
	}
	pe.stale.Store(false)
	return true
}
