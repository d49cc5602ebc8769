package main

import (
	"time"

	"platod2gl/internal/cluster"
	"platod2gl/internal/graph"
)

// clientCallKinds are the spans that wrap one call into the fan-out client.
var clientCallKinds = []kind{kViewSubgraph, kViewNeighbors, kViewFeatures, kViewLabels, kViewOther, kClientApply, kClientSample}

// counts is the part of the public cluster.Metrics the benchmark reports,
// summed over a testbed's clients and servers.
type counts struct {
	retries, shed, coalesced int64
}

// counts reads the counters: retries and sheds over every client and server,
// coalesced seeds for the client whose requests the window measures.
func (tb *testbed) counts(measured *cluster.Client) counts {
	var c counts
	for _, cl := range tb.clients {
		s := cl.Metrics().Snapshot()
		c.retries += s.RPCRetries
		c.shed += s.ShedSeen
	}
	c.coalesced = measured.Metrics().Snapshot().CoalescedSeeds
	for _, n := range tb.nodes {
		c.shed += n.metrics.Snapshot().RequestsShed
	}
	return c
}

// since stores what the counters moved by during a window.
func (c counts) since(tb *testbed, measured *cluster.Client, extra map[string]float64) {
	now := tb.counts(measured)
	extra["cluster.retries"] = float64(now.retries - c.retries)
	extra["cluster.shed"] = float64(now.shed - c.shed)
	extra["cluster.coalesced_seeds"] = float64(now.coalesced - c.coalesced)
}

// clusterLayers fills in what the view, client, wire, server and attribute
// store layers did in a traced window, for the client that records on track
// tk. batches is how many of the workload's own units (training batches,
// write batches, queries) the window completed through that client.
func clusterLayers(e *env, tb *testbed, tv *tracedView, l *ledger, win *window, batches float64, tk track, out map[string]float64) {
	tr := e.tr
	var calls, callNs, callSelf float64
	for _, k := range clientCallKinds {
		calls += total(&l.n, k, tk)
		callNs += total(&l.dur, k, tk)
		callSelf += total(&l.self, k, tk)
	}
	out["cluster.client_self_us_per_call"] = ratio(callSelf, calls) / 1e3
	out["cluster.calls_per_batch"] = ratio(total(&l.n, kConnRTT, tk), batches)
	out["wire.bytes_per_batch"] = ratio(float64(tr.connRead[tk].units.Load()+tr.connWrite[tk].units.Load()), batches)
	out["wire.frames_per_batch"] = ratio(float64(tr.connFrames[tk].Load()), batches)
	out["wire.read_wait_share"] = ratio(callNs-callSelf, callNs)

	out["view.sample_subgraph_ms"] = ratio(total(&l.dur, kViewSubgraph, tk), total(&l.n, kViewSubgraph, tk)) / 1e6
	out["view.features_ms"] = ratio(total(&l.dur, kViewFeatures, tk), total(&l.n, kViewFeatures, tk)) / 1e6
	out["view.labels_ms"] = ratio(total(&l.dur, kViewLabels, tk), total(&l.n, kViewLabels, tk)) / 1e6

	var kvNs float64
	if tv != nil {
		tv.mu.Lock()
		rows, seeds, sent := float64(tv.featRows), float64(tv.subSeeds), float64(tv.sampleSeeds)
		tv.mu.Unlock()
		out["view.feature_rows_per_seed"] = ratio(rows, seeds)
		out["view.dup_row_share"] = tv.dupRowShare()
		out["kvstore.rows_per_batch"] = ratio(rows, batches)
		perRow := tb.gatherNsPerRow(tv, e.sz.dim)
		out["kvstore.gather_ns_per_row"] = perRow
		kvNs = perRow * rows
		out["cluster.coalesced_seed_share"] = ratio(win.extra["cluster.coalesced_seeds"], sent)
	}

	// What a server's connections were busy with, less the time inside the
	// stores they call: dispatch, admission, decode and encode.
	storeNs := float64(tr.storeSample.ns.Load()+tr.storeRead.ns.Load()) +
		total(&l.dur, kStoreApply) + total(&l.dur, kWALAppend) + kvNs
	out["cluster.server_self_us_per_call"] = ratio(total(&l.dur, kServerBusy)-storeNs, total(&l.n, kServerBusy)) / 1e3

	sampleNs := float64(tr.storeSample.ns.Load())
	cpu := float64(win.wall) * float64(e.procs)
	out["storage.sample_ns_per_draw"] = ratio(sampleNs, float64(tr.storeSample.units.Load()))
	out["storage.sample_busy_share"] = ratio(sampleNs, cpu)
	var mem float64
	for _, n := range tb.primaries() {
		mem += float64(n.store.MemoryBytes())
	}
	out["storage.mem_bytes"] = mem
}

// gatherNsPerRow replays the feature id lists the view wrapper kept straight
// against the servers' attribute stores, split by owning shard as the client
// splits them, and returns the time per row.
func (tb *testbed) gatherNsPerRow(tv *tracedView, dim int) float64 {
	tv.mu.Lock()
	lists := tv.featLists
	tv.mu.Unlock()
	shards := len(tb.nodes) / tb.replicas
	parts := make([][]graph.VertexID, shards)
	var ns, rows int64
	for _, list := range lists {
		for s := range parts {
			parts[s] = parts[s][:0]
		}
		for _, id := range list {
			s := cluster.ShardOf(id, shards)
			parts[s] = append(parts[s], id)
		}
		for s, part := range parts {
			t0 := time.Now()
			tb.nodes[s*tb.replicas].attrs.GatherFeatures(part, dim)
			ns += int64(time.Since(t0))
			rows += int64(len(part))
		}
	}
	return ratio(float64(ns), float64(rows))
}
