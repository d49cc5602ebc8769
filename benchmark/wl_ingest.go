package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"platod2gl/internal/cluster"
	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
)

// ingestMixed is writes beside reads on the same layer: one closed-loop
// writer streaming update batches into a replicated cluster that logs every
// batch, while an open-loop reader samples neighbours at a fixed rate.
type ingestMixed struct {
	e      *env
	tb     *testbed
	spec   *dataset.Spec
	gen    *dataset.Generator
	writer *cluster.Client
	reader *cluster.Client
	seeds  [][]graph.VertexID // reader seed batches, cycled
	sent   int                // forward events taken from gen so far, all applied
	reads  int
	// bpe is bytes per edge when the stream reached sizes.ingestMeasureAt:
	// at a fixed position, not at whatever position the window's end finds.
	bpe float64
}

const (
	ingestShards   = 2
	ingestReplicas = 2
	readBatches    = 64
)

func (w *ingestMixed) setup(e *env) error {
	w.e = e
	w.spec = scaled(dataset.WeChatSim(), 40*e.sz.ingestPreload)
	var err error
	if w.tb, err = bootCluster(e, ingestShards, ingestReplicas, true); err != nil {
		return err
	}
	w.writer = w.tb.dial(e, tLoad0, e.seed)
	w.reader = w.tb.dial(e, tLoad1, e.seed+1)
	w.gen = dataset.NewGenerator(w.spec, dataset.DynamicMix, e.seed)
	if err := load(w.writer, w.gen, e.sz.ingestPreload, e.sz.ingestBatch); err != nil {
		return err
	}
	w.sent = e.sz.ingestPreload
	// The reader asks about the users the stream writes to: seeds come from
	// a second generator over the same population.
	probe := dataset.NewGenerator(w.spec, dataset.InsertOnlyMix, e.seed+2)
	w.seeds = make([][]graph.VertexID, readBatches)
	for i := range w.seeds {
		evs := probe.Next(e.sz.readSeeds)
		for j := 0; j < len(evs); j += 2 { // every other event is a mirror
			if evs[j].Edge.Type == 0 {
				w.seeds[i] = append(w.seeds[i], evs[j].Edge.Src)
			}
		}
	}
	return nil
}

func (w *ingestMixed) drive(d time.Duration) *window {
	win := &window{extra: map[string]float64{}}
	tr := w.e.tr
	counted := w.tb.counts(w.reader)
	walBefore := w.walBytes()
	var wg sync.WaitGroup
	start := time.Now()

	var batchMs []float64
	var applied []finished
	var writeFails int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		until(d, func() {
			batch := w.gen.Next(w.e.sz.ingestBatch)
			w.sent += w.e.sz.ingestBatch
			req := tr.open(kRequest, tLoad0, uint32(n))
			t0 := time.Now()
			call := tr.open(kClientApply, tLoad0, uint32(len(batch)))
			err := w.writer.ApplyBatchCtx(context.Background(), batch)
			tr.close(call)
			batchMs = append(batchMs, float64(time.Since(t0))/1e6)
			tr.close(req)
			n++
			if err != nil {
				writeFails++
				return
			}
			applied = append(applied, finished{int64(time.Since(start)), int64(len(batch))})
			if w.bpe == 0 && w.sent >= w.e.sz.ingestMeasureAt {
				w.bpe = w.tb.bytesPerEdge()
			}
		})
	}()

	due := uniformSchedule(w.e.sz.readRate, d)
	base := w.reads
	arrivals := runOpenLoop(start, due, 256, func(i int) error {
		ctx, cancel := context.WithDeadline(context.Background(), start.Add(due[i]+w.e.sz.readDeadline))
		defer cancel()
		seeds := w.seeds[(base+i)%len(w.seeds)]
		call := tr.open(kClientSample, tLoad1, uint32(i))
		out, err := w.reader.SampleNeighborsCtx(ctx, seeds, 0, w.e.sz.readFanout, w.e.seed+int64(base+i))
		tr.close(call)
		if err == nil && len(out) != len(seeds)*w.e.sz.readFanout {
			err = fmt.Errorf("read returned %d ids for %d seeds", len(out), len(seeds))
		}
		return err
	})
	w.reads += len(arrivals)
	wg.Wait()
	win.wall = time.Since(start)

	var readFails int64
	for _, a := range arrivals {
		win.lat = append(win.lat, timed{end: int64(a.done), ms: float64(a.latency()) / 1e6})
		win.lagMs = append(win.lagMs, float64(a.lateness())/1e6)
		if a.err != nil || a.latency() > w.e.sz.readDeadline {
			readFails++
		}
	}
	win.done = applied
	win.attempted = int64(len(batchMs) + len(arrivals))
	win.failed = writeFails + readFails
	sort.Float64s(batchMs)
	win.extra["ingest.batch_p50_ms"] = percentile(batchMs, 0.50)
	win.extra["ingest.batch_p99_ms"] = percentile(batchMs, 0.99)
	win.extra["ingest.batches"] = float64(len(batchMs))
	win.extra["ingest.wal_bytes"] = float64(w.walBytes() - walBefore)
	counted.since(w.tb, w.reader, win.extra)
	return win
}

func (w *ingestMixed) walBytes() int64 {
	var n int64
	for _, nd := range w.tb.nodes {
		if st, err := os.Stat(nd.wal.Path()); err == nil {
			n += st.Size()
		}
	}
	return n
}

// check replays the same event stream into a plain map and requires every
// replica of every shard to hold exactly that many edges, and the replicas
// of a shard to agree on their digests.
//
// The stream is bi-directed: every event is followed by its mirror, same
// kind, ends swapped, so the map holds the forward edges and the stores must
// hold twice as many. A forward edge packs exactly into 64 bits (relation,
// source and target local ids; the vertex types follow from the relation),
// which keeps a map of several million edges cheap enough to build per run.
func (w *ingestMixed) check(*window) []string {
	const idBits = 28
	oracle := make(map[uint64]struct{})
	gen := dataset.NewGenerator(w.spec, dataset.DynamicMix, w.e.seed)
	for left := w.sent; left > 0; left -= 8192 {
		evs := gen.Next(min(left, 8192))
		for i := 0; i < len(evs); i += 2 {
			e := evs[i].Edge
			if e.Src.Local()>>idBits != 0 || e.Dst.Local()>>idBits != 0 {
				return []string{fmt.Sprintf("edge %v->%v does not pack into the oracle's key", e.Src, e.Dst)}
			}
			k := uint64(e.Type)<<(2*idBits) | e.Src.Local()<<idBits | e.Dst.Local()
			switch evs[i].Kind {
			case graph.AddEdge:
				oracle[k] = struct{}{}
			case graph.DeleteEdge:
				delete(oracle, k)
			}
		}
	}
	want := 2 * int64(len(oracle))
	var bad []string
	for r := 0; r < ingestReplicas; r++ {
		var edges int64
		for s := 0; s < ingestShards; s++ {
			edges += w.tb.nodes[s*ingestReplicas+r].store.NumEdges()
		}
		if edges != want {
			bad = append(bad, fmt.Sprintf("replica %d holds %d edges, the oracle %d", r, edges, want))
		}
	}
	// ShardDigest walks every edge it covers, so each group is compared on
	// one sixteenth of its sources, picked by the seed. Sub-shard k of
	// 16*ingestShards lies inside shard k%ingestShards: both are the same
	// hash, taken modulo.
	const slices = 16
	sub := int(uint64(w.e.seed) % slices)
	for s := 0; s < ingestShards; s++ {
		args := &cluster.DigestArgs{Shard: s + ingestShards*sub, NumShards: ingestShards * slices}
		var first cluster.DigestReply
		for r := 0; r < ingestReplicas; r++ {
			var d cluster.DigestReply
			if err := w.tb.nodes[s*ingestReplicas+r].svc.ShardDigest(args, &d); err != nil {
				bad = append(bad, fmt.Sprintf("shard %d replica %d digest: %v", s, r, err))
				continue
			}
			if r == 0 {
				first = d
			} else if d.Topology != first.Topology || d.NumEdges != first.NumEdges {
				bad = append(bad, fmt.Sprintf("shard %d: replica %d digest %x/%d edges, replica 0 %x/%d",
					s, r, d.Topology, d.NumEdges, first.Topology, first.NumEdges))
			}
		}
	}
	return bad
}

func (w *ingestMixed) bytesPerEdge() float64 {
	if w.bpe > 0 {
		return w.bpe
	}
	return w.tb.bytesPerEdge()
}

func (w *ingestMixed) layers(win *window, l *ledger, out map[string]float64) {
	batches := win.extra["ingest.batches"]
	events := float64(win.units())
	clusterLayers(w.e, w.tb, nil, l, win, batches, tLoad0, out)

	// Every event is applied once per replica.
	applyNs, applied := total(&l.dur, kStoreApply), total(&l.req, kStoreApply)
	var leaf, all float64
	for _, n := range w.tb.nodes {
		leaf += float64(n.counters.LeafUpdates.Load())
		all += float64(n.counters.LeafUpdates.Load() + n.counters.NonLeafUpdates.Load())
	}
	out["storage.apply_ns_per_event"] = ratio(applyNs, applied)
	out["storage.apply_busy_share"] = ratio(applyNs, float64(win.wall)*float64(w.e.procs))
	out["storage.leaf_update_share"] = ratio(leaf, all)
	out["cluster.apply_self_ms_per_batch"] = ratio(total(&l.self, kClientApply, tLoad0), total(&l.n, kClientApply, tLoad0)) / 1e6
	tr := w.e.tr
	out["wire.bytes_per_event"] = ratio(float64(tr.connRead[tLoad0].units.Load()+tr.connWrite[tLoad0].units.Load()), events)
	out["eventlog.append_us_per_batch"] = ratio(total(&l.dur, kWALAppend), total(&l.n, kWALAppend)) / 1e3
	out["eventlog.bytes_per_event"] = ratio(win.extra["ingest.wal_bytes"], total(&l.req, kWALAppend))
}

func (w *ingestMixed) close() {
	if w.tb != nil {
		w.tb.close()
	}
}
