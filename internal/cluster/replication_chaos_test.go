// Replication chaos suite: replica groups under replica kills and rejoins.
// The invariants: (1) with any single replica of each shard down, writes
// keep succeeding and sampling stays exact — correct neighbors, no degraded
// self-fills, no errors; (2) a killed replica that rejoins via snapshot +
// WAL-tail catch-up converges to a store whose topology is byte-identical
// to its live sibling's and to a shard-filtered single-store oracle, with
// edge weights equal up to Fenwick reconstruction rounding.
package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"platod2gl/internal/core"
	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

// canonicalDump renders a store's topology in a canonical order (relations,
// sources, and neighbor IDs all ascending — samtree leaves are physically
// unordered), so two stores hold identical topology iff their dumps are
// byte-equal. Weights are deliberately excluded: FSTable leaves store
// Fenwick partial sums and reconstruct raw weights by subtraction, so two
// stores holding the same logical graph via different operation histories
// (direct writes vs snapshot+WAL rebuild) agree only up to accumulated
// float64 rounding — weightsMatch checks them with a tolerance instead.
// keep filters sources (nil keeps all) — how the whole-graph oracle is
// projected onto one shard. Zero-degree sources are skipped: a replica
// rebuilt from a snapshot has no empty tree entries for edges deleted
// before the snapshot, while a directly-written one does, and both are the
// same graph. Every dump first checks the store's samtree invariants
// (storage.DynamicStore.CheckInvariants), so each convergence point also
// proves the sub-tree sums and routing keys survived the drill.
func canonicalDump(t testing.TB, st *storage.DynamicStore, keep func(graph.VertexID) bool) []byte {
	t.Helper()
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("samtree invariants: %v", err)
	}
	var buf bytes.Buffer
	stats := st.AllStats()
	types := make([]graph.EdgeType, 0, len(stats))
	for _, rs := range stats {
		types = append(types, rs.Type)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, et := range types {
		srcs := st.Sources(et)
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		for _, src := range srcs {
			if keep != nil && !keep(src) {
				continue
			}
			ids, _ := st.Neighbors(src, et)
			if len(ids) == 0 {
				continue
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			fmt.Fprintf(&buf, "t%d s%d:", et, src)
			for _, id := range ids {
				fmt.Fprintf(&buf, " %d", id)
			}
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// weightTol is the allowed relative deviation between two stores' weights
// for the same edge. Reconstructing a weight from an FSTable's Fenwick sums
// loses a few ULPs per update, so ~1e-12 of drift accumulates; any real
// divergence (a missed or double-applied update) moves a weight by ~0.1.
const weightTol = 1e-9

// weightsMatch asserts every kept edge carries the same weight in got as in
// want, within weightTol.
func weightsMatch(t *testing.T, label string, got, want *storage.DynamicStore, keep func(graph.VertexID) bool) {
	t.Helper()
	for _, rs := range want.AllStats() {
		et := rs.Type
		for _, src := range want.Sources(et) {
			if keep != nil && !keep(src) {
				continue
			}
			ids, ws := want.Neighbors(src, et)
			gids, gws := got.Neighbors(src, et)
			gw := make(map[graph.VertexID]float64, len(gids))
			for i, id := range gids {
				gw[id] = gws[i]
			}
			for i, id := range ids {
				g, ok := gw[id]
				if !ok {
					t.Fatalf("%s: edge %d->%d (type %d) missing", label, src, id, et)
				}
				if d := g - ws[i]; d > weightTol || d < -weightTol {
					t.Fatalf("%s: edge %d->%d (type %d) weight %v, want %v", label, src, id, et, g, ws[i])
				}
			}
		}
	}
}

// TestChaosReplicaFailoverAndCatchUp is the replication acceptance test:
// a 2-shard x 2-replica cluster under a dynamic event stream; one replica
// per shard is killed mid-run (writes keep flowing on single acks, reads
// fail over), then restarted with an empty store to rejoin via SyncFromPeer
// while traffic continues. At the end every replica must hold the oracle's
// exact topology for its shard (and weights within tolerance), both replicas
// of a shard must hold the same attributes, and sampling must be exact
// throughout.
func TestChaosReplicaFailoverAndCatchUp(t *testing.T) {
	const (
		shards   = 2
		replicas = 2
		peers    = shards * replicas
	)
	dir := t.TempDir()
	walPath := func(i int) string { return filepath.Join(dir, fmt.Sprintf("peer%d.wal", i)) }
	storeOpts := storage.Options{Tree: core.Options{Capacity: 16}}

	metrics := &Metrics{}
	var (
		lc        *LocalCluster
		mu        sync.Mutex
		restarted = make([]bool, peers)
		catchups  sync.WaitGroup
	)
	factory := func(i int) *Service {
		mu.Lock()
		rejoin := restarted[i]
		mu.Unlock()
		if rejoin {
			// A rejoining replica rebuilds from its live sibling, not from its
			// own stale history: empty store, fresh WAL.
			os.Remove(walPath(i))
		}
		svc := NewService(storage.NewDynamicStore(storeOpts), kvstore.New())
		svc.SetMetrics(metrics)
		openDurable(t, svc, "", walPath(i))
		if rejoin {
			svc.BeginCatchUp()
			sibling := i ^ 1 // same group, other replica (consecutive grouping, R=2)
			catchups.Add(1)
			go func() {
				defer catchups.Done()
				_, err := SyncFromPeer(svc, lc.Dialer(sibling), SyncOptions{
					CallTimeout: 10 * time.Second,
					Metrics:     metrics,
				})
				if err != nil {
					t.Errorf("peer %d catch-up from %d: %v", i, sibling, err)
				}
			}()
		}
		return svc
	}

	lc = NewLocalClusterOptions(peers, LocalOptions{
		Client: Options{
			CallTimeout:      2 * time.Second,
			MaxRetries:       3,
			RetryBaseDelay:   time.Millisecond,
			RetryMaxDelay:    10 * time.Millisecond,
			BreakerThreshold: 6,
			BreakerCooldown:  10 * time.Millisecond,
			Replicas:         replicas,
			Metrics:          metrics,
			Seed:             1,
		},
		ServiceFactory: factory,
	})
	defer lc.Shutdown()
	client := lc.Client()
	if client.NumShards() != shards || client.NumReplicas() != replicas {
		t.Fatalf("topology = %dx%d, want %dx%d", client.NumShards(), client.NumReplicas(), shards, replicas)
	}

	oracle := storage.NewDynamicStore(storeOpts)
	gen := dataset.NewGenerator(dataset.OGBNSim().Scale(2e-5), dataset.DynamicMix, 13)
	applyBoth := func(n int) {
		if err := applyToBoth(client, oracle, gen.Next(n)); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	probeSeeds := make([]graph.VertexID, 64)
	for i := range probeSeeds {
		probeSeeds[i] = graph.VertexID(i)
	}

	// verifyExact asserts (against a quiescent oracle) that degrees match
	// exactly and every sampled neighbor is a true neighbor — a degraded
	// self-fill for a vertex with out-edges would fail the membership check.
	verifyExact := func(phase string) {
		t.Helper()
		const fanout = 4
		for _, rs := range oracle.AllStats() {
			et := rs.Type
			srcs := oracle.Sources(et)
			if len(srcs) > 150 {
				srcs = srcs[:150]
			}
			degs, err := client.Degree(srcs, et)
			if err != nil {
				t.Fatalf("%s: degree: %v", phase, err)
			}
			samples, err := client.SampleNeighbors(srcs, et, fanout, 12345)
			if err != nil {
				t.Fatalf("%s: sample: %v", phase, err)
			}
			for i, src := range srcs {
				if want := oracle.Degree(src, et); degs[i] != want {
					t.Fatalf("%s: degree(%v, %d) = %d, want %d", phase, src, et, degs[i], want)
				}
				ids, _ := oracle.Neighbors(src, et)
				set := make(map[graph.VertexID]bool, len(ids))
				for _, id := range ids {
					set[id] = true
				}
				for j := 0; j < fanout; j++ {
					got := samples[i*fanout+j]
					if len(ids) == 0 {
						if got != src {
							t.Fatalf("%s: empty seed %v sampled %v, want self", phase, src, got)
						}
					} else if !set[got] {
						t.Fatalf("%s: seed %v sampled %v — not a neighbor (degraded fill?)", phase, src, got)
					}
				}
			}
		}
	}

	// Phase 1: healthy cluster accumulates state, attributes included.
	for b := 0; b < 6; b++ {
		applyBoth(800)
	}
	verifyExact("healthy")
	featNodes := make([]graph.VertexID, 256)
	featData := make([]float32, 3*len(featNodes))
	featLabels := make([]int32, len(featNodes))
	for i := range featNodes {
		featNodes[i] = graph.VertexID(i)
		featData[3*i], featData[3*i+1], featData[3*i+2] = float32(i), 0.5, -float32(i)
		featLabels[i] = int32(i % 7)
	}
	if err := client.SetFeatures(featNodes, 3, featData, featLabels); err != nil {
		t.Fatalf("set features: %v", err)
	}

	// Phase 2: kill replica 1 of every shard mid-run. Writes must keep
	// succeeding on the surviving replica's ack, reads must fail over, and
	// sampling must stay exact — not degraded.
	for s := 0; s < shards; s++ {
		lc.StopShard(s*replicas + 1)
	}
	for b := 0; b < 6; b++ {
		applyBoth(800)
		if _, err := client.SampleNeighbors(probeSeeds, 0, 4, int64(b)); err != nil {
			t.Fatalf("sampling with one replica per shard down: %v", err)
		}
	}
	verifyExact("one replica per shard down")
	if got := metrics.Snapshot().StaleMarks; got < int64(shards) {
		t.Fatalf("StaleMarks = %d after killing %d replicas under writes", got, shards)
	}

	// Phase 3: restart the killed replicas; they rejoin empty and catch up
	// from their siblings via snapshot + WAL tail while traffic continues.
	for s := 0; s < shards; s++ {
		i := s*replicas + 1
		mu.Lock()
		restarted[i] = true
		mu.Unlock()
		lc.RestartShard(i)
	}
	for b := 0; b < 6; b++ {
		applyBoth(800)
	}
	catchups.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// A little post-rejoin traffic lands on both replicas directly.
	for b := 0; b < 2; b++ {
		applyBoth(800)
	}

	// The rejoined replicas must be ready and re-enter the read rotation:
	// reads probe stale peers (rate-limited), so poll until health clears.
	for s := 0; s < shards; s++ {
		i := s*replicas + 1
		svc := lc.Service(i)
		if svc == nil || !svc.Ready() {
			t.Fatalf("peer %d not ready after catch-up", i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		stale := 0
		if _, err := client.SampleNeighbors(probeSeeds, 0, 4, 7); err != nil {
			t.Fatalf("post-rejoin sampling: %v", err)
		}
		for _, h := range client.Health() {
			if h.Stale {
				stale++
			}
		}
		if stale == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d replicas still stale after rejoin: %+v", stale, client.Health())
		}
		time.Sleep(20 * time.Millisecond)
	}
	verifyExact("after rejoin")

	// Catch-up ships attributes: each rejoined replica holds its sibling's
	// feature and label state, not just its topology.
	emptyAttrs := kvstore.New().Digest()
	for s := 0; s < shards; s++ {
		var d [replicas]DigestReply
		for r := range d {
			if err := lc.Service(s*replicas+r).ShardDigest(&DigestArgs{Shard: -1}, &d[r]); err != nil {
				t.Fatalf("shard %d replica %d digest: %v", s, r, err)
			}
		}
		if d[0].Attrs == emptyAttrs || d[0].Attrs != d[1].Attrs {
			t.Fatalf("shard %d attribute digests %016x / %016x (empty store %016x): catch-up did not copy attributes",
				s, d[0].Attrs, d[1].Attrs, emptyAttrs)
		}
	}

	// Convergence: each replica's topology must be byte-identical to the
	// oracle's projection onto its shard (hence to its sibling's), and every
	// edge weight must match within Fenwick reconstruction tolerance.
	for s := 0; s < shards; s++ {
		shard := s
		keep := func(src graph.VertexID) bool { return ShardOf(src, client.NumShards()) == shard }
		want := canonicalDump(t, oracle, keep)
		for r := 0; r < replicas; r++ {
			st := lc.Service(s*replicas + r).store.(*storage.DynamicStore)
			got := canonicalDump(t, st, nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("shard %d replica %d topology diverged from oracle (%d vs %d bytes)", s, r, len(got), len(want))
			}
			weightsMatch(t, fmt.Sprintf("shard %d replica %d", s, r), st, oracle, keep)
		}
	}

	snap := metrics.Snapshot()
	if snap.CatchUps != shards {
		t.Fatalf("CatchUps = %d, want %d", snap.CatchUps, shards)
	}
	if snap.CatchUpBytes == 0 || snap.SnapshotsServed != shards {
		t.Fatalf("catch-up traffic not accounted: %+v", snap)
	}
	t.Logf("metrics: %s", snap)
}
