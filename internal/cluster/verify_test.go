// Unit tests for the control-plane integrity check behind
// `platod2gl-rebalance verify`: whole-group digest comparison, per-shard
// divergence drill-down, and on-demand scrub rounds over RPC.
package cluster

import (
	"path/filepath"
	"testing"
	"time"

	"platod2gl/internal/core"
	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

func TestVerifyIntegrityNamesDivergedShardsAndScrubs(t *testing.T) {
	dir := t.TempDir()
	stores := make([]*storage.DynamicStore, 2)
	svcs := make([]*Service, 2)
	wals := make([]*eventlog.Writer, 2)
	lc := NewLocalClusterOptions(2, LocalOptions{
		Client: Options{Replicas: 2, Seed: 1},
		ServiceFactory: func(i int) *Service {
			st := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}})
			stores[i] = st
			svcs[i] = NewService(st, kvstore.New())
			w, err := eventlog.Create(filepath.Join(dir, LocalAddr(i)[len("mem://"):]+".wal"))
			if err != nil {
				t.Fatalf("wal %d: %v", i, err)
			}
			wals[i] = w
			svcs[i].wal = w
			return svcs[i]
		},
	})
	defer lc.Shutdown()

	// Identical baseline on both replicas.
	base := [][3]int{{1, 2, 0}, {9, 10, 1}}
	for i := range stores {
		addEdges(stores[i], base...)
		if _, err := wals[i].Append(nil); err != nil {
			t.Fatalf("wal append: %v", err)
		}
	}

	const numShards = 4
	m, err := IdentityMap([]string{LocalAddr(0), LocalAddr(1)}, 2, numShards)
	if err != nil {
		t.Fatalf("identity map: %v", err)
	}
	d := &Driver{Dial: lc.DialAddr, CallTimeout: 2 * time.Second}

	rep := d.VerifyIntegrity(m, m.Servers, false)
	if !rep.Healthy() {
		t.Fatalf("matched replicas reported unhealthy:\n%s", rep)
	}
	if len(rep.Groups) != 1 || rep.Groups[0].Mismatch {
		t.Fatalf("unexpected groups: %+v", rep.Groups)
	}

	// Replica 1 misses one batch: replica 0 gets an extra edge and a WAL
	// append it never saw. The drill-down must name exactly that edge's
	// source shard.
	const missed = graph.VertexID(5)
	addEdges(stores[0], [3]int{int(missed), 6, 0})
	if _, err := wals[0].Append(nil); err != nil {
		t.Fatalf("wal append: %v", err)
	}
	rep = d.VerifyIntegrity(m, m.Servers, false)
	if rep.Healthy() {
		t.Fatal("diverged replicas reported healthy")
	}
	g := rep.Groups[0]
	if !g.Mismatch {
		t.Fatalf("mismatch not flagged: %+v", g)
	}
	want := ShardOf(missed, numShards)
	if len(g.BadShards) != 1 || g.BadShards[0] != want {
		t.Fatalf("diverged shards = %v, want [%d]", g.BadShards, want)
	}

	// Scrub without a scrubber installed must fail the check loudly, not
	// silently pass.
	rep = d.VerifyIntegrity(m, m.Servers, true)
	if len(rep.Scrubs) != 2 {
		t.Fatalf("scrubs = %d, want 2", len(rep.Scrubs))
	}
	for _, s := range rep.Scrubs {
		if s.Err == "" {
			t.Fatalf("scrub on %s succeeded with no scrubber installed", s.Addr)
		}
	}

	// With scrubbers installed, the requested rounds run over RPC: the
	// lagging replica repairs itself from its peer, the advanced replica
	// holds state, and the group converges.
	for i, svc := range svcs {
		svc.SetScrubber(NewScrubber(svc, ScrubConfig{
			Self:        LocalAddr(i),
			Peers:       []string{LocalAddr(0), LocalAddr(1)},
			Dial:        lc.DialAddr,
			CallTimeout: 2 * time.Second,
			SettleDelay: 10 * time.Millisecond,
			AutoRepair:  true,
			Logf:        t.Logf,
		}))
	}
	rep = d.VerifyIntegrity(m, m.Servers, true)
	if rep.Healthy() {
		t.Fatal("round that repaired state must report unhealthy")
	}
	repaired := 0
	for _, s := range rep.Scrubs {
		if s.Err != "" {
			t.Fatalf("scrub on %s: %s", s.Addr, s.Err)
		}
		if s.Report.Repaired {
			if s.Addr != LocalAddr(1) {
				t.Fatalf("advanced replica %s repaired itself", s.Addr)
			}
			repaired++
		}
	}
	if repaired != 1 {
		t.Fatalf("repaired rounds = %d, want 1", repaired)
	}
	// After the repair, a fresh verification is clean.
	rep = d.VerifyIntegrity(m, m.Servers, true)
	if !rep.Healthy() {
		t.Fatalf("post-repair cluster still unhealthy:\n%s", rep)
	}
}

func TestScrubTieBreakOnEqualWALPositions(t *testing.T) {
	// Replicas that applied every write but in different interleavings end
	// up with equal WAL positions and differing digests. Neither is "more
	// correct"; the tie-break must converge them deterministically — the
	// lexically smallest address holds, the other rebuilds from it —
	// instead of both holding forever.
	dir := t.TempDir()
	stores := make([]*storage.DynamicStore, 2)
	svcs := make([]*Service, 2)
	lc := NewLocalClusterOptions(2, LocalOptions{
		Client: Options{Replicas: 2, Seed: 1},
		ServiceFactory: func(i int) *Service {
			st := storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}})
			stores[i] = st
			svcs[i] = NewService(st, kvstore.New())
			w, err := eventlog.Create(filepath.Join(dir, LocalAddr(i)[len("mem://"):]+".wal"))
			if err != nil {
				t.Fatalf("wal %d: %v", i, err)
			}
			if _, err := w.Append(nil); err != nil {
				t.Fatalf("wal append: %v", err)
			}
			svcs[i].wal = w
			return svcs[i]
		},
	})
	defer lc.Shutdown()

	// Same writes, different effective order: an add/delete race resolved
	// differently on each side. Equal WAL seq, differing digests.
	addEdges(stores[0], [3]int{1, 2, 0}, [3]int{5, 6, 0})
	addEdges(stores[1], [3]int{1, 2, 0}, [3]int{7, 8, 0})

	newScrub := func(i int) *Scrubber {
		sc := NewScrubber(svcs[i], ScrubConfig{
			Self:        LocalAddr(i),
			Peers:       []string{LocalAddr(0), LocalAddr(1)},
			Dial:        lc.DialAddr,
			CallTimeout: 2 * time.Second,
			SettleDelay: 10 * time.Millisecond,
			AutoRepair:  true,
			Logf:        t.Logf,
		})
		svcs[i].SetScrubber(sc)
		return sc
	}
	sc0, sc1 := newScrub(0), newScrub(1)

	// mem://0 sorts first: it holds.
	if rep := sc0.RunRound(); rep.Diverged || rep.Repaired {
		t.Fatalf("tie winner did not hold: %+v", rep)
	}
	// mem://1 yields and rebuilds from mem://0.
	rep := sc1.RunRound()
	if !rep.Diverged || rep.RepairPeer != LocalAddr(0) || !rep.Repaired {
		t.Fatalf("tie loser did not repair from winner: %+v", rep)
	}
	d0, err := svcs[0].localDigest(-1, 0)
	if err != nil {
		t.Fatalf("digest 0: %v", err)
	}
	d1, err := svcs[1].localDigest(-1, 0)
	if err != nil {
		t.Fatalf("digest 1: %v", err)
	}
	if d0.Topology != d1.Topology || d0.Attrs != d1.Attrs {
		t.Fatalf("tie-break did not converge: %+v vs %+v", d0, d1)
	}
}

func TestVerifyIntegrityUngroupedCluster(t *testing.T) {
	stores := make([]*storage.DynamicStore, 2)
	lc := NewLocalClusterOptions(2, LocalOptions{
		Client: Options{Replicas: 1, Seed: 1},
		StoreFactory: func(i int) (storage.TopologyStore, *kvstore.Store) {
			stores[i] = storage.NewDynamicStore(storage.Options{Tree: core.Options{Capacity: 16}})
			return stores[i], kvstore.New()
		},
	})
	defer lc.Shutdown()
	addEdges(stores[0], [3]int{1, 2, 0})

	d := &Driver{Dial: lc.DialAddr, CallTimeout: 2 * time.Second}
	// No shard map: every server is its own group of one; nothing compares,
	// so deliberately different stores still verify healthy.
	rep := d.VerifyIntegrity(nil, []string{LocalAddr(0), LocalAddr(1)}, false)
	if !rep.Healthy() {
		t.Fatalf("ungrouped cluster unhealthy:\n%s", rep)
	}
	if len(rep.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(rep.Groups))
	}
	if rep.Groups[0].Members[0].Digest.Topology == rep.Groups[1].Members[0].Digest.Topology {
		t.Fatal("distinct stores produced equal digests")
	}
}
