package cluster

import (
	"math/rand"
	"slices"
	"testing"

	"platod2gl/internal/graph"
)

// runsOf lays occurrence lists out as the runs FeatureReply decodes into:
// run j holds the indices of occ[j].
func runsOf(occ [][]int) occRuns {
	r := occRuns{bounds: []int32{0}}
	for _, idx := range occ {
		for _, i := range idx {
			r.occ = append(r.occ, int32(i))
		}
		r.bounds = append(r.bounds, int32(len(r.occ)))
	}
	return r
}

// mapCoalesce is the map-based coalescing the table replaced, kept as the
// oracle: each shard's distinct ids in first-occurrence order, every
// distinct id's positions in order, and the duplicates removed.
func mapCoalesce(ids []graph.VertexID, shards int) (partIDs [][]graph.VertexID, partOcc [][][]int, dups int) {
	partIDs = make([][]graph.VertexID, shards)
	partOcc = make([][][]int, shards)
	uniqOf := make(map[graph.VertexID]int)
	for i, id := range ids {
		p := ShardOf(id, shards)
		j, ok := uniqOf[id]
		if !ok {
			j = len(partIDs[p])
			uniqOf[id] = j
			partIDs[p] = append(partIDs[p], id)
			partOcc[p] = append(partOcc[p], nil)
		} else {
			dups++
		}
		partOcc[p][j] = append(partOcc[p][j], i)
	}
	return partIDs, partOcc, dups
}

// checkCoalesce fails t unless s holds what mapCoalesce makes of ids.
func checkCoalesce(t *testing.T, s *coalesceScratch, ids []graph.VertexID, shards, dups int) {
	t.Helper()
	wantIDs, wantOcc, wantDups := mapCoalesce(ids, shards)
	if dups != wantDups {
		t.Fatalf("%d ids over %d shards: %d dups, want %d", len(ids), shards, dups, wantDups)
	}
	for p := 0; p < shards; p++ {
		got, runs := s.part(p)
		if !slices.Equal(got, wantIDs[p]) {
			t.Fatalf("%d ids over %d shards: shard %d ids %v, want %v", len(ids), shards, p, got, wantIDs[p])
		}
		if runs.len() != len(wantOcc[p]) {
			t.Fatalf("%d ids over %d shards: shard %d has %d runs, want %d", len(ids), shards, p, runs.len(), len(wantOcc[p]))
		}
		for j, want := range wantOcc[p] {
			run := runs.run(j)
			if len(run) != len(want) {
				t.Fatalf("shard %d id %d: run %v, want %v", p, got[j], run, want)
			}
			for k, i := range run {
				if int(i) != want[k] {
					t.Fatalf("shard %d id %d: run %v, want %v", p, got[j], run, want)
				}
			}
		}
	}
}

// hop2Frontier is the frontier hop 2 samples from at train-cluster's
// shape, 256 seeds × fanout 10, over a vertex set small enough that about
// 60% of its positions repeat an earlier one.
func hop2Frontier() []graph.VertexID {
	rng := rand.New(rand.NewSource(35))
	ids := make([]graph.VertexID, 2560)
	for i := range ids {
		ids[i] = graph.MakeVertexID(0, uint64(rng.Intn(1000)))
	}
	return ids
}

// TestCoalesceMatchesMap: the table and its counting sorts give the map
// version's per-shard distinct lists, occurrences and duplicate counts, on
// empty, repeat-free, repeat-heavy and hop-2-shaped lists over one to four
// shards, vertex 0 included.
func TestCoalesceMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lists := [][]graph.VertexID{nil, {0}, {0, 0, 0}, {5, 1, 5, 0, 1, 9}, hop2Frontier()}
	for _, n := range []int{17, 300, 4096} {
		ids := make([]graph.VertexID, n)
		for i := range ids {
			ids[i] = graph.VertexID(rng.Intn(n/2 + 1))
		}
		lists = append(lists, ids)
	}
	distinct := make([]graph.VertexID, 500)
	for i := range distinct {
		distinct[i] = graph.VertexID(rng.Uint64())
	}
	lists = append(lists, distinct)
	for shards := 1; shards <= 4; shards++ {
		for _, ids := range lists {
			s := getCoalesceScratch(shards)
			checkCoalesce(t, s, ids, shards, s.coalesce(ids))
			s.release()
		}
	}
}

// TestCoalesceScratchReuse runs a large fan-out and then small ones through
// one scratch: each must coalesce exactly, whatever the scratch held
// before.
func TestCoalesceScratchReuse(t *testing.T) {
	const shards = 3
	s := getCoalesceScratch(shards)
	defer s.release()
	for round, n := range []int{4096, 7, 49, 4096, 1} {
		ids := make([]graph.VertexID, n)
		for i := range ids {
			ids[i] = graph.VertexID((i*7 + round) % (n/3 + 1))
		}
		distinct := map[graph.VertexID]bool{}
		for _, id := range ids {
			distinct[id] = true
		}
		dups := s.coalesce(ids)
		if dups != n-len(distinct) {
			t.Fatalf("round %d: %d dups, want %d", round, dups, n-len(distinct))
		}
		checkCoalesce(t, s, ids, shards, dups)
	}
}

// TestCoalesceAllocs: a warm coalesce and release of a hop-2 frontier
// allocates nothing.
func TestCoalesceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ids := hop2Frontier()
	var dups int
	allocs := testing.AllocsPerRun(100, func() {
		s := getCoalesceScratch(2)
		dups = s.coalesce(ids)
		s.release()
	})
	if share := float64(dups) / float64(len(ids)); share < 0.55 || share > 0.65 {
		t.Fatalf("frontier repeats %.2f of its positions, want about 0.60", share)
	}
	if allocs > 0 {
		t.Fatalf("a warm coalesce of %d ids allocates %.0f times, want 0", len(ids), allocs)
	}
}

// BenchmarkCoalesceSmallAfterLarge times an 8-id fan-out's coalesce right
// after a 2560-id one through the same pooled scratch: serve-knn's tiny
// per-request fan-outs after an index warm-up or a training batch. Its
// cost must stay that of 8 ids.
func BenchmarkCoalesceSmallAfterLarge(b *testing.B) {
	large := hop2Frontier()
	small := large[:8]
	b.ReportAllocs()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		s := getCoalesceScratch(2)
		s.coalesce(large)
		s.release()
		b.StartTimer()
		s = getCoalesceScratch(2)
		s.coalesce(small)
		s.release()
		b.StopTimer()
	}
}
