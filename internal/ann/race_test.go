package ann

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentInsertSearchDeleteHammer is the race hammer the CI race leg
// runs: inserters, deleters, upserters, and searchers pound one index
// concurrently. Correctness here is "no race, no panic, invariants hold";
// recall under concurrent mutation is covered by the serving churn drill.
// Compaction shrinks the arena under the searchers' pooled visit sets and
// inserts grow it back past them, so a visit set that is not resized to the
// arena at every search panics with an index out of range here.
func TestConcurrentInsertSearchDeleteHammer(t *testing.T) {
	const (
		dim        = 8
		idSpace    = 512
		opsPerGoro = 400
	)
	m := &Metrics{}
	ix, err := New(Config{Dim: dim, Seed: 23, M: 8, EfConstruction: 40, EfSearch: 24, MaxTombstoneShare: 0.3, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	mkVec := func(rng *rand.Rand) []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		return v
	}
	// Seed the index so searchers have something to find from the start.
	seedRng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		if err := ix.Insert(uint64(i), mkVec(seedRng)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var searches, withResults atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerGoro; i++ {
				if err := ix.Insert(uint64(rng.Intn(idSpace)), mkVec(rng)); err != nil {
					panic(err)
				}
			}
		}(int64(100 + w))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerGoro; i++ {
				ix.Delete(uint64(rng.Intn(idSpace)))
			}
		}(int64(200 + w))
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("searcher panicked: %v", r)
				}
			}()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerGoro; i++ {
				res, err := ix.Search(mkVec(rng), 5)
				if err != nil {
					panic(err)
				}
				searches.Add(1)
				if len(res) > 0 {
					withResults.Add(1)
				}
				for j := 1; j < len(res); j++ {
					if res[j].Dist < res[j-1].Dist {
						panic("search results out of order")
					}
				}
			}
		}(int64(300 + w))
	}
	wg.Wait()

	if searches.Load() == 0 || withResults.Load() == 0 {
		t.Fatalf("hammer did no useful work: %d searches, %d with results", searches.Load(), withResults.Load())
	}
	if m.Compactions.Load() == 0 {
		t.Fatal("hammer never compacted, so the arena never shrank under a search")
	}
	if n := ix.Len(); n < 0 || n > idSpace {
		t.Fatalf("Len() = %d outside [0, %d]", n, idSpace)
	}
	// The index must still answer correctly after the storm: every live ID's
	// own vector must retrieve itself as the top hit. (Snapshot the live set
	// first — searching from inside ForEach would nest read locks.)
	type item struct {
		id  uint64
		vec []float32
	}
	var live []item
	ix.ForEach(func(id uint64, vec []float32) bool {
		live = append(live, item{id, append([]float32(nil), vec...)})
		return len(live) < 50
	})
	if len(live) == 0 {
		t.Fatal("no live vectors to verify after hammer")
	}
	// HNSW is approximate, so tolerate a stray miss — but the overwhelming
	// majority must self-retrieve or the graph got mangled.
	hits := 0
	for _, it := range live {
		res, err := ix.Search(it.vec, 1)
		if err != nil {
			t.Fatalf("post-hammer search: %v", err)
		}
		// A different ID at distance 0 is fine (duplicate vectors).
		if len(res) > 0 && (res[0].ID == it.id || res[0].Dist == 0) {
			hits++
		}
	}
	if hits*10 < len(live)*9 {
		t.Fatalf("post-hammer self-retrieval %d/%d, want >= 90%%", hits, len(live))
	}
}
