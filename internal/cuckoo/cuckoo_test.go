package cuckoo

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestBasicPutGet(t *testing.T) {
	m := New[string]()
	if _, ok := m.Get(1); ok {
		t.Fatal("empty map returned a value")
	}
	if !m.Put(1, "a") {
		t.Fatal("Put of new key reported overwrite")
	}
	if m.Put(1, "b") {
		t.Fatal("Put of existing key reported insert")
	}
	if v, ok := m.Get(1); !ok || v != "b" {
		t.Fatalf("Get(1) = %q,%v", v, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestDelete(t *testing.T) {
	m := New[int]()
	m.Put(7, 70)
	if !m.Delete(7) {
		t.Fatal("Delete of present key returned false")
	}
	if m.Delete(7) {
		t.Fatal("Delete of absent key returned true")
	}
	if _, ok := m.Get(7); ok {
		t.Fatal("deleted key still present")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
}

func TestZeroKey(t *testing.T) {
	m := New[int]()
	m.Put(0, 42)
	if v, ok := m.Get(0); !ok || v != 42 {
		t.Fatalf("Get(0) = %d,%v", v, ok)
	}
	m.Delete(0)
	if _, ok := m.Get(0); ok {
		t.Fatal("zero key survived deletion")
	}
}

func TestGetOrCreate(t *testing.T) {
	m := New[*int]()
	calls := 0
	mk := func() *int { calls++; x := 5; return &x }
	v1, created := m.GetOrCreate(3, mk)
	if !created || *v1 != 5 {
		t.Fatalf("first GetOrCreate: created=%v v=%v", created, v1)
	}
	v2, created := m.GetOrCreate(3, mk)
	if created || v2 != v1 {
		t.Fatalf("second GetOrCreate: created=%v same=%v", created, v2 == v1)
	}
	if calls != 1 {
		t.Fatalf("create called %d times, want 1", calls)
	}
}

func TestUpdate(t *testing.T) {
	m := New[int]()
	m.Update(9, func(old int, ok bool) int {
		if ok {
			t.Fatal("ok=true for absent key")
		}
		return 1
	})
	m.Update(9, func(old int, ok bool) int {
		if !ok || old != 1 {
			t.Fatalf("old=%d ok=%v", old, ok)
		}
		return old + 1
	})
	if v, _ := m.Get(9); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
}

func TestGrowthManyKeys(t *testing.T) {
	m := NewWithShards[uint64](4)
	const n = 200000
	for i := uint64(0); i < n; i++ {
		m.Put(i, i*3)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := m.Get(i); !ok || v != i*3 {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
}

// TestGrowthStoresEachKeyOnce: a put whose kick chain fails grows the shard
// without storing its key a second time, so Range visits every key once and
// Delete leaves no stale copy behind.
func TestGrowthStoresEachKeyOnce(t *testing.T) {
	m := NewWithShards[uint64](4)
	const n = 20000
	for i := uint64(0); i < n; i++ {
		m.Put(i, i)
	}
	visits := map[uint64]int{}
	m.Range(func(k, _ uint64) bool {
		visits[k]++
		return true
	})
	for k, c := range visits {
		if c != 1 {
			t.Fatalf("Range visited key %d %d times", k, c)
		}
	}
	if len(visits) != n {
		t.Fatalf("Range visited %d keys, want %d", len(visits), n)
	}
	for i := uint64(0); i < n; i++ {
		m.Delete(i)
	}
	if _, ok := m.Get(7); ok || len(m.Keys()) != 0 {
		t.Fatalf("%d keys left after deleting every key", len(m.Keys()))
	}
}

func TestAdversarialKeys(t *testing.T) {
	// Keys crafted to collide in the low bits.
	m := NewWithShards[int](1)
	const n = 5000
	for i := 0; i < n; i++ {
		m.Put(uint64(i)<<40, i)
	}
	for i := 0; i < n; i++ {
		if v, ok := m.Get(uint64(i) << 40); !ok || v != i {
			t.Fatalf("Get = %d,%v, want %d", v, ok, i)
		}
	}
}

func TestRangeAndKeys(t *testing.T) {
	m := New[int]()
	want := map[uint64]int{1: 10, 2: 20, 3: 30}
	for k, v := range want {
		m.Put(k, v)
	}
	got := map[uint64]int{}
	m.Range(func(k uint64, v int) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, got[k], v)
		}
	}
	if ks := m.Keys(); len(ks) != 3 {
		t.Fatalf("Keys len = %d", len(ks))
	}
	// Early termination.
	visits := 0
	m.Range(func(uint64, int) bool { visits++; return false })
	if visits != 1 {
		t.Fatalf("Range visited %d after stop, want 1", visits)
	}
}

func TestConcurrentMixed(t *testing.T) {
	m := New[int]()
	const (
		goroutines = 8
		perG       = 20000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			base := uint64(g) * perG
			for i := 0; i < perG; i++ {
				k := base + uint64(i)
				m.Put(k, i)
				if rng.Intn(4) == 0 {
					m.Delete(k)
				} else if v, ok := m.Get(k); !ok || v != i {
					t.Errorf("g%d: Get(%d) = %d,%v", g, k, v, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Verify every surviving key maps to the correct value.
	m.Range(func(k uint64, v int) bool {
		if uint64(v) != k%perG {
			t.Errorf("corrupt entry %d -> %d", k, v)
			return false
		}
		return true
	})
}

func TestConcurrentGetOrCreateSingleWinner(t *testing.T) {
	m := New[*int]()
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]*int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, _ := m.GetOrCreate(42, func() *int { x := g; return &x })
			results[g] = v
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatal("GetOrCreate produced multiple values for one key")
		}
	}
}

func TestQuickAgainstBuiltinMap(t *testing.T) {
	prop := func(keys []uint64, vals []int) bool {
		m := New[int]()
		ref := map[uint64]int{}
		for i, k := range keys {
			v := 0
			if i < len(vals) {
				v = vals[i]
			}
			m.Put(k, v)
			ref[k] = v
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := m.Get(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchDuringGrowth: Prefetch of present and absent keys, racing
// inserts that grow the shards, changes no lookup (and, under -race, reads
// the bucket array only under the shard lock).
func TestPrefetchDuringGrowth(t *testing.T) {
	m := NewWithShards[int](2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := uint64(0); k < 5000; k++ {
			m.Put(k, int(k))
		}
	}()
	for k := uint64(0); k < 10000; k++ {
		m.Prefetch(k)
	}
	wg.Wait()
	for k := uint64(0); k < 10000; k++ {
		m.Prefetch(k)
		if v, ok := m.Get(k); ok != (k < 5000) || ok && v != int(k) {
			t.Fatalf("Get(%d) = %d, %v", k, v, ok)
		}
	}
}

func TestBadShardCountPanics(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWithShards(%d): expected panic", n)
				}
			}()
			NewWithShards[int](n)
		}()
	}
}

func BenchmarkPut(b *testing.B) {
	m := New[uint64]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put(uint64(i), uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	m := New[uint64]()
	const n = 1 << 16
	for i := uint64(0); i < n; i++ {
		m.Put(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(uint64(i) & (n - 1))
	}
}

func BenchmarkConcurrentGet(b *testing.B) {
	m := New[uint64]()
	const n = 1 << 16
	for i := uint64(0); i < n; i++ {
		m.Put(i, i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			m.Get(i & (n - 1))
			i++
		}
	})
}
