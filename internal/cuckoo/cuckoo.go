// Package cuckoo implements a concurrent cuckoo hashmap keyed by uint64
// vertex IDs, in the spirit of MemC3 / libcuckoo (refs [7], [23] of the
// PlatoD2GL paper). The storage layer (Sec. IV-B) keeps the source-vertex →
// ⟨degree, samtree⟩ mapping here so multiple sources can be updated
// concurrently.
//
// Layout: the key space is split across fixed shards by high hash bits; each
// shard is an independent 2-choice, 4-way set-associative cuckoo table
// guarded by its own mutex. Lookups take only the shard's read lock; inserts
// use random-walk eviction with a bounded kick chain, doubling the shard's
// bucket array when a chain fails. This gives hand-over-hand-free operation
// with at most one lock per call and ~95% load factors per shard.
package cuckoo

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"unsafe"

	"platod2gl/internal/prefetch"
)

const (
	slotsPerBucket = 4
	maxKicks       = 256
	defaultShards  = 64
	minBuckets     = 8
)

// splitmix64 is a strong 64-bit mixer used for both bucket hash functions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type bucket[V any] struct {
	keys [slotsPerBucket]uint64
	vals [slotsPerBucket]V
	used [slotsPerBucket]bool
}

type shard[V any] struct {
	mu      sync.RWMutex
	buckets []bucket[V]
	mask    uint64
	size    int
	rng     *rand.Rand
	// pending holds an entry displaced out of the table by a failed kick
	// chain, awaiting reinsertion during the next grow.
	pending []pendingEntry[V]
}

// Map is a concurrent cuckoo hashmap from uint64 to V.
type Map[V any] struct {
	shards    []shard[V]
	shardMask uint64
	length    atomic.Int64
}

// New returns an empty map with the default shard count.
func New[V any]() *Map[V] { return NewWithShards[V](defaultShards) }

// NewWithShards returns an empty map with the given power-of-two shard count.
func NewWithShards[V any](n int) *Map[V] {
	if n <= 0 || n&(n-1) != 0 {
		panic("cuckoo: shard count must be a positive power of two")
	}
	m := &Map[V]{shards: make([]shard[V], n), shardMask: uint64(n - 1)}
	for i := range m.shards {
		s := &m.shards[i]
		s.buckets = make([]bucket[V], minBuckets)
		s.mask = minBuckets - 1
		s.rng = rand.New(rand.NewSource(int64(0x5eed + i)))
	}
	return m
}

func (m *Map[V]) shardFor(key uint64) *shard[V] {
	return &m.shards[splitmix64(key^0xabcdef12345)&m.shardMask]
}

// h1 and h2 are the two candidate bucket indexes for a key within a shard.
func (s *shard[V]) h1(key uint64) uint64 { return splitmix64(key) & s.mask }
func (s *shard[V]) h2(key uint64) uint64 {
	return splitmix64(key^0x6a09e667f3bcc909) & s.mask
}

// Get returns the value for key and whether it is present.
func (m *Map[V]) Get(key uint64) (V, bool) {
	s := m.shardFor(key)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.get(key)
}

// Prefetch starts loading the two buckets key may occupy into the cache, so
// that a Get or GetOrCreate of key shortly after finds them there. It takes
// the shard's read lock, since a growing shard replaces its bucket array.
func (m *Map[V]) Prefetch(key uint64) {
	s := m.shardFor(key)
	s.mu.RLock()
	size := unsafe.Sizeof(s.buckets[0])
	prefetch.Object(unsafe.Pointer(&s.buckets[s.h1(key)]), size)
	prefetch.Object(unsafe.Pointer(&s.buckets[s.h2(key)]), size)
	s.mu.RUnlock()
}

func (s *shard[V]) get(key uint64) (V, bool) {
	for _, bi := range [2]uint64{s.h1(key), s.h2(key)} {
		b := &s.buckets[bi]
		for i := 0; i < slotsPerBucket; i++ {
			if b.used[i] && b.keys[i] == key {
				return b.vals[i], true
			}
		}
	}
	var zero V
	return zero, false
}

// Put inserts or overwrites the value for key. It reports whether the key
// was newly inserted.
func (m *Map[V]) Put(key uint64, val V) bool {
	s := m.shardFor(key)
	s.mu.Lock()
	inserted := s.put(key, val)
	s.mu.Unlock()
	if inserted {
		m.length.Add(1)
	}
	return inserted
}

// GetOrCreate returns the existing value for key, or stores and returns the
// value produced by create. create runs under the shard lock, so it must not
// touch the map.
func (m *Map[V]) GetOrCreate(key uint64, create func() V) (V, bool) {
	s := m.shardFor(key)
	s.mu.Lock()
	if v, ok := s.get(key); ok {
		s.mu.Unlock()
		return v, false
	}
	v := create()
	s.put(key, v)
	s.mu.Unlock()
	m.length.Add(1)
	return v, true
}

// Update applies fn to the value stored under key while holding the shard
// lock, storing the result back. If the key is absent, fn receives the zero
// value and ok=false, and the result is inserted. The function must not
// touch the map.
func (m *Map[V]) Update(key uint64, fn func(old V, ok bool) V) {
	s := m.shardFor(key)
	s.mu.Lock()
	old, ok := s.get(key)
	inserted := s.put(key, fn(old, ok))
	s.mu.Unlock()
	if inserted {
		m.length.Add(1)
	}
}

func (s *shard[V]) put(key uint64, val V) bool {
	// Overwrite in place if present.
	for _, bi := range [2]uint64{s.h1(key), s.h2(key)} {
		b := &s.buckets[bi]
		for i := 0; i < slotsPerBucket; i++ {
			if b.used[i] && b.keys[i] == key {
				b.vals[i] = val
				return false
			}
		}
	}
	if !s.insertNew(key, val) {
		// key is in the table; the chain's last victim waits in pending.
		s.grow()
	}
	s.size++
	return true
}

// insertNew places a key known to be absent, using random-walk cuckoo
// eviction. Reports false if the kick chain exceeded its budget.
func (s *shard[V]) insertNew(key uint64, val V) bool {
	curKey, curVal := key, val
	bi := s.h1(curKey)
	for kick := 0; kick < maxKicks; kick++ {
		b := &s.buckets[bi]
		for i := 0; i < slotsPerBucket; i++ {
			if !b.used[i] {
				b.keys[i], b.vals[i], b.used[i] = curKey, curVal, true
				return true
			}
		}
		// Also try the alternate bucket before evicting.
		alt := s.h2(curKey)
		if alt == bi {
			alt = s.h1(curKey)
		}
		ab := &s.buckets[alt]
		for i := 0; i < slotsPerBucket; i++ {
			if !ab.used[i] {
				ab.keys[i], ab.vals[i], ab.used[i] = curKey, curVal, true
				return true
			}
		}
		// Evict a random victim from the current bucket and displace it to
		// its alternate bucket.
		vi := s.rng.Intn(slotsPerBucket)
		b.keys[vi], curKey = curKey, b.keys[vi]
		b.vals[vi], curVal = curVal, b.vals[vi]
		if s.h1(curKey) == bi {
			bi = s.h2(curKey)
		} else {
			bi = s.h1(curKey)
		}
	}
	// Chain failed: key sits in the table, and the one entry left out is
	// the last victim. The caller grows the table, which rehashes it from
	// pending; inserting key again would store it twice.
	s.pending = append(s.pending, pendingEntry[V]{curKey, curVal})
	return false
}

type pendingEntry[V any] struct {
	key uint64
	val V
}

// grow doubles the bucket array and rehashes every entry, including the one
// a failed kick chain displaced into pending. Should a chain fail during the
// rehash, it starts over at twice the size, so every entry ends up stored
// exactly once.
func (s *shard[V]) grow() {
	entries := s.pending
	for i := range s.buckets {
		b := &s.buckets[i]
		for j := 0; j < slotsPerBucket; j++ {
			if b.used[j] {
				entries = append(entries, pendingEntry[V]{b.keys[j], b.vals[j]})
			}
		}
	}
	for n := 2 * len(s.buckets); ; n *= 2 {
		s.buckets = make([]bucket[V], n)
		s.mask = uint64(n - 1)
		s.pending = nil
		fits := true
		for _, e := range entries {
			if !s.insertNew(e.key, e.val) {
				fits = false
				break
			}
		}
		if fits {
			return
		}
	}
}

// Delete removes key, reporting whether it was present.
func (m *Map[V]) Delete(key uint64) bool {
	s := m.shardFor(key)
	s.mu.Lock()
	defer func() { s.mu.Unlock() }()
	for _, bi := range [2]uint64{s.h1(key), s.h2(key)} {
		b := &s.buckets[bi]
		for i := 0; i < slotsPerBucket; i++ {
			if b.used[i] && b.keys[i] == key {
				var zero V
				b.used[i] = false
				b.keys[i] = 0
				b.vals[i] = zero
				s.size--
				m.length.Add(-1)
				return true
			}
		}
	}
	return false
}

// Len returns the number of stored keys.
func (m *Map[V]) Len() int { return int(m.length.Load()) }

// Range calls fn for every entry until fn returns false. It holds one shard
// read-lock at a time; entries inserted or removed concurrently may or may
// not be observed.
func (m *Map[V]) Range(fn func(key uint64, val V) bool) {
	for si := range m.shards {
		s := &m.shards[si]
		s.mu.RLock()
		for bi := range s.buckets {
			b := &s.buckets[bi]
			for i := 0; i < slotsPerBucket; i++ {
				if b.used[i] {
					if !fn(b.keys[i], b.vals[i]) {
						s.mu.RUnlock()
						return
					}
				}
			}
		}
		s.mu.RUnlock()
	}
}

// Keys returns a snapshot of all keys. Order is unspecified.
func (m *Map[V]) Keys() []uint64 {
	out := make([]uint64, 0, m.Len())
	m.Range(func(k uint64, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// MemoryBytes returns the structural footprint of the table itself
// (buckets; not the pointed-to values). keySize/valSize describe one slot.
func (m *Map[V]) MemoryBytes(valSize int64) int64 {
	var total int64
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		total += int64(cap(s.buckets)) * slotsPerBucket * (8 + 1 + valSize)
		s.mu.RUnlock()
	}
	return total
}
