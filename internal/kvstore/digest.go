// Attribute-state digests: every mutation maintains a per-shard incremental
// digest — an order-independent XOR over per-entry checksums — so "do two
// replicas hold byte-identical attributes?" is an O(shards) read, not an
// O(entries) walk. XOR makes insertion order irrelevant (replicas apply
// fan-out writes in different interleavings) and makes updates cheap: an
// overwrite XORs the old entry's sum out and the new one in. The
// anti-entropy scrubber (internal/cluster) compares these digests across a
// replica group to detect silent divergence.
package kvstore

import (
	"math"

	"platod2gl/internal/graph"
)

// Entry-kind tags keep a feature row, a label, and an edge-feature row with
// identical bytes from cancelling in the XOR.
const (
	tagFeature = 0x9e3779b97f4a7c15
	tagLabel   = 0xc2b2ae3d27d4eb4f
	tagEdge    = 0x165667b19e3779f9
)

// floatsSum folds a feature vector into a running hash. Exact bit patterns
// are hashed, so two stores agree iff the stored floats are byte-identical.
func floatsSum(h uint64, f []float32) uint64 {
	h = graph.Mix64(h ^ uint64(len(f)))
	for _, v := range f {
		h = graph.Mix64(h ^ uint64(math.Float32bits(v)))
	}
	return h
}

func featureSum(id graph.VertexID, f []float32) uint64 {
	return floatsSum(graph.Mix64(uint64(id)^tagFeature), f)
}

func labelSum(id graph.VertexID, label int32) uint64 {
	return graph.Mix64(graph.Mix64(uint64(id)^tagLabel) ^ uint64(uint32(label)))
}

func edgeSum(k EdgeKey, f []float32) uint64 {
	h := graph.Mix64(uint64(k.Src) ^ tagEdge)
	h = graph.Mix64(h ^ uint64(k.Dst))
	h = graph.Mix64(h ^ uint64(k.Type))
	return floatsSum(h, f)
}

// Digest returns the order-independent checksum of the whole store: XOR of
// every entry's sum, independent of internal shard layout and of the order
// mutations were applied in. Two stores digest equal iff they hold the same
// entries with byte-identical values (modulo XOR collisions). Cost: O(shard
// count), not O(entries) — the digest is maintained incrementally.
func (s *Store) Digest() uint64 {
	var d uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		d ^= sh.digest
		sh.mu.RUnlock()
	}
	return d
}

// DigestWhere recomputes the digest over the subset of entries whose owning
// vertex (the vertex for features/labels, the source for edge features)
// passes keep. This is the per-logical-shard form used by integrity checks
// on routed clusters; unlike Digest it walks entries, so it is O(entries).
func (s *Store) DigestWhere(keep func(id graph.VertexID) bool) uint64 {
	var d uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, a := range sh.vertices {
			if !keep(id) {
				continue
			}
			if a.hasFeatures {
				d ^= featureSum(id, a.features)
			}
			if a.hasLabel {
				d ^= labelSum(id, a.label)
			}
		}
		for k, f := range sh.edges {
			if keep(k.Src) {
				d ^= edgeSum(k, f)
			}
		}
		sh.mu.RUnlock()
	}
	return d
}

// Reset drops every entry and zeroes the digests — the first step of a
// repair that rebuilds this store from a healthy peer (stale entries the
// peer deleted must not survive the rebuild).
func (s *Store) Reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.reset()
		sh.mu.Unlock()
	}
}
