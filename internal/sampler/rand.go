package sampler

import (
	"math/rand"
	randv2 "math/rand/v2"

	"platod2gl/internal/graph"
)

// NewRand returns the generator every sampling stream draws from: the
// sampler's pooled per-worker generators, and any reference that must
// reproduce their draws. Its source is math/rand/v2's PCG behind the
// math/rand API the stores take, seeded through graph.Mix64, so
//   - reseeding a pooled generator costs nanoseconds (math/rand's own
//     source refills a 607-word state, about 12 us);
//   - seeds that differ by a constant (s, s+1, s+7919) give independent
//     streams, where math/rand's correlate in their first draws.
func NewRand(seed int64) *rand.Rand {
	src := new(pcgSource)
	src.Seed(seed)
	return rand.New(src)
}

// pcgSource adapts randv2.PCG to rand.Source64. rand.Rand.Seed reseeds it
// in place.
type pcgSource struct{ pcg randv2.PCG }

func (s *pcgSource) Seed(seed int64) {
	h := graph.Mix64(uint64(seed))
	s.pcg.Seed(h, graph.Mix64(h^0x9e3779b97f4a7c15))
}

func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }

func (s *pcgSource) Int63() int64 { return int64(s.pcg.Uint64() >> 1) }
