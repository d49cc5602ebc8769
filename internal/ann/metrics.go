package ann

import "platod2gl/internal/obs"

// Metrics counts index mutations and queries. Size and tombstone gauges are
// registered by the embedding owner via Registry.GaugeFunc over
// Index.Len/Tombstones (the index itself already tracks them; a second copy
// here would drift).
type Metrics struct {
	Inserts     obs.Counter // vectors inserted or upserted
	Deletes     obs.Counter // tombstone operations
	Searches    obs.Counter // Search calls served
	Compactions obs.Counter // full graph rebuilds (manual + automatic)
}

// Register attaches the counters to r under the stable platod2gl_ann_*
// names documented in docs/OPERATIONS.md.
func (m *Metrics) Register(r *obs.Registry) {
	r.RegisterCounter("platod2gl_ann_inserts_total", "Vectors inserted or upserted into the HNSW index.", nil, &m.Inserts)
	r.RegisterCounter("platod2gl_ann_deletes_total", "Vectors tombstoned in the HNSW index.", nil, &m.Deletes)
	r.RegisterCounter("platod2gl_ann_searches_total", "k-NN searches served by the HNSW index.", nil, &m.Searches)
	r.RegisterCounter("platod2gl_ann_compactions_total", "Full HNSW graph rebuilds (manual and tombstone-triggered).", nil, &m.Compactions)
}
