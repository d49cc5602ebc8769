package dataset

import (
	"math/rand"

	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
)

// AssignFeatures populates the attribute store with learnable synthetic
// features and labels for n vertices of type vt: each vertex gets a class
// label from a deterministic hash, and its feature vector is the class
// centroid plus Gaussian noise. A GNN (or even a linear model) can recover
// the labels, which lets the end-to-end training example demonstrate real
// loss decrease on PlatoD2GL-sampled neighborhoods.
func AssignFeatures(store *kvstore.Store, vt graph.VertexType, n uint64, dim, classes int, noise float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// Fixed random centroids, one per class.
	centroids := make([][]float32, classes)
	for c := range centroids {
		centroids[c] = make([]float32, dim)
		for d := range centroids[c] {
			centroids[c][d] = float32(rng.NormFloat64())
		}
	}
	for i := uint64(0); i < n; i++ {
		id := graph.MakeVertexID(vt, i)
		label := int32(graph.Mix64(uint64(id)) % uint64(classes))
		f := make([]float32, dim)
		for d := range f {
			f[d] = centroids[label][d] + float32(rng.NormFloat64()*noise)
		}
		store.SetFeatures(id, f)
		store.SetLabel(id, label)
	}
}
