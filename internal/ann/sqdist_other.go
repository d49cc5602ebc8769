//go:build !amd64

package ann

// hasAVX2 is false off amd64: distances are the pure-Go ones.
const hasAVX2 = false

// sqDist returns the squared L2 distance between two equal-length vectors.
func sqDist(a, b []float32) float32 { return sqDistGo(a, b) }
