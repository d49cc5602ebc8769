//go:build amd64

package ann

import "testing"

// TestGoldenGraphAndResultsGoKernels runs the golden graph and results test
// with the pure-Go distances, as a host without AVX2 would: the hashes are
// the same.
func TestGoldenGraphAndResultsGoKernels(t *testing.T) {
	defer func(v bool) { hasAVX2 = v }(hasAVX2)
	hasAVX2 = false
	checkGoldenGraphAndResults(t)
}
