package ann

import "testing"

// BenchmarkIndexInsert builds a fresh index from 5000 clustered dim-32
// vectors per iteration; us/insert is the cost of one Insert.
func BenchmarkIndexInsert(b *testing.B) {
	vecs := clusteredVecs(5000, 32, 20, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildIndex(b, vecs)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(vecs)), "us/insert")
}

// BenchmarkIndexSearch runs k = 11 searches (serving's k = 10 plus the
// query vertex itself) for the indexed vectors over the index of
// BenchmarkIndexInsert.
func BenchmarkIndexSearch(b *testing.B) {
	vecs := clusteredVecs(5000, 32, 20, 1)
	ix := buildIndex(b, vecs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(vecs[i%len(vecs)], 11); err != nil {
			b.Fatal(err)
		}
	}
}
