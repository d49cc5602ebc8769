// In-process codec micro-benchmark, exported so the machine-readable
// performance report (cmd/platod2gl-bench -json) can carry the wire codec's
// encode/decode cost alongside the end-to-end RPC numbers. The Go benchmark
// variants in codec_bench_test.go cover the same ground interactively; this
// hook exists because BENCH_<rev>.json is what CI's regression gate reads.
package cluster

import (
	"reflect"
	"runtime"
	"time"

	"platod2gl/internal/graph"
	"platod2gl/internal/wire"
)

// freshWireLike allocates a zero value of msg's concrete type.
func freshWireLike(msg wireMessage) wireMessage {
	return reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wireMessage)
}

// codecBenchIters is small enough to keep the perf experiment fast and
// large enough to amortize timer overhead.
const codecBenchIters = 500

// CodecBenchMetrics times the wire codec over the two payload shapes that
// dominate training traffic: a 2560-neighbor SampleReply (id-heavy) and an
// 8K-float FeatureReply (bulk-heavy). Keys follow the regression-gate
// naming: *_ns gates lower-better; the *_per_op allocation metrics are
// informational (they carry B/op and allocs/op without gating on them).
func CodecBenchMetrics() map[string]float64 {
	out := make(map[string]float64)
	neigh := make([]graph.VertexID, 2560)
	for i := range neigh {
		neigh[i] = graph.VertexID(uint64(2)<<56 | uint64(i*31))
	}
	data := make([]float32, 8192)
	for i := range data {
		data[i] = float32(i) * 0.37
	}
	labels := make([]int32, 128)
	for i := range labels {
		labels[i] = int32(i % 40)
	}
	benchCodecMessage(out, "codec_sample", &SampleReply{Neighbors: neigh})
	benchCodecMessage(out, "codec_feature", &FeatureReply{Data: data, Labels: labels})
	return out
}

// benchCodecMessage fills out with encode/decode timings, allocation
// counts, and bytes allocated per op for msg.
func benchCodecMessage(out map[string]float64, prefix string, msg wireMessage) {
	// Wire encode: buffer reused across iterations, as the transport does.
	var buf []byte
	measure(out, prefix+"_encode_wire", func() {
		buf = msg.appendWire(buf[:0])
	})
	// Wire decode into a fresh struct each op, as the server does.
	encoded := msg.appendWire(nil)
	measure(out, prefix+"_decode_wire", func() {
		dst := freshWireLike(msg)
		r := wire.NewReader(encoded)
		dst.decodeWire(r)
		if err := r.Done(); err != nil {
			panic(err)
		}
	})
}

// measure runs fn codecBenchIters times and records ns/op, allocs/op, and
// bytes-allocated/op under name.
func measure(out map[string]float64, name string, fn func()) {
	fn() // warm up: buffer pools fill
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < codecBenchIters; i++ {
		fn()
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	out[name+"_ns"] = float64(wall.Nanoseconds()) / codecBenchIters
	out[name+"_allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / codecBenchIters
	out[name+"_alloc_bytes_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / codecBenchIters
}
