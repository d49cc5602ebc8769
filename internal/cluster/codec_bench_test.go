package cluster

import (
	"testing"

	"platod2gl/internal/graph"
	"platod2gl/internal/wire"
)

// Codec micro-benchmarks: the hand-rolled wire codec over the hot
// payloads (sampling fan-out, batch ingest, feature pull). Run with
// -benchmem; B/op and allocs/op are the point. The bytes/msg metric is the
// encoded size — the wire protocol's density claim, measured.

func benchSampleArgs() *SampleArgs {
	seeds := make([]graph.VertexID, 256)
	for i := range seeds {
		seeds[i] = graph.VertexID(uint64(1)<<56 | uint64(i*7919))
	}
	return &SampleArgs{Seeds: seeds, Type: 1, Fanout: 10, Seed: 42, Shard: 3, RouteEpoch: 9}
}

func benchSampleReply() *SampleReply {
	neigh := make([]graph.VertexID, 256*10)
	for i := range neigh {
		neigh[i] = graph.VertexID(uint64(2)<<56 | uint64(i*31))
	}
	return &SampleReply{Neighbors: neigh}
}

func benchBatchArgs() *BatchArgs {
	evs := make([]graph.Event, 512)
	for i := range evs {
		evs[i] = graph.Event{Kind: graph.AddEdge,
			Edge:      graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1000), Type: 2, Weight: 1.5},
			Timestamp: int64(1_700_000_000 + i)}
	}
	return &BatchArgs{Events: evs, ClientID: 7, Seq: 99, Shard: 1, RouteEpoch: 4, Sum: 0xfeed}
}

func benchFeatureReply() *FeatureReply {
	data := make([]float32, 128*64)
	for i := range data {
		data[i] = float32(i) * 0.5
	}
	labels := make([]int32, 128)
	for i := range labels {
		labels[i] = int32(i % 40)
	}
	return &FeatureReply{Data: data, Labels: labels}
}

func codecBenchMessages() []struct {
	name string
	msg  wireMessage
} {
	return []struct {
		name string
		msg  wireMessage
	}{
		{"SampleArgs", benchSampleArgs()},
		{"SampleReply", benchSampleReply()},
		{"BatchArgs", benchBatchArgs()},
		{"FeatureReply", benchFeatureReply()},
	}
}

func BenchmarkCodecEncodeWire(b *testing.B) {
	for _, c := range codecBenchMessages() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportMetric(float64(len(c.msg.appendWire(nil))), "bytes/msg")
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = c.msg.appendWire(buf[:0])
			}
		})
	}
}

func BenchmarkCodecDecodeWire(b *testing.B) {
	for _, c := range codecBenchMessages() {
		b.Run(c.name, func(b *testing.B) {
			buf := c.msg.appendWire(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := freshWireLike(c.msg)
				r := wire.NewReader(buf)
				out.decodeWire(r)
				if err := r.Done(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
