package cluster

import (
	"testing"

	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
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

// benchFeatureReply is a 128-row, 64-dim Features reply with labels: its
// encoder reading the rows from a store, and a destination for its
// decoder.
func benchFeatureReply() (enc, dec *FeatureReply) {
	const rows, dim = 128, 64
	attrs := kvstore.New()
	nodes := make([]graph.VertexID, rows)
	occ := make([][]int, rows)
	for i := range nodes {
		nodes[i] = graph.MakeVertexID(0, uint64(i))
		f := make([]float32, dim)
		for d := range f {
			f[d] = float32(i*dim+d) * 0.5
		}
		attrs.SetFeatures(nodes[i], f)
		attrs.SetLabel(nodes[i], int32(i%40))
		occ[i] = []int{i}
	}
	enc = &FeatureReply{dim: dim, attrs: attrs, nodes: nodes, withLabels: true}
	dec = &FeatureReply{dim: dim, out: make([]float32, rows*dim), labels: make([]int32, rows), occ: runsOf(occ)}
	return enc, dec
}

func codecBenchMessages() []struct {
	name string
	msg  wireMessage
	into wireMessage
} {
	enc, dec := benchFeatureReply()
	return []struct {
		name string
		msg  wireMessage
		into wireMessage // decode target; nil means a fresh value
	}{
		{"SampleArgs", benchSampleArgs(), nil},
		{"SampleReply", benchSampleReply(), nil},
		{"BatchArgs", benchBatchArgs(), nil},
		{"FeatureReply", enc, dec},
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
				out := c.into
				if out == nil {
					out = freshWireLike(c.msg)
				}
				r := wire.NewReader(buf)
				out.decodeWire(r)
				if err := r.Done(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
