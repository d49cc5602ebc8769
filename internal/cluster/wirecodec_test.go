package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
	"platod2gl/internal/wire"
)

// wireFixtures returns one populated instance of every RPC payload struct.
// Every field is non-zero so a codec that silently drops a field fails the
// DeepEqual, and every slice is non-empty so element codecs are exercised.
func wireFixtures() []wireMessage {
	vid := func(typ, local uint64) graph.VertexID {
		return graph.VertexID(typ<<56 | local)
	}
	ids := []graph.VertexID{vid(0, 0), vid(1, 42), vid(7, graph.MaxLocalID)}
	evs := []graph.Event{
		{Kind: graph.AddEdge, Edge: graph.Edge{Src: vid(1, 5), Dst: vid(2, 9), Type: 3, Weight: 1.5}, Timestamp: 1234567},
		{Kind: graph.DeleteEdge, Edge: graph.Edge{Src: vid(0, 1), Dst: vid(0, 2), Type: 1, Weight: -2.25}, Timestamp: -5},
	}
	dedup := []DedupEntry{{ClientID: 1, Seq: 2}, {ClientID: 3, Seq: 4}}
	sm := ShardMap{Epoch: 9, NumShards: 4, Replicas: 2,
		Servers: []string{"a:1", "b:2", "c:3", "d:4"}, Assign: []int{0, 1, 1, 0}}
	attrReply := AttrsReply{
		Nodes:    ids,
		RowLens:  []int32{1, 2, 0},
		Data:     []float32{0.5, -1.25, 3},
		Labels:   []int32{-1, 0, 7},
		HasLabel: []bool{true, false, true},
		EdgeKeys: []kvstore.EdgeKey{{Src: vid(1, 8), Dst: vid(2, 9), Type: 5}},
		EdgeLens: []int32{2},
		EdgeData: []float32{0.25, 0.125},
		Sum:      9,
	}
	dig := DigestReply{Topology: 11, Attrs: 22, NumEdges: 33, WALSeq: 44, SyncEpoch: 55, Ready: true}
	attrs := kvstore.New()
	attrs.SetFeatures(ids[0], []float32{1, 2.5})
	attrs.SetFeatures(ids[1], []float32{-3})
	attrs.SetLabel(ids[1], -1)
	attrs.SetLabel(ids[2], 7)
	return []wireMessage{
		&BatchArgs{Events: evs, ClientID: 7, Seq: 9, Shard: 2, RouteEpoch: 5, Sum: 0xdeadbeef},
		&BatchReply{NumEdges: 42, Duplicate: true},
		&SampleArgs{Seeds: ids, Type: 3, Fanout: 5, Seed: -12, Shard: 1, RouteEpoch: 8},
		&SampleReply{Neighbors: ids},
		&DegreeArgs{Nodes: ids, Type: 2, Shard: 3, RouteEpoch: 1},
		&DegreeReply{Degrees: []int{0, 5, 123456}},
		&FeatureArgs{Nodes: ids, Dim: 64, WithLabels: true, Shard: 3, RouteEpoch: 2},
		&FeatureReply{dim: 2, attrs: attrs, nodes: ids, withLabels: true},
		&SourcesArgs{Type: 1, Shard: 2, RouteEpoch: 3},
		&SourcesReply{Nodes: ids},
		&SetFeaturesArgs{Nodes: ids, Dim: 2, Data: []float32{1, 2, 3, 4, 5, 6}, Labels: []int32{1, 2, 3}, Shard: 1, RouteEpoch: 4},
		&SetFeaturesReply{},
		&StatsArgs{},
		&StatsReply{NumEdges: 10, MemoryBytes: 1 << 30, NumSources: 3},
		&SyncStateArgs{},
		&SyncStateReply{Ready: true, SyncEpoch: 4, WALSeq: 99, NumEdges: 5},
		&SnapshotArgs{},
		&SnapshotReply{Snapshot: []byte{1, 2, 3}, WALSeq: 7, Dedup: dedup, Sum: 11},
		&WALTailArgs{AfterSeq: 3, MaxBatches: 10},
		&WALTailReply{Records: []eventlog.BatchRecord{{Seq: 1, ClientID: 2, ClientSeq: 3, Events: evs}},
			EndSeq: 9, WriterSeq: 10, Sum: 12},
		&RoutingArgs{},
		&RoutingReply{Has: true, Map: sm},
		&UpdateRoutingArgs{Map: sm},
		&UpdateRoutingReply{Epoch: 6},
		&ShardSnapshotArgs{Shard: 4},
		&ShardSnapshotReply{Events: evs, WALSeq: 3, NumShards: 8, Dedup: dedup, Sum: 13},
		&ParkShardArgs{Shard: 2, TTLMillis: 5000},
		&ParkShardReply{WALSeq: 77},
		&ReleaseShardArgs{Shard: 3},
		&ReleaseShardReply{},
		&DropShardArgs{Shard: 6},
		&DropShardReply{DroppedEdges: 5, DroppedVertices: 2},
		&PullShardArgs{Shard: 1, Source: "mem://2", AfterSeq: 8, UntilSeq: 9, CallTimeoutMillis: 1500},
		&PullShardReply{EndSeq: 9, Bytes: 1 << 20, Batches: 4},
		&DigestArgs{Shard: -1, NumShards: 8},
		&dig,
		&AttrsArgs{Shard: 2},
		&attrReply,
		&ScrubArgs{},
		&ScrubReply{Report: RoundReport{
			DurationNanos: 100,
			Local:         dig,
			Peers:         []PeerDigest{{Addr: "mem://1", Err: "probe: refused", Digest: dig}},
			DiskErrors:    []string{"crc mismatch segment 3"},
			Diverged:      true,
			Corrupt:       true,
			RepairPeer:    "mem://2",
			Repaired:      true,
			RepairErr:     "partial",
			RepairBytes:   9,
		}},
	}
}

// freshWireLike allocates a zero value of msg's concrete type.
func freshWireLike(msg wireMessage) wireMessage {
	return reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wireMessage)
}

func TestWireCodecRoundTrip(t *testing.T) {
	for _, msg := range wireFixtures() {
		name := fmt.Sprintf("%T", msg)
		if _, ok := msg.(*FeatureReply); ok {
			// Encoded from a store, decoded into a destination: see
			// TestFeatureReplyGolden and TestFeatureReplyDecodesIntoDestination.
			continue
		}
		b := msg.appendWire(nil)
		out := freshWireLike(msg)
		r := wire.NewReader(b)
		out.decodeWire(r)
		if err := r.Done(); err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(msg, out) {
			t.Errorf("%s round trip mismatch:\n in  %+v\n out %+v", name, msg, out)
		}
	}
}

// TestWireCodecZeroRoundTrip: the zero value of every payload must encode
// and decode back to itself (nil slices stay nil — important because
// DeepEqual-based tests elsewhere distinguish nil from empty).
func TestWireCodecZeroRoundTrip(t *testing.T) {
	for _, msg := range wireFixtures() {
		zero := freshWireLike(msg)
		name := fmt.Sprintf("%T", zero)
		b := zero.appendWire(nil)
		out := freshWireLike(msg)
		r := wire.NewReader(b)
		out.decodeWire(r)
		if err := r.Done(); err != nil {
			t.Errorf("%s: zero decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(zero, out) {
			t.Errorf("%s zero round trip mismatch:\n out %+v", name, out)
		}
	}
}

// TestWireCodecTruncation: every strict prefix of a valid encoding must
// fail decode cleanly (no panic, Done reports an error).
func TestWireCodecTruncation(t *testing.T) {
	for _, msg := range wireFixtures() {
		name := fmt.Sprintf("%T", msg)
		b := msg.appendWire(nil)
		for cut := 0; cut < len(b); cut++ {
			out := freshWireLike(msg)
			r := wire.NewReader(b[:cut])
			out.decodeWire(r)
			if r.Done() == nil {
				t.Fatalf("%s: decode of %d/%d-byte prefix succeeded", name, cut, len(b))
			}
		}
	}
}

// TestWireFixturesCoverDispatchTable guards fixture completeness: every
// args/reply type reachable through the method table has a fixture, so a
// new RPC cannot land without codec tests.
func TestWireFixturesCoverDispatchTable(t *testing.T) {
	have := map[reflect.Type]bool{}
	for _, m := range wireFixtures() {
		have[reflect.TypeOf(m)] = true
	}
	for _, wm := range wireMethods {
		for _, m := range []wireMessage{wm.newArgs(), wm.newReply()} {
			if !have[reflect.TypeOf(m)] {
				t.Errorf("method %s: no wire fixture for %T", wm.name, m)
			}
		}
	}
}

// TestWireMethodIDsStable pins the method-id assignment. These ids are
// wire-protocol surface: reordering wireMethods breaks mixed-version
// clusters, so any id change must come with a protocol version bump.
func TestWireMethodIDsStable(t *testing.T) {
	want := []string{
		"ApplyBatch", "SampleNeighbors", "Degree", "Features", "SetFeatures",
		"Sources", "Stats", "FetchSnapshot", "FetchWALTail", "SyncState",
		"Routing", "UpdateRouting", "FetchShardSnapshot", "ParkShard",
		"ReleaseShard", "DropShard", "PullShard", "ShardDigest", "Scrub",
		"FetchAttrs",
	}
	if len(wireMethods) != len(want) {
		t.Fatalf("wireMethods has %d entries, want %d", len(wireMethods), len(want))
	}
	for id, name := range want {
		if wireMethods[id].name != name {
			t.Errorf("method id %d = %q, want %q", id, wireMethods[id].name, name)
		}
		if got := wireMethodID[name]; got != id {
			t.Errorf("wireMethodID[%s] = %d, want %d", name, got, id)
		}
	}
}

// Fuzz destination of a Features reply: fuzzRows distinct rows of fuzzDim
// floats, row 0 repeated at the last index, inside guard floats on both
// sides that no decode may touch.
const (
	fuzzRows  = 3
	fuzzDim   = 2
	fuzzGuard = 4
)

var fuzzOcc = [][]int{{0, fuzzRows}, {1}, {2}}

// decodeFeaturesIntoGuarded decodes data as a Features reply into a
// guarded fuzz destination and fails t if a guard changed, or if a frame
// that did not decode cleanly with fitting counts wrote anything.
func decodeFeaturesIntoGuarded(t *testing.T, data []byte) {
	buf := make([]float32, fuzzGuard+(fuzzRows+1)*fuzzDim+fuzzGuard)
	lbuf := make([]int32, fuzzGuard+fuzzRows+1+fuzzGuard)
	for i := range buf {
		buf[i] = math.Float32frombits(0x7fc0dead) // a NaN no decode below writes unless asked
	}
	for i := range lbuf {
		lbuf[i] = -99
	}
	out := buf[fuzzGuard : len(buf)-fuzzGuard]
	labels := lbuf[fuzzGuard : len(lbuf)-fuzzGuard]
	reply := FeatureReply{dim: fuzzDim, out: out, labels: labels, occ: runsOf(fuzzOcc)}
	r := wire.NewReader(data)
	reply.decodeWire(r)
	ok := r.Done() == nil && reply.fits()
	for i := 0; i < fuzzGuard; i++ {
		if math.Float32bits(buf[i]) != 0x7fc0dead || math.Float32bits(buf[len(buf)-1-i]) != 0x7fc0dead ||
			lbuf[i] != -99 || lbuf[len(lbuf)-1-i] != -99 {
			t.Fatalf("decode wrote outside its destination: %v / %v", buf, lbuf)
		}
	}
	if !ok {
		for i, x := range out {
			if math.Float32bits(x) != 0x7fc0dead {
				t.Fatalf("a failed decode wrote out[%d] = %v", i, x)
			}
		}
		for i, l := range labels {
			if l != -99 {
				t.Fatalf("a failed decode wrote labels[%d] = %d", i, l)
			}
		}
		return
	}
	r = wire.NewReader(data)
	rows, want := r.Float32s(), r.Int32s()
	for j, occ := range fuzzOcc {
		for _, o := range occ {
			for d := 0; d < fuzzDim; d++ {
				if g, w := math.Float32bits(out[o*fuzzDim+d]), math.Float32bits(rows[j*fuzzDim+d]); g != w {
					t.Fatalf("out[%d][%d] = %08x, want row %d's %08x", o, d, g, j, w)
				}
			}
			if labels[o] != want[j] {
				t.Fatalf("labels[%d] = %d, want %d", o, labels[o], want[j])
			}
		}
	}
}

// featureFuzzSeeds are Features reply bodies for the fuzz destination: a
// fitting one, one a row short, one with a count larger than its bytes,
// one cut inside the label block, and one with trailing bytes.
func featureFuzzSeeds() [][]byte {
	floats := make([]float32, fuzzRows*fuzzDim)
	for i := range floats {
		floats[i] = float32(i) + 0.5
	}
	labels := []int32{4, -5, 6}
	fit := wire.AppendInt32s(wire.AppendFloat32s(nil, floats), labels)
	lying := wire.AppendUvarint(nil, fuzzRows*fuzzDim+1)
	lying = append(lying, fit[1:]...)
	return [][]byte{
		fit,
		wire.AppendInt32s(wire.AppendFloat32s(nil, floats[fuzzDim:]), labels[1:]),
		lying,
		fit[:len(fit)-2],
		append(append([]byte(nil), fit...), 0),
	}
}

// TestFeatureFuzzSeeds runs the Features seeds through the guarded
// destination outside fuzzing, and checks that only the fitting one
// decodes.
func TestFeatureFuzzSeeds(t *testing.T) {
	for i, seed := range featureFuzzSeeds() {
		decodeFeaturesIntoGuarded(t, seed)
		reply := FeatureReply{dim: fuzzDim, out: make([]float32, (fuzzRows+1)*fuzzDim), labels: make([]int32, fuzzRows+1), occ: runsOf(fuzzOcc)}
		r := wire.NewReader(seed)
		reply.decodeWire(r)
		if ok := r.Done() == nil && reply.fits(); ok != (i == 0) {
			t.Fatalf("seed %d: decode ok = %v", i, ok)
		}
	}
}

// FuzzWireDecode feeds arbitrary bytes to every payload decoder. Corrupt
// frames must surface as Reader errors — never panics, never multi-GiB
// allocations from forged counts (Count bounds every slice length against
// the bytes actually present). An attribute export that decodes is also
// checksummed and imported, which index by its row lengths; misaligned
// exports are among the seeds. The bytes are
// also decoded as a Features reply into a guarded destination: a short or
// lying count fails the decode, writes nothing, and nothing is ever written
// out of range.
func FuzzWireDecode(f *testing.F) {
	for _, msg := range wireFixtures() {
		f.Add(msg.appendWire(nil))
	}
	for _, seed := range featureFuzzSeeds() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	for _, c := range misalignedAttrs() {
		f.Add(c.frame)
	}
	attrs := kvstore.New()
	dst := NewService(storage.NewDynamicStore(storage.Options{}), attrs)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, wm := range wireMethods {
			for _, m := range []wireMessage{wm.newArgs(), wm.newReply()} {
				r := wire.NewReader(data)
				m.decodeWire(r)
				_ = r.Done()
			}
		}
		// An attribute export that decodes is safe to checksum and import.
		var export AttrsReply
		r := wire.NewReader(data)
		export.decodeWire(r)
		if r.Done() == nil {
			checksumFeatures(&export)
			attrs.Reset()
			dst.importAttrs(&export)
		}
		decodeFeaturesIntoGuarded(t, data)
	})
}
