// Hand-rolled wire codecs for every RPC payload struct. Layouts exploit
// what gob cannot: vertex ids are a type byte plus a varint of the 56-bit
// local id (frontier ids are small, so 2-4 bytes instead of 8+), counts and
// shard/epoch fields are varints, and the bulk payloads — feature matrices,
// label vectors, snapshot bytes — are flat little-endian copies with no
// per-element reflection. Checksums (Sum fields) ride as fixed 8-byte
// words, preserving the end-to-end integrity protocol unchanged.
//
// Every struct encodes with appendWire and decodes with decodeWire against
// a bounds-checked wire.Reader; decode failures surface through
// Reader.Err/Done, never panics. A decoder assigns every field it carries,
// since the transport decodes straight into the caller's reply. The layouts
// belong to wire.Version; they change only together with a version bump.
// Vertex ids and events use internal/wire's codecs, and FetchWALTail's
// records eventlog's record layout, so the RPCs and the write-ahead log
// share one byte layout for both.
package cluster

import (
	"encoding/binary"
	"slices"

	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/wire"
)

// wireMessage is implemented by every RPC arg/reply struct.
type wireMessage interface {
	appendWire(b []byte) []byte
	decodeWire(r *wire.Reader)
}

// --- shared sub-codecs ---------------------------------------------------

func appendDedup(b []byte, entries []DedupEntry) []byte {
	b = wire.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = wire.AppendUvarint(b, e.ClientID)
		b = wire.AppendUvarint(b, e.Seq)
	}
	return b
}

func readDedup(r *wire.Reader) []DedupEntry {
	n := r.Count(2)
	if r.Err() != nil || n == 0 {
		return nil
	}
	entries := make([]DedupEntry, n)
	for i := range entries {
		entries[i].ClientID = r.Uvarint()
		entries[i].Seq = r.Uvarint()
	}
	return entries
}

func appendShardMap(b []byte, m *ShardMap) []byte {
	b = wire.AppendUvarint(b, m.Epoch)
	b = wire.AppendVarint(b, int64(m.NumShards))
	b = wire.AppendVarint(b, int64(m.Replicas))
	b = wire.AppendUvarint(b, uint64(len(m.Servers)))
	for _, s := range m.Servers {
		b = wire.AppendString(b, s)
	}
	b = wire.AppendUvarint(b, uint64(len(m.Assign)))
	for _, a := range m.Assign {
		b = wire.AppendVarint(b, int64(a))
	}
	return b
}

func readShardMap(r *wire.Reader, m *ShardMap) {
	m.Epoch = r.Uvarint()
	m.NumShards = int(r.Varint())
	m.Replicas = int(r.Varint())
	m.Servers, m.Assign = nil, nil
	if n := r.Count(1); r.Err() == nil && n > 0 {
		m.Servers = make([]string, n)
		for i := range m.Servers {
			m.Servers[i] = r.String()
		}
	}
	if n := r.Count(1); r.Err() == nil && n > 0 {
		m.Assign = make([]int, n)
		for i := range m.Assign {
			m.Assign[i] = int(r.Varint())
		}
	}
}

func appendStrings(b []byte, v []string) []byte {
	b = wire.AppendUvarint(b, uint64(len(v)))
	for _, s := range v {
		b = wire.AppendString(b, s)
	}
	return b
}

func readStrings(r *wire.Reader) []string {
	n := r.Count(1)
	if r.Err() != nil || n == 0 {
		return nil
	}
	v := make([]string, n)
	for i := range v {
		v[i] = r.String()
	}
	return v
}

// --- data plane ----------------------------------------------------------

func (a *BatchArgs) appendWire(b []byte) []byte {
	b = wire.AppendEvents(b, a.Events)
	b = wire.AppendUvarint(b, a.ClientID)
	b = wire.AppendUvarint(b, a.Seq)
	b = wire.AppendVarint(b, int64(a.Shard))
	b = wire.AppendUvarint(b, a.RouteEpoch)
	return wire.AppendUint64(b, a.Sum)
}

func (a *BatchArgs) decodeWire(r *wire.Reader) {
	a.Events = r.Events()
	a.ClientID = r.Uvarint()
	a.Seq = r.Uvarint()
	a.Shard = int(r.Varint())
	a.RouteEpoch = r.Uvarint()
	a.Sum = r.Uint64()
}

func (a *BatchReply) appendWire(b []byte) []byte {
	b = wire.AppendVarint(b, a.NumEdges)
	return wire.AppendBool(b, a.Duplicate)
}

func (a *BatchReply) decodeWire(r *wire.Reader) {
	a.NumEdges = r.Varint()
	a.Duplicate = r.Bool()
}

func (a *SampleArgs) appendWire(b []byte) []byte {
	b = wire.AppendVertexIDs(b, a.Seeds)
	b = append(b, byte(a.Type))
	b = wire.AppendVarint(b, int64(a.Fanout))
	b = wire.AppendVarint(b, a.Seed)
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendUvarint(b, a.RouteEpoch)
}

func (a *SampleArgs) decodeWire(r *wire.Reader) {
	a.Seeds = r.VertexIDs()
	a.Type = graph.EdgeType(r.Byte())
	a.Fanout = int(r.Varint())
	a.Seed = r.Varint()
	a.Shard = int(r.Varint())
	a.RouteEpoch = r.Uvarint()
}

func (a *SampleReply) appendWire(b []byte) []byte { return wire.AppendVertexIDs(b, a.Neighbors) }

func (a *SampleReply) decodeWire(r *wire.Reader) { a.Neighbors = r.VertexIDs() }

func (a *DegreeArgs) appendWire(b []byte) []byte {
	b = wire.AppendVertexIDs(b, a.Nodes)
	b = append(b, byte(a.Type))
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendUvarint(b, a.RouteEpoch)
}

func (a *DegreeArgs) decodeWire(r *wire.Reader) {
	a.Nodes = r.VertexIDs()
	a.Type = graph.EdgeType(r.Byte())
	a.Shard = int(r.Varint())
	a.RouteEpoch = r.Uvarint()
}

func (a *DegreeReply) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(a.Degrees)))
	for _, d := range a.Degrees {
		b = wire.AppendVarint(b, int64(d))
	}
	return b
}

func (a *DegreeReply) decodeWire(r *wire.Reader) {
	a.Degrees = nil
	n := r.Count(1)
	if r.Err() != nil || n == 0 {
		return
	}
	a.Degrees = make([]int, n)
	for i := range a.Degrees {
		a.Degrees[i] = int(r.Varint())
	}
}

func (a *FeatureArgs) appendWire(b []byte) []byte {
	b = wire.AppendVertexIDs(b, a.Nodes)
	b = wire.AppendVarint(b, int64(a.Dim))
	b = wire.AppendBool(b, a.WithLabels)
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendUvarint(b, a.RouteEpoch)
}

func (a *FeatureArgs) decodeWire(r *wire.Reader) {
	a.Nodes = r.VertexIDs()
	a.Dim = int(r.Varint())
	a.WithLabels = r.Bool()
	a.Shard = int(r.Varint())
	a.RouteEpoch = r.Uvarint()
}

// appendWire grows the frame by both blocks once and, with one store lookup
// per vertex, copies its stored vector into its row, cut to dim, zeroing
// what the vector does not cover, and its label into its label slot:
// GatherFeatures' and GatherLabels' layouts, written into the frame.
func (a *FeatureReply) appendWire(b []byte) []byte {
	n := len(a.nodes) * a.dim
	nLabels := 0
	if a.withLabels {
		nLabels = len(a.nodes)
	}
	b = wire.AppendUvarint(b, uint64(n))
	off := len(b)
	b = slices.Grow(b, 4*n+binary.MaxVarintLen64+4*nLabels)[:off+4*n]
	b = wire.AppendUvarint(b, uint64(nLabels))
	labelOff := len(b)
	b = b[:labelOff+4*nLabels]
	for i, id := range a.nodes {
		row := b[off+4*i*a.dim : off+4*(i+1)*a.dim]
		f, l := a.attrs.FeaturesLabel(id)
		f = f[:min(len(f), a.dim)]
		wire.PutFloat32s(row, f)
		clear(row[4*len(f):])
		if a.withLabels {
			binary.LittleEndian.PutUint32(b[labelOff+4*i:], uint32(l))
		}
	}
	return b
}

// decodeWire writes row j into the first of run j's rows of out and
// copies it to the others, and label j to all of them. It writes nothing
// unless the whole frame is well formed and its counts fit the
// destination.
func (a *FeatureReply) decodeWire(r *wire.Reader) {
	var rows, labels []byte
	a.floats, rows = r.Block32()
	a.nLabels, labels = r.Block32()
	if r.Err() != nil || r.Remaining() != 0 || !a.fits() {
		return
	}
	for j := 0; j < a.occ.len(); j++ {
		occ := a.occ.run(j)
		at := int(occ[0]) * a.dim
		first := a.out[at : at+a.dim]
		wire.DecodeFloat32s(first, rows[4*j*a.dim:])
		for _, o := range occ[1:] {
			copy(a.out[int(o)*a.dim:(int(o)+1)*a.dim], first)
		}
		if a.labels != nil {
			l := int32(binary.LittleEndian.Uint32(labels[4*j:]))
			for _, o := range occ {
				a.labels[o] = l
			}
		}
	}
}

// fits reports whether the decoded counts are what the destination holds:
// dim floats per distinct row and, when labels were asked for, one label
// each.
func (a *FeatureReply) fits() bool {
	return a.floats == a.occ.len()*a.dim && (a.labels == nil || a.nLabels == a.occ.len())
}

func (a *SourcesArgs) appendWire(b []byte) []byte {
	b = append(b, byte(a.Type))
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendUvarint(b, a.RouteEpoch)
}

func (a *SourcesArgs) decodeWire(r *wire.Reader) {
	a.Type = graph.EdgeType(r.Byte())
	a.Shard = int(r.Varint())
	a.RouteEpoch = r.Uvarint()
}

func (a *SourcesReply) appendWire(b []byte) []byte { return wire.AppendVertexIDs(b, a.Nodes) }

func (a *SourcesReply) decodeWire(r *wire.Reader) { a.Nodes = r.VertexIDs() }

func (a *SetFeaturesArgs) appendWire(b []byte) []byte {
	b = wire.AppendVertexIDs(b, a.Nodes)
	b = wire.AppendVarint(b, int64(a.Dim))
	b = wire.AppendFloat32s(b, a.Data)
	b = wire.AppendInt32s(b, a.Labels)
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendUvarint(b, a.RouteEpoch)
}

func (a *SetFeaturesArgs) decodeWire(r *wire.Reader) {
	a.Nodes = r.VertexIDs()
	a.Dim = int(r.Varint())
	a.Data = r.Float32s()
	a.Labels = r.Int32s()
	a.Shard = int(r.Varint())
	a.RouteEpoch = r.Uvarint()
}

func (a *SetFeaturesReply) appendWire(b []byte) []byte { return b }

func (a *SetFeaturesReply) decodeWire(*wire.Reader) {}

func (a *StatsArgs) appendWire(b []byte) []byte { return b }

func (a *StatsArgs) decodeWire(*wire.Reader) {}

func (a *StatsReply) appendWire(b []byte) []byte {
	b = wire.AppendVarint(b, a.NumEdges)
	b = wire.AppendVarint(b, a.MemoryBytes)
	return wire.AppendVarint(b, int64(a.NumSources))
}

func (a *StatsReply) decodeWire(r *wire.Reader) {
	a.NumEdges = r.Varint()
	a.MemoryBytes = r.Varint()
	a.NumSources = int(r.Varint())
}

// --- replica sync --------------------------------------------------------

func (a *SyncStateArgs) appendWire(b []byte) []byte { return b }

func (a *SyncStateArgs) decodeWire(*wire.Reader) {}

func (a *SyncStateReply) appendWire(b []byte) []byte {
	b = wire.AppendBool(b, a.Ready)
	b = wire.AppendUvarint(b, a.SyncEpoch)
	b = wire.AppendUvarint(b, a.WALSeq)
	return wire.AppendVarint(b, a.NumEdges)
}

func (a *SyncStateReply) decodeWire(r *wire.Reader) {
	a.Ready = r.Bool()
	a.SyncEpoch = r.Uvarint()
	a.WALSeq = r.Uvarint()
	a.NumEdges = r.Varint()
}

func (a *SnapshotArgs) appendWire(b []byte) []byte { return b }

func (a *SnapshotArgs) decodeWire(*wire.Reader) {}

func (a *SnapshotReply) appendWire(b []byte) []byte {
	b = wire.AppendBytes(b, a.Snapshot)
	b = wire.AppendUvarint(b, a.WALSeq)
	b = appendDedup(b, a.Dedup)
	return wire.AppendUint64(b, a.Sum)
}

func (a *SnapshotReply) decodeWire(r *wire.Reader) {
	a.Snapshot = r.Bytes()
	a.WALSeq = r.Uvarint()
	a.Dedup = readDedup(r)
	a.Sum = r.Uint64()
}

func (a *WALTailArgs) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, a.AfterSeq)
	return wire.AppendVarint(b, int64(a.MaxBatches))
}

func (a *WALTailArgs) decodeWire(r *wire.Reader) {
	a.AfterSeq = r.Uvarint()
	a.MaxBatches = int(r.Varint())
}

func (a *WALTailReply) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(a.Records)))
	for _, rec := range a.Records {
		b = eventlog.AppendRecord(b, rec)
	}
	b = wire.AppendUvarint(b, a.EndSeq)
	b = wire.AppendUvarint(b, a.WriterSeq)
	return wire.AppendUint64(b, a.Sum)
}

func (a *WALTailReply) decodeWire(r *wire.Reader) {
	a.Records = nil
	n := r.Count(4)
	if n > 0 {
		a.Records = make([]eventlog.BatchRecord, n)
		for i := range a.Records {
			a.Records[i] = eventlog.ReadRecord(r)
		}
	}
	a.EndSeq = r.Uvarint()
	a.WriterSeq = r.Uvarint()
	a.Sum = r.Uint64()
}

// --- routing -------------------------------------------------------------

func (a *RoutingArgs) appendWire(b []byte) []byte { return b }

func (a *RoutingArgs) decodeWire(*wire.Reader) {}

func (a *RoutingReply) appendWire(b []byte) []byte {
	b = wire.AppendBool(b, a.Has)
	return appendShardMap(b, &a.Map)
}

func (a *RoutingReply) decodeWire(r *wire.Reader) {
	a.Has = r.Bool()
	readShardMap(r, &a.Map)
}

func (a *UpdateRoutingArgs) appendWire(b []byte) []byte { return appendShardMap(b, &a.Map) }

func (a *UpdateRoutingArgs) decodeWire(r *wire.Reader) { readShardMap(r, &a.Map) }

func (a *UpdateRoutingReply) appendWire(b []byte) []byte { return wire.AppendUvarint(b, a.Epoch) }

func (a *UpdateRoutingReply) decodeWire(r *wire.Reader) { a.Epoch = r.Uvarint() }

// --- migration -----------------------------------------------------------

func (a *ShardSnapshotArgs) appendWire(b []byte) []byte { return wire.AppendVarint(b, int64(a.Shard)) }

func (a *ShardSnapshotArgs) decodeWire(r *wire.Reader) { a.Shard = int(r.Varint()) }

func (a *ShardSnapshotReply) appendWire(b []byte) []byte {
	b = wire.AppendEvents(b, a.Events)
	b = wire.AppendUvarint(b, a.WALSeq)
	b = wire.AppendVarint(b, int64(a.NumShards))
	b = appendDedup(b, a.Dedup)
	return wire.AppendUint64(b, a.Sum)
}

func (a *ShardSnapshotReply) decodeWire(r *wire.Reader) {
	a.Events = r.Events()
	a.WALSeq = r.Uvarint()
	a.NumShards = int(r.Varint())
	a.Dedup = readDedup(r)
	a.Sum = r.Uint64()
}

func (a *ParkShardArgs) appendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendVarint(b, a.TTLMillis)
}

func (a *ParkShardArgs) decodeWire(r *wire.Reader) {
	a.Shard = int(r.Varint())
	a.TTLMillis = r.Varint()
}

func (a *ParkShardReply) appendWire(b []byte) []byte { return wire.AppendUvarint(b, a.WALSeq) }

func (a *ParkShardReply) decodeWire(r *wire.Reader) { a.WALSeq = r.Uvarint() }

func (a *ReleaseShardArgs) appendWire(b []byte) []byte { return wire.AppendVarint(b, int64(a.Shard)) }

func (a *ReleaseShardArgs) decodeWire(r *wire.Reader) { a.Shard = int(r.Varint()) }

func (a *ReleaseShardReply) appendWire(b []byte) []byte { return b }

func (a *ReleaseShardReply) decodeWire(*wire.Reader) {}

func (a *DropShardArgs) appendWire(b []byte) []byte { return wire.AppendVarint(b, int64(a.Shard)) }

func (a *DropShardArgs) decodeWire(r *wire.Reader) { a.Shard = int(r.Varint()) }

func (a *DropShardReply) appendWire(b []byte) []byte {
	b = wire.AppendVarint(b, a.DroppedEdges)
	return wire.AppendVarint(b, a.DroppedVertices)
}

func (a *DropShardReply) decodeWire(r *wire.Reader) {
	a.DroppedEdges = r.Varint()
	a.DroppedVertices = r.Varint()
}

func (a *PullShardArgs) appendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(a.Shard))
	b = wire.AppendString(b, a.Source)
	b = wire.AppendUvarint(b, a.AfterSeq)
	b = wire.AppendUvarint(b, a.UntilSeq)
	return wire.AppendVarint(b, a.CallTimeoutMillis)
}

func (a *PullShardArgs) decodeWire(r *wire.Reader) {
	a.Shard = int(r.Varint())
	a.Source = r.String()
	a.AfterSeq = r.Uvarint()
	a.UntilSeq = r.Uvarint()
	a.CallTimeoutMillis = r.Varint()
}

func (a *PullShardReply) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, a.EndSeq)
	b = wire.AppendVarint(b, a.Bytes)
	return wire.AppendVarint(b, a.Batches)
}

func (a *PullShardReply) decodeWire(r *wire.Reader) {
	a.EndSeq = r.Uvarint()
	a.Bytes = r.Varint()
	a.Batches = r.Varint()
}

// --- anti-entropy --------------------------------------------------------

func (a *DigestArgs) appendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(a.Shard))
	return wire.AppendVarint(b, int64(a.NumShards))
}

func (a *DigestArgs) decodeWire(r *wire.Reader) {
	a.Shard = int(r.Varint())
	a.NumShards = int(r.Varint())
}

func appendDigest(b []byte, d *DigestReply) []byte {
	b = wire.AppendUint64(b, d.Topology)
	b = wire.AppendUint64(b, d.Attrs)
	b = wire.AppendVarint(b, d.NumEdges)
	b = wire.AppendUvarint(b, d.WALSeq)
	b = wire.AppendUvarint(b, d.SyncEpoch)
	return wire.AppendBool(b, d.Ready)
}

func readDigest(r *wire.Reader, d *DigestReply) {
	d.Topology = r.Uint64()
	d.Attrs = r.Uint64()
	d.NumEdges = r.Varint()
	d.WALSeq = r.Uvarint()
	d.SyncEpoch = r.Uvarint()
	d.Ready = r.Bool()
}

func (a *DigestReply) appendWire(b []byte) []byte { return appendDigest(b, a) }

func (a *DigestReply) decodeWire(r *wire.Reader) { readDigest(r, a) }

func (a *AttrsArgs) appendWire(b []byte) []byte { return wire.AppendVarint(b, int64(a.Shard)) }

func (a *AttrsArgs) decodeWire(r *wire.Reader) { a.Shard = int(r.Varint()) }

func (a *AttrsReply) appendWire(b []byte) []byte {
	b = wire.AppendVertexIDs(b, a.Nodes)
	b = wire.AppendInt32s(b, a.RowLens)
	b = wire.AppendFloat32s(b, a.Data)
	b = wire.AppendInt32s(b, a.Labels)
	b = wire.AppendBools(b, a.HasLabel)
	b = wire.AppendUvarint(b, uint64(len(a.EdgeKeys)))
	for _, k := range a.EdgeKeys {
		b = wire.AppendVertexID(b, k.Src)
		b = wire.AppendVertexID(b, k.Dst)
		b = append(b, byte(k.Type))
	}
	b = wire.AppendInt32s(b, a.EdgeLens)
	b = wire.AppendFloat32s(b, a.EdgeData)
	return wire.AppendUint64(b, a.Sum)
}

// decodeWire fails the decode unless the rows line up with their keys and
// lengths (AttrsReply.aligned), so no receiver indexes past a slice's end.
func (a *AttrsReply) decodeWire(r *wire.Reader) {
	a.Nodes = r.VertexIDs()
	a.RowLens = r.Int32s()
	a.Data = r.Float32s()
	a.Labels = r.Int32s()
	a.HasLabel = r.Bools()
	// Minimum edge key: two 2-byte ids + the type byte.
	a.EdgeKeys = nil
	n := r.Count(5)
	if n > 0 {
		a.EdgeKeys = make([]kvstore.EdgeKey, n)
		for i := range a.EdgeKeys {
			a.EdgeKeys[i].Src = r.VertexID()
			a.EdgeKeys[i].Dst = r.VertexID()
			a.EdgeKeys[i].Type = graph.EdgeType(r.Byte())
		}
	}
	a.EdgeLens = r.Int32s()
	a.EdgeData = r.Float32s()
	a.Sum = r.Uint64()
	if !a.aligned() {
		r.Invalidate()
	}
}

func (a *ScrubArgs) appendWire(b []byte) []byte { return b }

func (a *ScrubArgs) decodeWire(*wire.Reader) {}

func (a *ScrubReply) appendWire(b []byte) []byte {
	rep := &a.Report
	b = wire.AppendVarint(b, rep.DurationNanos)
	b = appendDigest(b, &rep.Local)
	b = wire.AppendUvarint(b, uint64(len(rep.Peers)))
	for i := range rep.Peers {
		p := &rep.Peers[i]
		b = wire.AppendString(b, p.Addr)
		b = wire.AppendString(b, p.Err)
		b = appendDigest(b, &p.Digest)
	}
	b = appendStrings(b, rep.DiskErrors)
	b = wire.AppendBool(b, rep.Diverged)
	b = wire.AppendBool(b, rep.Corrupt)
	b = wire.AppendString(b, rep.RepairPeer)
	b = wire.AppendBool(b, rep.Repaired)
	b = wire.AppendString(b, rep.RepairErr)
	return wire.AppendVarint(b, rep.RepairBytes)
}

func (a *ScrubReply) decodeWire(r *wire.Reader) {
	rep := &a.Report
	rep.DurationNanos = r.Varint()
	readDigest(r, &rep.Local)
	rep.Peers = nil
	n := r.Count(20)
	if n > 0 {
		rep.Peers = make([]PeerDigest, n)
		for i := range rep.Peers {
			rep.Peers[i].Addr = r.String()
			rep.Peers[i].Err = r.String()
			readDigest(r, &rep.Peers[i].Digest)
		}
	}
	rep.DiskErrors = readStrings(r)
	rep.Diverged = r.Bool()
	rep.Corrupt = r.Bool()
	rep.RepairPeer = r.String()
	rep.Repaired = r.Bool()
	rep.RepairErr = r.String()
	rep.RepairBytes = r.Varint()
}
