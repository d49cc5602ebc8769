package wire

import "platod2gl/internal/graph"

// The graph codecs shared by the RPC payloads and the write-ahead log
// (internal/eventlog), so an event has one byte layout wherever it is
// stored or sent. The layouts belong to Version.

// AppendVertexID packs id as its type byte plus a varint local id.
func AppendVertexID(b []byte, id graph.VertexID) []byte {
	b = append(b, byte(id.Type()))
	return AppendUvarint(b, id.Local())
}

// VertexID reads an id written by AppendVertexID.
func (r *Reader) VertexID() graph.VertexID {
	t := r.Byte()
	local := r.Uvarint()
	if local > graph.MaxLocalID {
		// Poison the decode instead of letting MakeVertexID panic on a
		// corrupt frame.
		r.Invalidate()
		return 0
	}
	return graph.VertexID(uint64(t)<<56 | local)
}

// AppendVertexIDs appends a uvarint count followed by each id.
func AppendVertexIDs(b []byte, ids []graph.VertexID) []byte {
	b = AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = AppendVertexID(b, id)
	}
	return b
}

// VertexIDs reads a slice written by AppendVertexIDs.
func (r *Reader) VertexIDs() []graph.VertexID {
	// Each id is at least 2 bytes (type byte + 1 varint byte).
	n := r.Count(2)
	if r.err != nil || n == 0 {
		return nil
	}
	ids := make([]graph.VertexID, n)
	for i := range ids {
		ids[i] = r.VertexID()
	}
	return ids
}

// AppendEvent lays an event out in ~15-21 bytes (vs ~34 under gob): kind,
// edge type, packed src/dst, fixed weight, varint timestamp.
func AppendEvent(b []byte, ev graph.Event) []byte {
	b = append(b, byte(ev.Kind), byte(ev.Edge.Type))
	b = AppendVertexID(b, ev.Edge.Src)
	b = AppendVertexID(b, ev.Edge.Dst)
	b = AppendFloat64(b, ev.Edge.Weight)
	return AppendVarint(b, ev.Timestamp)
}

// Event reads an event written by AppendEvent.
func (r *Reader) Event() graph.Event {
	var ev graph.Event
	ev.Kind = graph.EventKind(r.Byte())
	ev.Edge.Type = graph.EdgeType(r.Byte())
	ev.Edge.Src = r.VertexID()
	ev.Edge.Dst = r.VertexID()
	ev.Edge.Weight = r.Float64()
	ev.Timestamp = r.Varint()
	return ev
}

// AppendEvents appends a uvarint count followed by each event.
func AppendEvents(b []byte, evs []graph.Event) []byte {
	b = AppendUvarint(b, uint64(len(evs)))
	for _, ev := range evs {
		b = AppendEvent(b, ev)
	}
	return b
}

// Events reads a slice written by AppendEvents.
func (r *Reader) Events() []graph.Event {
	// Minimum event size: kind + type + two 2-byte ids + weight + timestamp.
	n := r.Count(15)
	if r.err != nil || n == 0 {
		return nil
	}
	evs := make([]graph.Event, n)
	for i := range evs {
		evs[i] = r.Event()
	}
	return evs
}
