// End-to-end payload checksums for the hot RPC surface. The wire framing
// and TCP each have their own checks, but neither protects against corruption
// that happens before encoding or after decoding (a flipped bit in a
// buffer, a bad NIC offload, a heap error) — and a corrupted topology batch
// silently poisons training. Every bulk payload (ApplyBatch events,
// snapshots, WAL tails, shard exports) therefore carries a checksum the
// receiver recomputes before applying anything; a payload without a
// matching Sum is rejected.
package cluster

import (
	"fmt"
	"hash/crc32"
	"math"

	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
)

// checksumError is a payload-verification failure. Its kind makes clients
// treat it as transient: a retry re-sends the bytes and usually succeeds.
func checksumError(what string, have, want uint64) error {
	return &ServerError{Kind: KindChecksum,
		Msg: fmt.Sprintf("cluster: payload checksum mismatch: %s (have %016x, want %016x)", what, have, want)}
}

// checksumEvents folds an event batch into one checksum. Order-dependent by
// design: this verifies a specific payload, not logical state (state
// comparison is the digests' job).
func checksumEvents(events []graph.Event) uint64 {
	h := graph.Mix64(uint64(len(events)) ^ 0x7061796c6f616421)
	for i := range events {
		ev := &events[i]
		h = graph.Mix64(h ^ uint64(ev.Kind))
		h = graph.Mix64(h ^ uint64(ev.Edge.Src))
		h = graph.Mix64(h ^ uint64(ev.Edge.Dst))
		h = graph.Mix64(h ^ uint64(ev.Edge.Type))
		h = graph.Mix64(h ^ math.Float64bits(ev.Edge.Weight))
		h = graph.Mix64(h ^ uint64(ev.Timestamp))
	}
	return h
}

// checksumRecords folds a WAL-tail chunk — each record's identity plus its
// events — into one checksum.
func checksumRecords(recs []eventlog.BatchRecord) uint64 {
	h := graph.Mix64(uint64(len(recs)) ^ 0x77616c7461696c21)
	for i := range recs {
		rec := &recs[i]
		h = graph.Mix64(h ^ rec.Seq)
		h = graph.Mix64(h ^ rec.ClientID)
		h = graph.Mix64(h ^ rec.ClientSeq)
		h = graph.Mix64(h ^ checksumEvents(rec.Events))
	}
	return h
}

// checksumFeatures folds an attribute export into one checksum.
func checksumFeatures(r *AttrsReply) uint64 {
	h := graph.Mix64(uint64(len(r.Nodes)) ^ 0x6665617473756d21)
	for i, id := range r.Nodes {
		h = graph.Mix64(h ^ uint64(id))
		h = graph.Mix64(h ^ uint64(uint32(r.RowLens[i])))
		h = graph.Mix64(h ^ uint64(uint32(r.Labels[i])))
		if r.HasLabel[i] {
			h = graph.Mix64(h ^ 0xb5)
		}
	}
	for _, v := range r.Data {
		h = graph.Mix64(h ^ uint64(math.Float32bits(v)))
	}
	for i, k := range r.EdgeKeys {
		h = graph.Mix64(h ^ uint64(k.Src))
		h = graph.Mix64(h ^ uint64(k.Dst))
		h = graph.Mix64(h ^ uint64(k.Type))
		h = graph.Mix64(h ^ uint64(uint32(r.EdgeLens[i])))
	}
	for _, v := range r.EdgeData {
		h = graph.Mix64(h ^ uint64(math.Float32bits(v)))
	}
	return h
}

var payloadCRCTable = crc32.MakeTable(crc32.Castagnoli)

// checksumBytes checksums an opaque payload (snapshot images).
func checksumBytes(b []byte) uint64 {
	return uint64(crc32.Checksum(b, payloadCRCTable))
}

// verifySum checks a received payload's checksum against the sender's,
// counting a mismatch as detected corruption.
func verifySum(m *Metrics, what string, have, want uint64) error {
	if have == want {
		return nil
	}
	m.CorruptionDetected.Inc()
	return checksumError(what, have, want)
}
