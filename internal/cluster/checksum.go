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
	"strings"

	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
)

// checksumMismatchMsg prefixes every payload-verification failure. Clients
// match on it (the error crosses the wire as a bare string) to classify the
// failure as transient — a retry re-sends the bytes and usually succeeds.
const checksumMismatchMsg = "cluster: payload checksum mismatch"

func checksumError(what string, have, want uint64) error {
	return fmt.Errorf("%s: %s (have %016x, want %016x)", checksumMismatchMsg, what, have, want)
}

// isChecksumMismatch reports whether err is a payload-verification failure,
// possibly crossing the wire as an rpc.ServerError string.
func isChecksumMismatch(err error) bool {
	return err != nil && strings.Contains(err.Error(), checksumMismatchMsg)
}

// checksumEvents folds an event batch into one checksum. Order-dependent by
// design: this verifies a specific payload, not logical state (state
// comparison is the digests' job).
func checksumEvents(events []graph.Event) uint64 {
	h := mix64(uint64(len(events)) ^ 0x7061796c6f616421)
	for i := range events {
		ev := &events[i]
		h = mix64(h ^ uint64(ev.Kind))
		h = mix64(h ^ uint64(ev.Edge.Src))
		h = mix64(h ^ uint64(ev.Edge.Dst))
		h = mix64(h ^ uint64(ev.Edge.Type))
		h = mix64(h ^ math.Float64bits(ev.Edge.Weight))
		h = mix64(h ^ uint64(ev.Timestamp))
	}
	return h
}

// checksumRecords folds a WAL-tail chunk — each record's identity plus its
// events — into one checksum.
func checksumRecords(recs []eventlog.BatchRecord) uint64 {
	h := mix64(uint64(len(recs)) ^ 0x77616c7461696c21)
	for i := range recs {
		rec := &recs[i]
		h = mix64(h ^ rec.Seq)
		h = mix64(h ^ rec.ClientID)
		h = mix64(h ^ rec.ClientSeq)
		h = mix64(h ^ checksumEvents(rec.Events))
	}
	return h
}

// checksumFeatures folds an attribute export into one checksum.
func checksumFeatures(r *AttrsReply) uint64 {
	h := mix64(uint64(len(r.Nodes)) ^ 0x6665617473756d21)
	for i, id := range r.Nodes {
		h = mix64(h ^ uint64(id))
		h = mix64(h ^ uint64(uint32(r.RowLens[i])))
		h = mix64(h ^ uint64(uint32(r.Labels[i])))
		if r.HasLabel[i] {
			h = mix64(h ^ 0xb5)
		}
	}
	for _, v := range r.Data {
		h = mix64(h ^ uint64(math.Float32bits(v)))
	}
	for i, k := range r.EdgeKeys {
		h = mix64(h ^ uint64(k.Src))
		h = mix64(h ^ uint64(k.Dst))
		h = mix64(h ^ uint64(k.Type))
		h = mix64(h ^ uint64(uint32(r.EdgeLens[i])))
	}
	for _, v := range r.EdgeData {
		h = mix64(h ^ uint64(math.Float32bits(v)))
	}
	return h
}

var payloadCRCTable = crc32.MakeTable(crc32.Castagnoli)

// checksumBytes checksums an opaque payload (snapshot images).
func checksumBytes(b []byte) uint64 {
	return uint64(crc32.Checksum(b, payloadCRCTable))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
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
