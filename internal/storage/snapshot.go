package storage

import (
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"platod2gl/internal/graph"
)

// Snapshot persistence: a graph server must survive restarts without
// replaying the full event history, so the store can serialize its topology
// to any io.Writer and rebuild from it. The format is a gob stream of
// per-source adjacency records — deliberately engine-independent, so a
// snapshot taken from one configuration (capacity, α, compression) loads
// into any other.
//
// Version 2 appends a CRC-32C trailer record covering every stream byte
// before it, so a bit-flipped snapshot — on disk or in flight over the
// replica catch-up RPCs — is rejected at load instead of silently building
// a wrong topology. Version 1 snapshots (no trailer) still load.

const (
	snapshotMagic   = "platod2gl-snapshot"
	snapshotVersion = 2
)

type snapHeader struct {
	Magic        string
	Version      int
	NumRelations int
}

type snapRelation struct {
	Type       graph.EdgeType
	NumSources int
}

type snapSource struct {
	Src     graph.VertexID
	IDs     []uint64
	Weights []float64
}

// snapTrailer closes a v2 stream with the checksum of all preceding bytes.
type snapTrailer struct {
	CRC uint32
}

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// crcWriter hashes every byte it forwards.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, snapCRCTable, p[:n])
	return n, err
}

// crcReader hashes every byte consumed. It implements io.ByteReader so
// gob.Decoder reads from it directly (no internal bufio read-ahead), which
// keeps the hash exactly in step with the messages decoded — required for
// excluding the trailer record from its own checksum.
type crcReader struct {
	r   io.Reader
	b   [1]byte
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, snapCRCTable, p[:n])
	return n, err
}

func (cr *crcReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(cr.r, cr.b[:]); err != nil {
		return 0, err
	}
	cr.crc = crc32.Update(cr.crc, snapCRCTable, cr.b[:])
	return cr.b[0], nil
}

// Save serializes the full topology. Concurrent updates during Save are
// safe but may or may not be included.
func (s *DynamicStore) Save(w io.Writer) error {
	cw := &crcWriter{w: w}
	enc := gob.NewEncoder(cw)
	rels := s.relations()
	if err := enc.Encode(snapHeader{Magic: snapshotMagic, Version: snapshotVersion, NumRelations: len(rels)}); err != nil {
		return fmt.Errorf("storage: encode header: %w", err)
	}
	for _, r := range rels {
		srcs := r.trees.Keys()
		if err := enc.Encode(snapRelation{Type: r.et, NumSources: len(srcs)}); err != nil {
			return fmt.Errorf("storage: encode relation %d: %w", r.et, err)
		}
		for _, src := range srcs {
			ent, _ := r.trees.Get(src)
			if ent == nil {
				// Deleted concurrently: emit an empty record to keep counts.
				if err := enc.Encode(snapSource{Src: graph.VertexID(src)}); err != nil {
					return err
				}
				continue
			}
			ent.mu.RLock()
			ids, weights := ent.tree.Neighbors()
			ent.mu.RUnlock()
			if err := enc.Encode(snapSource{Src: graph.VertexID(src), IDs: ids, Weights: weights}); err != nil {
				return fmt.Errorf("storage: encode source %d: %w", src, err)
			}
		}
	}
	// The trailer checksums everything before it (its own bytes excluded).
	if err := enc.Encode(snapTrailer{CRC: cw.crc}); err != nil {
		return fmt.Errorf("storage: encode trailer: %w", err)
	}
	return nil
}

// Load rebuilds topology from a snapshot into the store (which should be
// empty; loaded edges merge with any existing ones otherwise). Version-2
// streams are checksum-verified; a CRC mismatch fails the load, though
// records decoded before the trailer have already been merged — callers that
// must stay clean on failure Reset and retry from another source.
func (s *DynamicStore) Load(rd io.Reader) error {
	return walkSnapshot(rd, func(et graph.EdgeType, rec snapSource) error {
		ent := s.entry(rec.Src, et, true)
		ent.mu.Lock()
		var added int64
		for j, id := range rec.IDs {
			if ent.tree.Insert(id, rec.Weights[j]) {
				added++
			}
		}
		ent.mu.Unlock()
		s.numEdges.Add(added)
		return nil
	})
}

// VerifySnapshot streams through a snapshot checking structure and, on v2,
// the CRC trailer, without building a store. This is what a scrubber runs
// against the on-disk snapshot file: cheap enough for periodic checks, and
// a failure pinpoints corruption before a restart would trip over it.
func VerifySnapshot(rd io.Reader) error {
	return walkSnapshot(rd, func(graph.EdgeType, snapSource) error { return nil })
}

// walkSnapshot decodes a snapshot stream, handing each non-empty source
// record to fn, and verifies the v2 CRC trailer.
func walkSnapshot(rd io.Reader, fn func(et graph.EdgeType, rec snapSource) error) error {
	cr := &crcReader{r: rd}
	dec := gob.NewDecoder(cr)
	var h snapHeader
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("storage: decode header: %w", err)
	}
	if h.Magic != snapshotMagic {
		return fmt.Errorf("storage: not a platod2gl snapshot (magic %q)", h.Magic)
	}
	if h.Version != 1 && h.Version != snapshotVersion {
		return fmt.Errorf("storage: unsupported snapshot version %d", h.Version)
	}
	for rel := 0; rel < h.NumRelations; rel++ {
		var sr snapRelation
		if err := dec.Decode(&sr); err != nil {
			return fmt.Errorf("storage: decode relation %d: %w", rel, err)
		}
		for i := 0; i < sr.NumSources; i++ {
			var rec snapSource
			if err := dec.Decode(&rec); err != nil {
				return fmt.Errorf("storage: decode source %d/%d: %w", i, sr.NumSources, err)
			}
			if len(rec.IDs) != len(rec.Weights) {
				return fmt.Errorf("storage: corrupt record for source %v: %d ids, %d weights",
					rec.Src, len(rec.IDs), len(rec.Weights))
			}
			if len(rec.IDs) == 0 {
				continue
			}
			if err := fn(sr.Type, rec); err != nil {
				return err
			}
		}
	}
	if h.Version >= 2 {
		want := cr.crc // everything consumed so far; the trailer excludes itself
		var tr snapTrailer
		if err := dec.Decode(&tr); err != nil {
			return fmt.Errorf("storage: decode trailer: %w", err)
		}
		if tr.CRC != want {
			return fmt.Errorf("storage: snapshot checksum mismatch (have %08x, want %08x)", want, tr.CRC)
		}
	}
	return nil
}
