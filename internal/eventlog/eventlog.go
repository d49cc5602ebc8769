// Package eventlog implements an append-only write-ahead log of graph
// update events. A graph server combines it with snapshots (internal/storage)
// for durability: periodically snapshot the store, truncate the log, and on
// restart load the snapshot then replay the log tail — the standard
// recovery recipe for in-memory stores serving a live update stream.
//
// File layout (v3): the header line "platod2gl-eventlog v3\n", then one
// frame per batch:
//
//	uint32 BE  payload length (≤ wire.MaxFrame)
//	uint32 BE  CRC-32C of the payload
//	...        payload (AppendRecord): uvarint seq | uvarint clientID |
//	           uvarint clientSeq | events (wire.AppendEvents)
//
// Events are in the layout every cluster RPC uses, and FetchWALTail ships
// records in this same payload layout. Framing keeps the file appendable
// across restarts and makes a torn tail (a crash mid-append) detectable:
// replay stops at the first incomplete frame, and Create truncates it away.
// The CRC catches silent corruption inside a complete frame, which Verify
// reports apart from a torn tail.
//
// Each build reads one format. A v1/v2 (gob) log with anything past its
// header is refused with ErrOldFormat: stop the old build with SIGTERM
// first, which snapshots the store and empties the log. The header-only
// file that leaves is read as empty, and Create rewrites it as v3.
package eventlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"platod2gl/internal/durable"
	"platod2gl/internal/graph"
	"platod2gl/internal/wire"
)

// Header lines. All are the same length, so a header-only old log is told
// apart from one with records by its size.
const (
	header   = "platod2gl-eventlog v3\n"
	headerV1 = "platod2gl-eventlog v1\n"
	headerV2 = "platod2gl-eventlog v2\n"
)

// frameHeader is the length prefix plus the CRC that open every frame.
const frameHeader = 8

// crcTable is the Castagnoli polynomial — hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrOldFormat refuses a log with records in a format this build does not
// read. The upgrade step is in the package comment.
var ErrOldFormat = errors.New("eventlog: log holds records of an older format")

// BatchRecord is one WAL record. ClientID/ClientSeq are the cluster batch's
// at-most-once identity, which lets a restarted server rebuild its dedup
// table, so a client retry that straddles the restart is applied at most
// once.
type BatchRecord struct {
	Seq       uint64 // log sequence number
	ClientID  uint64 // cluster client identity (0 = none)
	ClientSeq uint64 // client batch sequence (0 = none)
	Events    []graph.Event
}

// AppendRecord appends rec in the v3 record layout.
func AppendRecord(b []byte, rec BatchRecord) []byte {
	b = wire.AppendUvarint(b, rec.Seq)
	b = wire.AppendUvarint(b, rec.ClientID)
	b = wire.AppendUvarint(b, rec.ClientSeq)
	return wire.AppendEvents(b, rec.Events)
}

// ReadRecord reads a record written by AppendRecord. Failures surface
// through r.Err.
func ReadRecord(r *wire.Reader) BatchRecord {
	return BatchRecord{Seq: r.Uvarint(), ClientID: r.Uvarint(), ClientSeq: r.Uvarint(), Events: r.Events()}
}

// decodeRecord decodes a frame's payload, which must hold exactly one record.
func decodeRecord(payload []byte) (BatchRecord, bool) {
	r := wire.NewReader(payload)
	rec := ReadRecord(r)
	return rec, r.Done() == nil
}

// logFile is what a Writer needs of its file; tests substitute failing ones.
type logFile interface {
	io.Writer
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Writer appends event batches to a log file.
type Writer struct {
	mu   sync.Mutex
	f    logFile
	path string // canonical log path; the file's own name goes stale after Reset's rename
	seq  uint64
	size int64 // end of the last complete frame
	// err, once set, refuses every append: a failed append left a partial
	// frame that could not be cut off, and the next Create would truncate
	// any later frame away with it.
	err  error
	open bool
}

// Create opens (or creates) the log at path for appending. A new file, or
// the header-only file an older build's reset leaves, becomes an empty v3
// log. An existing v3 log is validated, its tail sequence recovered, and a
// torn final frame truncated away. An older log with records is refused
// with ErrOldFormat.
func Create(path string) (*Writer, error) {
	var res scanResult
	fi, err := os.Stat(path)
	if err == nil && fi.Size() > 0 {
		if res, err = scan(path, nil); err != nil {
			return nil, err
		}
	} else if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("eventlog: stat %s: %w", path, err)
	}
	w := &Writer{path: path, seq: res.lastSeq, size: res.goodSize, open: true}
	if res.version != 3 {
		w.f, err = writeEmpty(path)
		w.size = int64(len(header))
	} else if err = os.Truncate(path, res.goodSize); err == nil { // drop a torn tail
		w.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("eventlog: open %s: %w", path, err)
	}
	return w, nil
}

// writeEmpty durably replaces the file at path with a header-only log and
// returns it open for appending. A crash leaves either the old file or the
// new empty one — never a torn file.
func writeEmpty(path string) (*os.File, error) {
	if err := durable.WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, header); return err }); err != nil {
		return nil, err
	}
	return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
}

// stopCause classifies why a scan stopped before the file's end.
type stopCause int

const (
	stopEOF     stopCause = iota // clean end of file
	stopTorn                     // incomplete final frame (crash mid-append)
	stopCorrupt                  // complete frame failed CRC or decode
)

// scanResult summarizes one pass over a log file.
type scanResult struct {
	version  int
	frames   int
	lastSeq  uint64
	goodSize int64 // end offset of the last valid frame
	cause    stopCause
}

// scan validates the log, invoking fn (if non-nil) per complete record, and
// reports how far the valid frames reach and why the scan stopped. A torn
// or corrupt frame ends the scan without an error — Verify exposes the
// distinction to callers that need it.
//
// Frames appended after the scan starts read as a torn tail: the scan stops
// at the file size it saw on opening, which also lets it classify a frame
// that claims more bytes than the file holds as torn without allocating
// for it.
func scan(path string, fn func(rec BatchRecord) error) (scanResult, error) {
	var res scanResult
	f, err := os.Open(path)
	if err != nil {
		return res, fmt.Errorf("eventlog: open %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return res, fmt.Errorf("eventlog: stat %s: %w", path, err)
	}
	size := fi.Size()
	br := bufio.NewReader(f)
	var head [len(header)]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return res, fmt.Errorf("eventlog: %s is not an event log", path)
	}
	switch string(head[:]) {
	case header:
		res.version = 3
	case headerV1, headerV2:
		res.version = int(head[len(head)-2] - '0')
		if size > int64(len(head)) {
			return res, fmt.Errorf("%w: %s is a v%d log; this build reads only v3. "+
				"Stop the old build with SIGTERM, which snapshots the store and empties the log, then start this one",
				ErrOldFormat, path, res.version)
		}
	default:
		return res, fmt.Errorf("eventlog: %s is not an event log", path)
	}
	res.goodSize = int64(len(head))
	var hdr [frameHeader]byte
	var payload []byte
	for {
		k, err := io.ReadFull(br, hdr[:])
		if k == 0 && errors.Is(err, io.EOF) {
			res.cause = stopEOF
			return res, nil
		}
		n := int64(binary.BigEndian.Uint32(hdr[:4]))
		switch {
		case k >= 4 && (n == 0 || n > wire.MaxFrame):
			// A fully written length prefix with an impossible value is
			// corruption, not a torn append.
			res.cause = stopCorrupt
			return res, nil
		case err != nil, res.goodSize+frameHeader+n > size:
			res.cause = stopTorn
			return res, nil
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			res.cause = stopTorn
			return res, nil
		}
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(hdr[4:]) {
			res.cause = stopCorrupt
			return res, nil
		}
		rec, ok := decodeRecord(payload)
		if !ok {
			res.cause = stopCorrupt
			return res, nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return res, err
			}
		}
		res.frames++
		res.lastSeq = rec.Seq
		res.goodSize += frameHeader + n
	}
}

// Append writes one event batch and flushes it to the OS. Returns the
// record's sequence number.
func (w *Writer) Append(events []graph.Event) (uint64, error) {
	return w.AppendBatch(0, 0, events)
}

// AppendBatch writes one event batch stamped with its cluster at-most-once
// identity (clientID, clientSeq); zeros mean "no identity". Returns the
// record's log sequence number. The frame is built in a pooled buffer and
// written with one Write call, so a steady-state append allocates nothing.
//
// If the write fails, the file is cut back to the end of the last complete
// frame, so a partial frame never sits in front of later acknowledged
// batches. If that fails too, every later append returns the error.
func (w *Writer) AppendBatch(clientID, clientSeq uint64, events []graph.Event) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.open {
		return 0, errors.New("eventlog: writer closed")
	}
	if w.err != nil {
		return 0, w.err
	}
	frame := wire.GetBuf(frameHeader)
	frame = AppendRecord(frame, BatchRecord{Seq: w.seq + 1, ClientID: clientID, ClientSeq: clientSeq, Events: events})
	defer wire.PutBuf(frame)
	payload := frame[frameHeader:]
	if len(payload) > wire.MaxFrame {
		return 0, fmt.Errorf("eventlog: %d-byte record exceeds the frame limit", len(payload))
	}
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	if _, err := w.f.Write(frame); err != nil {
		err = fmt.Errorf("eventlog: append: %w", err)
		if terr := w.f.Truncate(w.size); terr != nil {
			w.err = fmt.Errorf("%w (cutting off the partial frame failed: %v; the log takes no more appends)", err, terr)
			return 0, w.err
		}
		return 0, err
	}
	w.size += int64(len(frame))
	w.seq++
	return w.seq, nil
}

// Sync forces written records to stable media.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.open {
		return errors.New("eventlog: writer closed")
	}
	return w.f.Sync()
}

// Seq returns the last appended sequence number.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// Close closes the log.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.open {
		return nil
	}
	w.open = false
	return w.f.Close()
}

// Replay streams every complete batch in the log at path (in append order)
// to fn, stopping early if fn errors. A torn final frame is skipped
// silently. Returns the number of batches replayed.
func Replay(path string, fn func(seq uint64, events []graph.Event) error) (int, error) {
	return ReplayBatches(path, func(rec BatchRecord) error {
		return fn(rec.Seq, rec.Events)
	})
}

// ReplayBatches is Replay with full records, including each batch's cluster
// at-most-once identity — what a recovering server uses to rebuild its
// dedup table alongside its topology.
func ReplayBatches(path string, fn func(rec BatchRecord) error) (int, error) {
	res, err := scan(path, fn)
	return res.frames, err
}

// errStopScan aborts a scan early from inside the per-record callback
// without reporting an error to the caller.
var errStopScan = errors.New("eventlog: stop scan")

// ReadTail returns up to limit complete records with Seq > afterSeq, in
// append order (limit <= 0 means unlimited). It is safe against a writer
// concurrently appending to the same file: a torn frame mid-stream (a frame
// whose length prefix or payload is still being written) ends the read
// cleanly at the last complete record, and a later call picks up the frame
// once the writer finishes it. This is the replica catch-up primitive: a
// rejoining replica repeatedly tails a live peer's WAL until it has drained
// everything past the snapshot it loaded.
//
// Each call rescans the file from the start (the frame format carries no
// index); callers stream in chunks via limit, which keeps per-call payloads
// bounded while the O(file) rescan stays cheap at WAL sizes bounded by the
// snapshot/truncate cycle.
func ReadTail(path string, afterSeq uint64, limit int) ([]BatchRecord, error) {
	var out []BatchRecord
	_, err := scan(path, func(rec BatchRecord) error {
		if rec.Seq <= afterSeq {
			return nil
		}
		out = append(out, rec)
		if limit > 0 && len(out) >= limit {
			return errStopScan
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopScan) {
		return nil, err
	}
	return out, nil
}

// Path returns the log file's path.
func (w *Writer) Path() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.path
}

// Reset atomically truncates the log to an empty file (header only) and
// resets the sequence counter. It is the snapshot-barrier primitive: after
// a snapshot captures the store, Reset guarantees a restart will not replay
// batches the snapshot already contains (re-applying deletes of re-added
// edges is not idempotent). The fresh file replaces the log durably, so a
// crash or power loss leaves the old complete log or the new empty one. A
// fresh file clears a failed append's refusal; a failed Reset refuses
// appends until a Reset succeeds, as the snapshot covers the old log.
func (w *Writer) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.open {
		return errors.New("eventlog: writer closed")
	}
	nf, err := writeEmpty(w.path)
	if err != nil {
		w.err = fmt.Errorf("eventlog: reset: %w", err)
		return w.err
	}
	w.f.Close()
	w.f = nf
	w.seq = 0
	w.size = int64(len(header))
	w.err = nil
	return nil
}

// VerifyReport is the result of an offline integrity pass over a log file.
type VerifyReport struct {
	// Version is the header's format: 3, or 1/2 for the header-only file
	// an older build's reset leaves behind.
	Version  int
	Frames   int    // complete, valid frames
	LastSeq  uint64 // sequence number of the last valid frame
	GoodSize int64  // byte offset of the end of the last valid frame
	// TornTail is true when the file ends with an incomplete frame — the
	// expected residue of a crash mid-append, repaired automatically by the
	// next Create.
	TornTail bool
	// Corrupt is true when a complete frame failed its CRC or decode:
	// on-disk corruption, not a torn append. BadOffset is where the bad
	// frame starts.
	Corrupt   bool
	BadOffset int64
}

// Err returns a non-nil error iff the report found corruption. A torn tail
// is not an error (Create truncates it away).
func (r VerifyReport) Err() error {
	if r.Corrupt {
		return fmt.Errorf("eventlog: corrupt frame at offset %d (after %d valid frames, seq %d)",
			r.BadOffset, r.Frames, r.LastSeq)
	}
	return nil
}

// Verify walks the log at path checking every frame (length bounds, CRC-32C,
// record decodability) without applying anything, and classifies any early
// stop: a torn final frame is expected crash residue, while a complete frame
// that fails verification is corruption that a scrubber should repair from a
// peer. Safe to run against a live writer's file — concurrent appends read
// as a torn tail at worst.
func Verify(path string) (VerifyReport, error) {
	res, err := scan(path, nil)
	if err != nil {
		return VerifyReport{}, err
	}
	rep := VerifyReport{
		Version:  res.version,
		Frames:   res.frames,
		LastSeq:  res.lastSeq,
		GoodSize: res.goodSize,
	}
	switch res.cause {
	case stopTorn:
		rep.TornTail = true
	case stopCorrupt:
		rep.Corrupt = true
		rep.BadOffset = res.goodSize
	}
	return rep, nil
}
