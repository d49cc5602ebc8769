package eventlog

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"platod2gl/internal/graph"
)

// writeLog creates a log with n batches of 4 events each and closes it.
func writeLog(t *testing.T, path string, n int) {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if _, err := w.AppendBatch(uint64(i), uint64(i), mkEvents(uint64(i), 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// frameOffsets scans a v3 file and returns the start offset of each frame.
func frameOffsets(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:len(header)]) != header {
		t.Fatalf("not a v3 log")
	}
	var offs []int64
	off := int64(len(header))
	for off < int64(len(data)) {
		offs = append(offs, off)
		n := binary.BigEndian.Uint32(data[off:])
		off += frameHeader + int64(n)
	}
	return offs
}

// TestReadTailStopsAtBitFlippedFrame flips one payload bit in the middle
// frame of a five-frame log: ReadTail must return only the records before
// the corrupt frame (detect + stop at last good frame), and Verify must
// classify the file as corrupt with the bad frame's offset.
func TestReadTailStopsAtBitFlippedFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	writeLog(t, path, 5)
	offs := frameOffsets(t, path)
	if len(offs) != 5 {
		t.Fatalf("got %d frames, want 5", len(offs))
	}

	// Flip one bit inside frame 3's payload (offset +8 skips len+CRC).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offs[2]+8+3] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadTail(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("ReadTail returned %d records after bit flip, want 2 (stop at last good frame)", len(recs))
	}
	if recs[len(recs)-1].Seq != 2 {
		t.Fatalf("last good seq = %d, want 2", recs[len(recs)-1].Seq)
	}

	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Corrupt || rep.TornTail {
		t.Fatalf("Verify = %+v, want Corrupt=true TornTail=false", rep)
	}
	if rep.BadOffset != offs[2] {
		t.Fatalf("BadOffset = %d, want %d (start of the flipped frame)", rep.BadOffset, offs[2])
	}
	if rep.Frames != 2 || rep.LastSeq != 2 {
		t.Fatalf("Verify frames=%d lastSeq=%d, want 2/2", rep.Frames, rep.LastSeq)
	}
	if rep.Err() == nil {
		t.Fatal("Err() = nil for a corrupt file")
	}
}

// TestVerifyTornTailIsNotCorruption truncates the file mid-frame: Verify
// reports a torn tail (expected crash residue), not corruption, and Err()
// stays nil. A clean file reports neither.
func TestVerifyTornTailIsNotCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	writeLog(t, path, 3)

	rep, err := Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt || rep.TornTail || rep.Frames != 3 || rep.Err() != nil {
		t.Fatalf("clean file: Verify = %+v", rep)
	}

	offs := frameOffsets(t, path)
	// Cut inside the last frame's payload.
	if err := os.Truncate(path, offs[2]+10); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail || rep.Corrupt {
		t.Fatalf("torn file: Verify = %+v, want TornTail=true Corrupt=false", rep)
	}
	if rep.Frames != 2 || rep.GoodSize != offs[2] {
		t.Fatalf("torn file: frames=%d goodSize=%d, want 2/%d", rep.Frames, rep.GoodSize, offs[2])
	}
	if rep.Err() != nil {
		t.Fatalf("torn tail must not be an error: %v", rep.Err())
	}

	// Create repairs the torn tail and appends cleanly after it.
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(mkEvents(9, 2)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	rep, err = Verify(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt || rep.TornTail || rep.Frames != 3 {
		t.Fatalf("post-repair: Verify = %+v", rep)
	}
}

// TestVerifyHugeLengthIsTornWithoutAllocating: a last frame whose length
// prefix claims 512 MiB, in a file that holds far less, is a torn tail, and
// the scan must see that from the file size instead of allocating the
// claimed payload first.
func TestVerifyHugeLengthIsTornWithoutAllocating(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	writeLog(t, path, 2)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tail := binary.BigEndian.AppendUint32(nil, 1<<29)
	tail = append(tail, make([]byte, 4+100)...) // CRC and a little payload
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Verify(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TornTail || rep.Corrupt || rep.Frames != 2 {
		t.Fatalf("Verify = %+v, want a torn tail after 2 frames", rep)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("Verify allocated %d bytes for a frame that claims 1<<29", grew)
	}
}

// oldLog hand-writes a log an older build left: the header of the given
// version, then extra (nothing, or bytes standing in for its gob frames).
func oldLog(t *testing.T, path, head string, extra []byte) {
	t.Helper()
	if err := os.WriteFile(path, append([]byte(head), extra...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOldFormatWithRecordsRefused: a v1 or v2 log with anything past its
// header is refused by every entry point with ErrOldFormat and an error
// that names the upgrade step, and the file is left as it was.
func TestOldFormatWithRecordsRefused(t *testing.T) {
	for _, head := range []string{headerV1, headerV2} {
		path := filepath.Join(t.TempDir(), "wal.log")
		frame := binary.BigEndian.AppendUint32(nil, 12)
		frame = append(frame, make([]byte, 4+12)...)
		oldLog(t, path, head, frame)

		_, errCreate := Create(path)
		_, errReplay := Replay(path, func(uint64, []graph.Event) error { return nil })
		_, errTail := ReadTail(path, 0, 0)
		_, errVerify := Verify(path)
		for name, err := range map[string]error{"Create": errCreate, "Replay": errReplay, "ReadTail": errTail, "Verify": errVerify} {
			if !errors.Is(err, ErrOldFormat) {
				t.Fatalf("%q: %s = %v, want ErrOldFormat", head, name, err)
			}
			if !strings.Contains(err.Error(), "SIGTERM") {
				t.Fatalf("%q: %s error does not name the upgrade step: %v", head, name, err)
			}
		}
		if data, _ := os.ReadFile(path); string(data) != head+string(frame) {
			t.Fatalf("%q: refused log was modified", head)
		}
	}
}

// TestOldHeaderOnlyLogUpgrades: the header-only v1/v2 file an older build's
// SIGTERM reset leaves behind reads as an empty log, and Create rewrites it
// as v3 and appends to it.
func TestOldHeaderOnlyLogUpgrades(t *testing.T) {
	for i, head := range []string{headerV1, headerV2} {
		path := filepath.Join(t.TempDir(), "wal.log")
		oldLog(t, path, head, nil)
		if rep, err := Verify(path); err != nil || rep.Version != i+1 || rep.Frames != 0 || rep.TornTail || rep.Corrupt {
			t.Fatalf("%q: Verify = %+v, %v", head, rep, err)
		}
		if n, err := Replay(path, func(uint64, []graph.Event) error { return nil }); err != nil || n != 0 {
			t.Fatalf("%q: Replay = %d, %v", head, n, err)
		}
		w, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if data, _ := os.ReadFile(path); string(data) != header {
			t.Fatalf("%q: Create left %q, want the v3 header", head, data)
		}
		if seq, err := w.Append(mkEvents(1, 3)); err != nil || seq != 1 {
			t.Fatalf("%q: Append = %d, %v", head, seq, err)
		}
		w.Close()
		if rep, err := Verify(path); err != nil || rep.Version != 3 || rep.Frames != 1 || rep.TornTail || rep.Corrupt {
			t.Fatalf("%q: after upgrade Verify = %+v, %v", head, rep, err)
		}
		if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
			t.Fatalf("%q: upgrade left %d files in the log's directory (err %v), want only the log", head, len(entries), err)
		}
	}
}
