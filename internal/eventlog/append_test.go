package eventlog

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"platod2gl/internal/dataset"
	"platod2gl/internal/graph"
	"platod2gl/internal/wire"
)

// TestFrameLayout pins the v3 bytes of a one-record log: the header, the
// big-endian length and CRC-32C, and the record in wire's event layout.
func TestFrameLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	ev := graph.Event{
		Kind:      graph.DeleteEdge,
		Edge:      graph.Edge{Src: 5, Dst: 300, Type: 2, Weight: 1.5},
		Timestamp: -1,
	}
	if _, err := w.AppendBatch(2, 3, []graph.Event{ev}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := header + "\x00\x00\x00\x14" + "\xf9\x7c\xc4\xc6" + // length 20, CRC-32C
		"\x01\x02\x03" + // seq, clientID, clientSeq
		"\x01" + // one event
		"\x01\x02" + "\x00\x05" + "\x00\xac\x02" + // kind, edge type, src, dst
		"\x00\x00\x00\x00\x00\x00\xf8\x3f" + "\x01" // weight 1.5, timestamp -1
	if string(got) != want {
		t.Fatalf("log bytes\n got %s\nwant %s", hex.EncodeToString(got), hex.EncodeToString([]byte(want)))
	}
}

// shortFile passes the first half of every write to the file and then
// fails, leaving a partial frame the way a disk that fills mid-write does.
type shortFile struct{ *os.File }

func (s shortFile) Write(p []byte) (int, error) {
	n, _ := s.File.Write(p[:len(p)/2])
	return n, errors.New("no space left on device")
}

// TestFailedAppendCutsPartialFrame: a failed append must not leave its
// partial frame in front of later acknowledged batches, where the next
// Create would truncate them away with it.
func TestFailedAppendCutsPartialFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 2; i++ {
		if _, err := w.AppendBatch(7, i, mkEvents(i, 4)); err != nil {
			t.Fatal(err)
		}
	}
	fi, _ := os.Stat(path)
	good := w.f
	w.f = shortFile{good.(*os.File)}
	if _, err := w.AppendBatch(7, 3, mkEvents(3, 4)); err == nil {
		t.Fatal("append through a failing write succeeded")
	}
	if now, _ := os.Stat(path); now.Size() != fi.Size() {
		t.Fatalf("failed append left %d bytes behind", now.Size()-fi.Size())
	}
	w.f = good
	for i := uint64(3); i <= 4; i++ {
		if seq, err := w.AppendBatch(7, i, mkEvents(i, 4)); err != nil || seq != i {
			t.Fatalf("append after a failed one = %d, %v; want seq %d", seq, err, i)
		}
	}
	w.Close()

	w, err = Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Seq() != 4 {
		t.Fatalf("reopened at seq %d, want 4: acknowledged batches were lost", w.Seq())
	}
	recs, err := ReadTail(path, 0, 0)
	if err != nil || len(recs) != 4 {
		t.Fatalf("ReadTail = %d records, %v", len(recs), err)
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.ClientSeq != uint64(i+1) {
			t.Fatalf("record %d = seq %d client seq %d", i, rec.Seq, rec.ClientSeq)
		}
	}
}

// TestFailedAppendRefusedWhenRollbackFails: when the partial frame cannot
// be cut off either (here a read-only handle fails both the write and the
// truncate), every later append returns the saved error until Reset
// replaces the file.
func TestFailedAppendRefusedWhenRollbackFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(mkEvents(1, 4)); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	good := w.f
	w.f = ro
	_, first := w.Append(mkEvents(2, 4))
	if first == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	w.f = good
	if _, err := w.Append(mkEvents(3, 4)); err == nil || err.Error() != first.Error() {
		t.Fatalf("append after an unrecoverable failure = %v, want the saved error %v", err, first)
	}
	if w.Seq() != 1 {
		t.Fatalf("seq = %d after refused appends, want 1", w.Seq())
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if seq, err := w.Append(mkEvents(4, 4)); err != nil || seq != 1 {
		t.Fatalf("append after Reset = %d, %v", seq, err)
	}
}

// ingestBatch is a 2048-event batch of ingest-mixed's shape: a DynamicMix
// stream over WeChat-sim scaled to the benchmark's 4M events.
func ingestBatch() []graph.Event {
	spec := dataset.WeChatSim()
	spec = spec.Scale(4e6 / float64(spec.TotalEvents()))
	return dataset.NewGenerator(spec, dataset.DynamicMix, 1).Next(2048)[:2048]
}

// TestAppendBatchAllocs pins a steady-state AppendBatch of a 2048-event
// batch at zero allocations: the frame is encoded into a pooled buffer.
func TestAppendBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	w, err := Create(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	evs := ingestBatch()
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := w.AppendBatch(1, 1, evs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("AppendBatch allocates %.2f times per call, want 0", allocs)
	}
}

// BenchmarkAppendBatch appends ingest-mixed-shaped batches to a log, the
// per-batch WAL cost of the benchmark's writer (no fsync, as there).
func BenchmarkAppendBatch(b *testing.B) {
	w, err := Create(filepath.Join(b.TempDir(), "wal.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	evs := ingestBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.AppendBatch(1, uint64(i), evs); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 {
			// Keep the file small on long runs, as the server's snapshot
			// cycle does.
			b.StopTimer()
			if err := w.Reset(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// FuzzRecord drives the v3 record decoder over arbitrary payloads: no input
// may panic, and whatever decodes must encode back to a record that decodes
// to the same bytes again.
func FuzzRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, BatchRecord{Seq: 1, ClientID: 2, ClientSeq: 3, Events: mkEvents(4, 3)}))
	f.Add(AppendRecord(nil, BatchRecord{Seq: 1 << 63}))
	f.Add(AppendRecord(nil, BatchRecord{Events: ingestBatch()[:16]}))
	f.Add(wire.AppendUvarint([]byte{1, 0, 0}, 1<<40)) // huge event count
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, ok := decodeRecord(payload)
		if !ok {
			return
		}
		enc := AppendRecord(nil, rec)
		again, ok := decodeRecord(enc)
		if !ok {
			t.Fatalf("re-encoded record %x does not decode", enc)
		}
		if again.Seq != rec.Seq || again.ClientID != rec.ClientID || again.ClientSeq != rec.ClientSeq || len(again.Events) != len(rec.Events) {
			t.Fatalf("round trip changed the record: %+v vs %+v", again, rec)
		}
		if !bytes.Equal(AppendRecord(nil, again), enc) {
			t.Fatalf("round trip changed the record's bytes")
		}
	})
}

// syncFailFile fails every fsync, as a disk that lost writes does.
type syncFailFile struct{ *os.File }

func (syncFailFile) Sync() error { return errors.New("input/output error") }

// TestSyncEveryFailureRefusesAppends: once a background fsync fails, every
// append is refused with its error until Reset replaces the file.
func TestSyncEveryFailureRefusesAppends(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.f = syncFailFile{w.f.(*os.File)}
	stop := w.SyncEvery(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := w.Append(mkEvents(1, 4))
		if err != nil {
			if !strings.Contains(err.Error(), "background sync") {
				t.Fatalf("append refused with %v, want the fsync's failure", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("appends still accepted after failing fsyncs")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(mkEvents(2, 4)); err != nil {
		t.Fatalf("append after Reset: %v", err)
	}
}
