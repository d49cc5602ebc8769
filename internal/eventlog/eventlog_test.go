package eventlog

import (
	"os"
	"path/filepath"
	"testing"

	"platod2gl/internal/graph"
	"platod2gl/internal/storage"
)

func mkEvents(base uint64, n int) []graph.Event {
	out := make([]graph.Event, n)
	for i := range out {
		out[i] = graph.Event{
			Kind:      graph.AddEdge,
			Edge:      graph.Edge{Src: graph.VertexID(base), Dst: graph.VertexID(base*1000 + uint64(i)), Weight: 1},
			Timestamp: int64(i),
		}
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		seq, err := w.Append(mkEvents(i, 10))
		if err != nil {
			t.Fatal(err)
		}
		if seq != i {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var batches int
	var total int
	n, err := Replay(path, func(seq uint64, events []graph.Event) error {
		batches++
		total += len(events)
		if seq != uint64(batches) {
			t.Fatalf("seq %d at batch %d", seq, batches)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 || batches != 5 || total != 50 {
		t.Fatalf("replayed %d batches (%d events)", batches, total)
	}
}

func TestAppendAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(mkEvents(1, 3))
	w.Close()

	w2, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := w2.Append(mkEvents(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("resumed seq = %d, want 2", seq)
	}
	w2.Close()

	n, err := Replay(path, func(uint64, []graph.Event) error { return nil })
	if err != nil || n != 2 {
		t.Fatalf("replayed %d, err %v", n, err)
	}
}

func TestTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(mkEvents(1, 20))
	w.Append(mkEvents(2, 20))
	w.Close()
	// Truncate mid-record to simulate a crash during append.
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-25); err != nil {
		t.Fatal(err)
	}
	n, err := Replay(path, func(uint64, []graph.Event) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d complete batches, want 1", n)
	}
	// Reopen-for-append after the torn tail resumes from the last complete
	// record.
	w2, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Seq() != 1 {
		t.Fatalf("resumed seq = %d, want 1", w2.Seq())
	}
}

func TestReplayGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	os.WriteFile(path, []byte("not a log"), 0o644)
	if _, err := Replay(path, func(uint64, []graph.Event) error { return nil }); err == nil {
		t.Fatal("expected error on garbage")
	}
	if _, err := Replay(filepath.Join(t.TempDir(), "missing"), nil); err == nil {
		t.Fatal("expected error on missing file")
	}
}

func TestClosedWriterErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _ := Create(path)
	w.Close()
	if _, err := w.Append(nil); err == nil {
		t.Fatal("Append on closed writer succeeded")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("Sync on closed writer succeeded")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestRecoveryRecipe(t *testing.T) {
	// The full recipe: snapshot + WAL tail replay reconstructs the store.
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	snapPath := filepath.Join(dir, "snap.bin")

	live := storage.NewDynamicStore(storage.Options{})
	wal, err := Create(walPath)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(events []graph.Event) {
		if _, err := wal.Append(events); err != nil {
			t.Fatal(err)
		}
		live.ApplyBatch(events)
	}
	apply(mkEvents(1, 50))
	apply(mkEvents(2, 50))

	// Snapshot, then more traffic after the snapshot point.
	sf, _ := os.Create(snapPath)
	if err := live.Save(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	snapSeq := wal.Seq()
	apply(mkEvents(3, 50))
	wal.Close()

	// Recover: load snapshot, replay the WAL tail beyond snapSeq.
	recovered := storage.NewDynamicStore(storage.Options{})
	rf, _ := os.Open(snapPath)
	if err := recovered.Load(rf); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	if _, err := Replay(walPath, func(seq uint64, events []graph.Event) error {
		if seq > snapSeq {
			recovered.ApplyBatch(events)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if recovered.NumEdges() != live.NumEdges() {
		t.Fatalf("recovered %d edges, want %d", recovered.NumEdges(), live.NumEdges())
	}
	for _, src := range live.Sources(0) {
		if recovered.Degree(src, 0) != live.Degree(src, 0) {
			t.Fatalf("degree mismatch for %v", src)
		}
	}
}

func TestReadTailBasics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := uint64(1); i <= 6; i++ {
		if _, err := w.AppendBatch(9, i, mkEvents(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	// Tail past a prefix, with and without a limit.
	recs, err := ReadTail(path, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].Seq != 3 || recs[3].Seq != 6 {
		t.Fatalf("ReadTail(2) = %d records, first seq %d", len(recs), recs[0].Seq)
	}
	if recs[0].ClientID != 9 || recs[0].ClientSeq != 3 {
		t.Fatalf("tail record lost its identity: %+v", recs[0])
	}
	recs, err = ReadTail(path, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Seq != 4 {
		t.Fatalf("limited tail = %+v", recs)
	}
	// Fully drained tail is empty, not an error.
	recs, err = ReadTail(path, 6, 0)
	if err != nil || len(recs) != 0 {
		t.Fatalf("drained tail: %d records, err %v", len(recs), err)
	}
}

// TestReadTailConcurrentAppend streams a WAL that a writer is appending to
// at the same time — exactly what replica catch-up does against a live
// peer's log. Every record must be observed exactly once, in order, and no
// ReadTail call may error or see a partial record.
func TestReadTailConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const total = 400
	done := make(chan error, 1)
	go func() {
		for i := uint64(1); i <= total; i++ {
			if _, err := w.AppendBatch(1, i, mkEvents(i, 3)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var after uint64
	var seen int
	for seen < total {
		recs, err := ReadTail(path, after, 32)
		if err != nil {
			t.Fatalf("tail after %d: %v", after, err)
		}
		for _, rec := range recs {
			if rec.Seq != after+1 {
				t.Fatalf("tail skipped: got seq %d after %d", rec.Seq, after)
			}
			if rec.ClientSeq != rec.Seq || len(rec.Events) != 3 {
				t.Fatalf("record %d corrupted mid-stream: %+v", rec.Seq, rec)
			}
			after = rec.Seq
			seen++
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	w.Close()
	if seen != total {
		t.Fatalf("streamed %d records, want %d", seen, total)
	}
}

// TestReadTailTornFrameMidStream: a torn frame in the middle of the live
// log (a frame the writer has not finished) must end the tail cleanly at
// the last complete record; once the frame is completed the next ReadTail
// picks it up.
func TestReadTailTornFrameMidStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatch(1, 1, mkEvents(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatch(1, 2, mkEvents(2, 2)); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Simulate an in-progress append: keep the complete prefix, re-append
	// only part of record 2's frame (length prefix + truncated payload).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTail(path, 0, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("full log: %d records, err %v", len(recs), err)
	}
	fi, _ := os.Stat(path)
	torn := fi.Size() - 10
	if err := os.Truncate(path, torn); err != nil {
		t.Fatal(err)
	}

	recs, err = ReadTail(path, 0, 0)
	if err != nil {
		t.Fatalf("torn mid-stream tail errored: %v", err)
	}
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("torn tail = %d records (first seq %v), want just record 1", len(recs), recs)
	}

	// Writer finishes the frame: the previously torn record becomes visible.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(raw[torn:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err = ReadTail(path, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq != 2 || recs[0].ClientSeq != 2 {
		t.Fatalf("completed frame not picked up: %+v", recs)
	}
}

func TestAppendBatchIdentityRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatch(42, 7, mkEvents(1, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(mkEvents(2, 2)); err != nil { // no identity
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var recs []BatchRecord
	n, err := ReplayBatches(path, func(rec BatchRecord) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("replayed %d, err %v", n, err)
	}
	if recs[0].ClientID != 42 || recs[0].ClientSeq != 7 || len(recs[0].Events) != 3 {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[1].ClientID != 0 || recs[1].ClientSeq != 0 {
		t.Fatalf("record 1 carries a spurious identity: %+v", recs[1])
	}
}

// TestResetTruncatesAtomically: after Reset the log is empty (header only),
// the sequence restarts, and the writer keeps appending to the new file —
// the snapshot-barrier contract that prevents double replay.
func TestResetTruncatesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if _, err := w.Append(mkEvents(i, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(headerV2)) {
		t.Fatalf("post-reset size = %v (err %v), want bare header", fi.Size(), err)
	}
	if n, err := Replay(path, func(uint64, []graph.Event) error { return nil }); err != nil || n != 0 {
		t.Fatalf("post-reset replay: %d batches, err %v", n, err)
	}
	// The writer stays usable: sequence restarts and new appends land in
	// the fresh file.
	seq, err := w.Append(mkEvents(9, 2))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("post-reset seq = %d, want 1", seq)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got int
	if _, err := Replay(path, func(_ uint64, events []graph.Event) error {
		got += len(events)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("post-reset replay saw %d events, want 2", got)
	}
}

// TestFailedResetRefusesAppends: once a Reset fails (here the log's
// directory is gone, so no fresh file can be made), appends are refused
// rather than landing in a log the snapshot already covers.
func TestFailedResetRefusesAppends(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := Create(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(mkEvents(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err == nil {
		t.Fatal("Reset without its directory succeeded")
	}
	if _, err := w.Append(mkEvents(2, 2)); err == nil {
		t.Fatal("Append after a failed Reset succeeded")
	}
}

// TestResetTwiceKeepsCanonicalPath is the double-reset regression: the
// fresh file of a Reset is created beside the log and renamed into place,
// so a path derived from its first name goes stale. A second Reset must
// still truncate the log at its canonical path — not swap a fresh file in
// beside it — and appends must keep landing in the real log, with no
// orphan beside it accumulating frames.
func TestResetTwiceKeepsCanonicalPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		for i := uint64(1); i <= 2; i++ {
			if _, err := w.Append(mkEvents(i, 4)); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
		if err := w.Reset(); err != nil {
			t.Fatalf("cycle %d reset: %v", cycle, err)
		}
		if got := w.Path(); got != path {
			t.Fatalf("cycle %d: Path() = %q, want %q", cycle, got, path)
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(headerV2)) {
			t.Fatalf("cycle %d: post-reset size = %v (err %v), want bare header", cycle, fi.Size(), err)
		}
		if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
			t.Fatalf("cycle %d: %d files beside the log (err %v), want only the log", cycle, len(entries), err)
		}
	}
	// Appends after the final reset must land in the canonical file.
	if _, err := w.Append(mkEvents(9, 3)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got int
	if _, err := Replay(path, func(_ uint64, events []graph.Event) error {
		got += len(events)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("replay after double reset saw %d events, want 3", got)
	}
}
