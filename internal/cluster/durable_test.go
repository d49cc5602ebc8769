package cluster

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
	"platod2gl/internal/kvstore"
	"platod2gl/internal/storage"
)

// applyIdentified applies one batch of edges src -> dst (or deletes, with
// kind) through the ApplyBatch handler under the identity (client, seq).
func applyIdentified(t *testing.T, svc *Service, client, seq uint64, kind graph.EventKind, edges ...[2]int) BatchReply {
	t.Helper()
	evs := make([]graph.Event, len(edges))
	for i, e := range edges {
		evs[i] = graph.Event{Kind: kind, Edge: graph.Edge{Src: graph.VertexID(e[0]), Dst: graph.VertexID(e[1]), Weight: 1}}
	}
	var reply BatchReply
	if err := svc.applyBatch(&BatchArgs{Events: evs, ClientID: client, Seq: seq, Sum: checksumEvents(evs)}, &reply); err != nil {
		t.Fatalf("apply (%d, %d): %v", client, seq, err)
	}
	return reply
}

// walFrames counts the complete frames of the WAL at path.
func walFrames(t *testing.T, path string) int {
	t.Helper()
	vr, err := eventlog.Verify(path)
	if err != nil || vr.Corrupt {
		t.Fatalf("verify %s: %+v %v", path, vr, err)
	}
	return vr.Frames
}

// TestOpenDurableRecoversSnapshotAndTail: a service checkpointed, written
// to again and then crashed comes back through OpenDurable with the
// snapshot plus the WAL tail, and a client's retry of the tail batch that
// straddles the restart is skipped as a duplicate.
func TestOpenDurableRecoversSnapshotAndTail(t *testing.T) {
	dir := t.TempDir()
	snap, wal := filepath.Join(dir, "s.snap"), filepath.Join(dir, "s.wal")
	before := openDurable(t, NewService(storage.NewDynamicStore(storage.Options{}), kvstore.New()), snap, wal)
	applyIdentified(t, before, 7, 1, graph.AddEdge, [2]int{1, 2}, [2]int{1, 3}, [2]int{4, 5})
	if err := before.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := walFrames(t, wal); n != 0 {
		t.Fatalf("checkpoint left %d WAL frames", n)
	}
	applyIdentified(t, before, 7, 2, graph.DeleteEdge, [2]int{1, 3})
	applyIdentified(t, before, 7, 3, graph.AddEdge, [2]int{6, 7})
	want := canonicalDump(t, before.store.(*storage.DynamicStore), nil)
	before.Close() // a crash: no checkpoint

	store := storage.NewDynamicStore(storage.Options{})
	after := NewService(store, kvstore.New())
	rec, err := after.OpenDurable(DurableConfig{Snapshot: snap, WAL: wal, WALSync: "always"})
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if !rec.SnapshotLoaded || rec.WALBatches != 2 {
		t.Fatalf("recovery %+v, want the snapshot and 2 WAL batches", rec)
	}
	if got := canonicalDump(t, store, nil); !bytes.Equal(got, want) {
		t.Fatalf("recovered topology differs from the crashed service's (%d vs %d bytes)", len(got), len(want))
	}
	// The client never saw seq 3's ack and retries it: the dedup table
	// rebuilt from the WAL skips it, so the edge count holds.
	edges := store.NumEdges()
	if r := applyIdentified(t, after, 7, 3, graph.AddEdge, [2]int{6, 7}); !r.Duplicate {
		t.Fatalf("retry across the restart applied again: %+v", r)
	}
	if store.NumEdges() != edges {
		t.Fatalf("edges %d after the retry, want %d", store.NumEdges(), edges)
	}
	// And the recovered service keeps logging: the next batch is frame 3.
	applyIdentified(t, after, 7, 4, graph.AddEdge, [2]int{8, 9})
	if n := walFrames(t, wal); n != 3 {
		t.Fatalf("WAL holds %d frames after one more batch, want 3", n)
	}
}

// TestCheckpointKeepsAtMostOnce: a retry of a batch the snapshot holds,
// arriving after a checkpointed restart, is a duplicate. Batch (9,1) adds
// an edge and (9,2) deletes it; re-applying (9,1) would resurrect it. A
// server whose snapshot has no table beside it (one checkpointed before
// tables were written) still starts, and a damaged table stops the start.
func TestCheckpointKeepsAtMostOnce(t *testing.T) {
	dir := t.TempDir()
	snap, wal := filepath.Join(dir, "s.snap"), filepath.Join(dir, "s.wal")
	before := openDurable(t, NewService(storage.NewDynamicStore(storage.Options{}), kvstore.New()), snap, wal)
	applyIdentified(t, before, 9, 1, graph.AddEdge, [2]int{1, 2})
	applyIdentified(t, before, 9, 2, graph.DeleteEdge, [2]int{1, 2})
	if err := before.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before.Close()

	reopen := func() (*Service, *storage.DynamicStore, error) {
		store := storage.NewDynamicStore(storage.Options{})
		svc := NewService(store, kvstore.New())
		_, err := svc.OpenDurable(DurableConfig{Snapshot: snap, WAL: wal, WALSync: "never"})
		return svc, store, err
	}
	after, store, err := reopen()
	if err != nil {
		t.Fatal(err)
	}
	if r := applyIdentified(t, after, 9, 1, graph.AddEdge, [2]int{1, 2}); !r.Duplicate {
		t.Fatalf("a retry of a checkpointed batch applied again: %+v", r)
	}
	if n := store.NumEdges(); n != 0 {
		t.Fatalf("%d edges after the retry: the deleted edge came back", n)
	}
	after.Close()

	table := dedupPath(snap)
	good, err := os.ReadFile(table)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(table); err != nil {
		t.Fatal(err)
	}
	old, _, err := reopen()
	if err != nil {
		t.Fatalf("a snapshot without a table did not load: %v", err)
	}
	old.Close()

	good[len(good)/2] ^= 1
	if err := os.WriteFile(table, good, 0o600); err != nil {
		t.Fatal(err)
	}
	if svc, _, err := reopen(); err == nil || !strings.Contains(err.Error(), "at-most-once table") {
		svc.Close()
		t.Fatalf("a damaged table loaded: %v", err)
	}
}

// failingSaveStore, once told to fail, writes part of an image and fails.
type failingSaveStore struct {
	*storage.DynamicStore
	fail bool
}

func (s *failingSaveStore) Save(w io.Writer) error {
	if s.fail {
		w.Write([]byte("the first bytes of an image"))
		return errors.New("disk full")
	}
	return s.DynamicStore.Save(w)
}

// TestCheckpointFailureKeepsOldFiles: a checkpoint whose image fails
// halfway leaves the previous snapshot byte for byte under its name, no
// stray file beside it, and the WAL untouched, so recovery still has the
// old image plus every batch after it.
func TestCheckpointFailureKeepsOldFiles(t *testing.T) {
	dir := t.TempDir()
	snap, wal := filepath.Join(dir, "s.snap"), filepath.Join(dir, "s.wal")
	store := &failingSaveStore{DynamicStore: storage.NewDynamicStore(storage.Options{})}
	svc := openDurable(t, NewService(store, kvstore.New()), snap, wal)
	defer svc.Close()
	applyIdentified(t, svc, 1, 1, graph.AddEdge, [2]int{1, 2})
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	applyIdentified(t, svc, 1, 2, graph.AddEdge, [2]int{3, 4}, [2]int{5, 6})

	store.fail = true
	if err := svc.Checkpoint(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("checkpoint with a failing image = %v, want its error", err)
	}
	if got, err := os.ReadFile(snap); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("snapshot changed by a failed checkpoint (%d bytes, was %d; %v)", len(got), len(old), err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 3 {
		t.Fatalf("directory holds %d files (%v), want only the snapshot, its at-most-once table and the WAL", len(entries), err)
	}
	if n := walFrames(t, wal); n != 1 {
		t.Fatalf("WAL holds %d frames after a failed checkpoint, want 1", n)
	}
}

// TestWALOnlyCheckpointKeepsWAL: without a snapshot file nothing may
// truncate the WAL, the server's only record of what it applied.
func TestWALOnlyCheckpointKeepsWAL(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "s.wal")
	svc := openDurable(t, NewService(storage.NewDynamicStore(storage.Options{}), kvstore.New()), "", wal)
	defer svc.Close()
	applyIdentified(t, svc, 1, 1, graph.AddEdge, [2]int{1, 2})
	applyIdentified(t, svc, 1, 2, graph.AddEdge, [2]int{3, 4})
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := walFrames(t, wal); n != 2 {
		t.Fatalf("a WAL-only checkpoint left %d of 2 frames", n)
	}
}

// TestScrubberVerifiesServiceFiles: a scrubber configured with no file
// paths checks the snapshot and WAL its service opened, and flags a bit
// flipped in either.
func TestScrubberVerifiesServiceFiles(t *testing.T) {
	dir := t.TempDir()
	snap, wal := filepath.Join(dir, "s.snap"), filepath.Join(dir, "s.wal")
	svc := openDurable(t, NewService(storage.NewDynamicStore(storage.Options{}), kvstore.New()), snap, wal)
	defer svc.Close()
	sc := NewScrubber(svc, ScrubConfig{})
	applyIdentified(t, svc, 1, 1, graph.AddEdge, [2]int{1, 2}, [2]int{2, 3})
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyIdentified(t, svc, 1, 2, graph.AddEdge, [2]int{4, 5})
	if rep := sc.RunRound(); !rep.healthy() {
		t.Fatalf("clean files flagged: %+v", rep)
	}

	for _, f := range []struct{ path, kind string }{{wal, "wal "}, {snap, "snapshot "}} {
		fi, err := os.Stat(f.path)
		if err != nil {
			t.Fatal(err)
		}
		flipByte(t, f.path, fi.Size()-3)
		rep := sc.RunRound()
		if !rep.Corrupt || len(rep.DiskErrors) != 1 || !strings.HasPrefix(rep.DiskErrors[0], f.kind) {
			t.Fatalf("bit flipped in %s: %+v", f.path, rep)
		}
		flipByte(t, f.path, fi.Size()-3) // heal it for the next file
	}
}

// TestWALSyncInterval: the "interval" policy needs a positive period (a
// ticker panics on anything else), an unknown policy is refused, and
// neither opens a file; a valid one's background fsync goroutine ends with
// Close.
func TestWALSyncInterval(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "s.wal")
	for _, cfg := range []DurableConfig{
		{WAL: wal, WALSync: "interval"},
		{WAL: wal, WALSync: "interval", WALSyncInterval: -time.Second},
		{WAL: wal, WALSync: "sometimes", WALSyncInterval: time.Second},
	} {
		if _, err := NewService(storage.NewDynamicStore(storage.Options{}), nil).OpenDurable(cfg); err == nil {
			t.Fatalf("OpenDurable(%+v) accepted", cfg)
		}
	}
	if _, err := os.Stat(wal); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused config created the WAL: %v", err)
	}

	syncing := func() bool {
		buf := make([]byte, 1<<20)
		return strings.Contains(string(buf[:runtime.Stack(buf, true)]), "eventlog.(*Writer).SyncEvery")
	}
	svc := NewService(storage.NewDynamicStore(storage.Options{}), nil)
	if _, err := svc.OpenDurable(DurableConfig{WAL: wal, WALSync: "interval", WALSyncInterval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	applyIdentified(t, svc, 1, 1, graph.AddEdge, [2]int{1, 2})
	if !syncing() {
		t.Fatal("no background fsync goroutine running")
	}
	if err := errors.Join(svc.Close(), svc.Close()); err != nil {
		t.Fatal(err)
	}
	// Close waited for the goroutine's last act, not for its exit.
	for deadline := time.Now().Add(time.Second); syncing(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the background fsync goroutine outlived Close")
		}
	}
}
