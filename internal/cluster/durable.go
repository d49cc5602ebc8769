// Durable server state: the one recovery recipe and the one checkpoint,
// which the server binary, boot catch-up, scrub repair and the test drills
// all run.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"platod2gl/internal/durable"
	"platod2gl/internal/eventlog"
	"platod2gl/internal/graph"
	"platod2gl/internal/wire"
)

// DurableConfig names a server's files and its WAL fsync policy: the
// platod2gl-server flags -snapshot, -wal, -wal-sync and -wal-sync-interval.
// An empty path turns that file off.
type DurableConfig struct {
	Snapshot, WAL string
	// WALSync is "always" (fsync before a batch applies, so an acknowledged
	// batch survives a crash), "never" (the OS decides) or "interval"
	// (fsync every WALSyncInterval, which must be positive).
	WALSync         string
	WALSyncInterval time.Duration
}

// Recovery reports what OpenDurable restored.
type Recovery struct {
	SnapshotLoaded bool
	WALBatches     int
}

// snapshotStore is a store that snapshots hold and catch-ups replace.
type snapshotStore interface {
	Save(io.Writer) error
	Load(io.Reader) error
	Reset()
}

// OpenDurable recovers the service from cfg's files and keeps them current:
// it loads the snapshot and the at-most-once table beside it if they exist,
// replays the WAL past them through the store and the table (so a retry
// that straddles the restart stays at most once, whether its batch is in
// the snapshot or the WAL), then appends every applied batch to the WAL
// under the fsync policy and streams the WAL to catching-up siblings. Call
// it once, before serving, on an empty store.
func (s *Service) OpenDurable(cfg DurableConfig) (Recovery, error) {
	var rec Recovery
	if p := cfg.WALSync; p != "always" && p != "never" && (p != "interval" || cfg.WALSyncInterval <= 0) {
		return rec, fmt.Errorf("cluster: WAL sync %q every %v: want always, never, or interval with a positive period", p, cfg.WALSyncInterval)
	}
	if cfg.Snapshot != "" {
		st, ok := s.store.(snapshotStore)
		if !ok {
			return rec, fmt.Errorf("cluster: store %T does not support snapshots", s.store)
		}
		f, err := os.Open(cfg.Snapshot)
		if err == nil {
			err = st.Load(f)
			f.Close()
			rec.SnapshotLoaded = err == nil
		} else if errors.Is(err, fs.ErrNotExist) {
			err = nil
		}
		if err != nil {
			return rec, fmt.Errorf("cluster: load snapshot %s: %w", cfg.Snapshot, err)
		}
	}
	s.snapshot = cfg.Snapshot
	if cfg.Snapshot != "" {
		table, err := readDedupTable(dedupPath(cfg.Snapshot))
		if err != nil {
			return rec, err
		}
		s.dedup.importEntries(table)
	}
	if cfg.WAL == "" {
		return rec, nil
	}
	var applied []DedupEntry
	n, err := eventlog.ReplayBatches(cfg.WAL, func(r eventlog.BatchRecord) error {
		s.store.ApplyBatch(r.Events)
		applied = append(applied, DedupEntry{r.ClientID, r.ClientSeq})
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return rec, fmt.Errorf("cluster: replay wal: %w", err)
	}
	s.dedup.importEntries(applied)
	rec.WALBatches = n
	wal, err := eventlog.Create(cfg.WAL)
	if err != nil {
		return rec, fmt.Errorf("cluster: %w", err)
	}
	if cfg.WALSync == "interval" {
		s.stopSyncer = wal.SyncEvery(cfg.WALSyncInterval)
	}
	s.onBatch = func(clientID, seq uint64, events []graph.Event) error {
		if _, err := wal.AppendBatch(clientID, seq, events); err != nil || cfg.WALSync != "always" {
			return err
		}
		return wal.Sync()
	}
	s.wal = wal
	return rec, nil
}

// Checkpoint writes the at-most-once table beside the snapshot, renames a
// complete snapshot over the old one (each through durable.WriteFile), then
// truncates the WAL, all under one Pause, so a restart loads the image,
// replays none of the batches it holds, and still knows every batch
// identity it applied. The table is renamed first, so a crash at any point
// leaves a table that covers the snapshot on disk; one that also names the
// WAL's batches is harmless, since replay applies them regardless. Only a
// snapshot may truncate the WAL: without a snapshot file Checkpoint does
// nothing. A crash between the rename and the truncation leaves the new
// snapshot beside the old WAL, whose batches the restart then replays a
// second time (ROADMAP 15(c)).
func (s *Service) Checkpoint() error {
	if s.snapshot == "" {
		return nil
	}
	resume := s.Pause()
	defer resume()
	table := s.dedup.export()
	err := durable.WriteFile(dedupPath(s.snapshot), func(w io.Writer) error {
		_, err := w.Write(encodeDedupTable(table))
		return err
	})
	if err == nil {
		err = durable.WriteFile(s.snapshot, s.store.(snapshotStore).Save)
	}
	if err == nil && s.wal != nil {
		err = s.wal.Reset()
	}
	if err != nil {
		return fmt.Errorf("cluster: checkpoint: %w", err)
	}
	return nil
}

// Close stops the WAL's background fsync and closes the WAL, which refuses
// later batches. It writes no snapshot: a clean shutdown checkpoints first.
// Closing twice is harmless.
func (s *Service) Close() error {
	if s.stopSyncer != nil {
		s.stopSyncer()
	}
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

// dedupPath is the file beside snapshot that holds the at-most-once table.
func dedupPath(snapshot string) string { return snapshot + ".dedup" }

// dedupMagic heads a table file; a CRC-32 of everything before it ends it.
const dedupMagic = "platod2gl-dedup v1\n"

// encodeDedupTable is a table file's contents: the magic, the entries as
// the wire codec writes them, and the CRC.
func encodeDedupTable(entries []DedupEntry) []byte {
	b := appendDedup([]byte(dedupMagic), entries)
	return binary.LittleEndian.AppendUint32(b, uint32(checksumBytes(b)))
}

// readDedupTable reads the table file at path. A missing file is an empty
// table, so a server checkpointed before tables were written still starts;
// a damaged one is an error, as a damaged snapshot is.
func readDedupTable(path string) ([]DedupEntry, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	var entries []DedupEntry
	if err == nil {
		entries, err = decodeDedupTable(b)
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: load at-most-once table %s: %w", path, err)
	}
	return entries, nil
}

// decodeDedupTable checks a table file's magic and CRC and decodes its
// entries.
func decodeDedupTable(b []byte) ([]DedupEntry, error) {
	if len(b) < len(dedupMagic)+4 || string(b[:len(dedupMagic)]) != dedupMagic {
		return nil, errors.New("not a table file")
	}
	body := b[:len(b)-4]
	if uint32(checksumBytes(body)) != binary.LittleEndian.Uint32(b[len(body):]) {
		return nil, errors.New("checksum mismatch")
	}
	r := wire.NewReader(body[len(dedupMagic):])
	entries := readDedup(r)
	if r.Err() != nil || r.Remaining() != 0 {
		return nil, errors.New("malformed entries")
	}
	return entries, nil
}
