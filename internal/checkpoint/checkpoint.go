// Package checkpoint persists resilient training sessions to disk: model
// tensors plus a manifest (epoch, step, RNG seed, sampling cursor) and the
// full optimizer state, so a trainer killed mid-run — SIGTERM, OOM, node
// loss — resumes exactly where it stopped instead of restarting the session.
// The paper's setting is continuous dynamic-GNN retraining (Sec. II-A's
// evolving M^(t)): sessions are long-lived and restarts are routine, so
// durability is part of the training loop, not an afterthought.
//
// Durability discipline:
//
//   - Writes are atomic (durable.WriteFile): encode to a temp file in the
//     target directory, fsync, rename into place, fsync the directory. A
//     crash mid-write leaves at worst an ignorable *.tmp, never a
//     half-written checkpoint under the real name.
//   - Every file ends in an 8-byte footer (magic + CRC32 of the payload).
//     Torn or bit-rotted files fail verification and are skipped.
//   - Rotation keeps the newest N checkpoints; LoadLatest walks newest to
//     oldest and returns the first intact one, so one bad file costs one
//     checkpoint interval, not the session.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"platod2gl/internal/durable"
	"platod2gl/internal/gnn"
)

const (
	fileMagic   = "platod2gl-ckpt"
	fileVersion = 1
	// footerMagic marks the last 8 bytes as [magic uint32][crc32 uint32].
	footerMagic uint32 = 0x434b5031 // "CKP1"
	footerLen          = 8

	filePrefix = "ckpt-"
	fileSuffix = ".ckpt"
)

// ErrNoCheckpoint is returned by LoadLatest when the directory holds no
// intact checkpoint (empty, missing, or every candidate corrupt).
var ErrNoCheckpoint = errors.New("checkpoint: no usable checkpoint found")

// ErrCorrupt wraps verification failures: truncated files, bad footers, CRC
// mismatches, undecodable payloads.
var ErrCorrupt = errors.New("checkpoint: corrupt or torn file")

// Manifest is the training-position metadata saved alongside the tensors.
// Epoch/Step name the position training resumes FROM: Step batches of Epoch
// are already applied to the model (Step 0 = start of Epoch).
type Manifest struct {
	Version int
	// Epoch is the epoch in progress (or about to start when Step == 0).
	Epoch int
	// Step is the number of mini-batches of Epoch already trained.
	Step int
	// Seed is the session's base RNG seed; resume verifies it so a
	// checkpoint is never silently applied to a differently-seeded run.
	Seed int64
	// SamplePos is the view's sampling-seed cursor (view.SamplePos) at save
	// time. Restoring it replays the same per-call sampling seed sequence,
	// which is what makes a resumed deterministic run bit-identical.
	SamplePos int64
}

// Tensor is one parameter matrix in serialized form.
type Tensor struct {
	Rows, Cols int
	Data       []float32
}

// State is everything one checkpoint carries.
type State struct {
	Manifest Manifest
	Params   []Tensor
	Opt      gnn.AdamState
}

// fileHeader opens the gob payload so foreign files are rejected before any
// structural decoding.
type fileHeader struct {
	Magic   string
	Version int
}

// Capture snapshots the current model parameters and optimizer state under
// the given manifest. Tensor data is copied, so the caller may keep training
// while the state is encoded or written.
func Capture(m Manifest, params []*gnn.Matrix, opt *gnn.Adam) *State {
	m.Version = fileVersion
	st := &State{Manifest: m, Params: make([]Tensor, len(params))}
	for i, p := range params {
		st.Params[i] = Tensor{Rows: p.Rows, Cols: p.Cols, Data: append([]float32(nil), p.Data...)}
	}
	if opt != nil {
		st.Opt = opt.State()
	}
	return st
}

// Apply restores the state into a model's parameter tensors and optimizer,
// validating shapes first so a mismatched checkpoint fails loudly with the
// offending tensor index and both shapes.
func (s *State) Apply(params []*gnn.Matrix, opt *gnn.Adam) error {
	if len(s.Params) != len(params) {
		return fmt.Errorf("checkpoint: %d tensors, model expects %d", len(s.Params), len(params))
	}
	for i, t := range s.Params {
		p := params[i]
		if t.Rows != p.Rows || t.Cols != p.Cols {
			return fmt.Errorf("checkpoint: tensor %d: checkpoint shape %dx%d, model expects %dx%d",
				i, t.Rows, t.Cols, p.Rows, p.Cols)
		}
	}
	if s.Opt.M != nil {
		if len(s.Opt.M) != len(params) || len(s.Opt.V) != len(params) {
			return fmt.Errorf("checkpoint: optimizer has %d moment tensors, model expects %d", len(s.Opt.M), len(params))
		}
		for i, m := range s.Opt.M {
			if len(m) != len(params[i].Data) || len(s.Opt.V[i]) != len(params[i].Data) {
				return fmt.Errorf("checkpoint: optimizer moment %d has %d values, tensor holds %d",
					i, len(m), len(params[i].Data))
			}
		}
	}
	for i, t := range s.Params {
		copy(params[i].Data, t.Data)
	}
	if opt != nil {
		opt.SetState(s.Opt)
	}
	return nil
}

// encode renders the state as header + gob payload + CRC footer.
func encode(s *State) ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(fileHeader{Magic: fileMagic, Version: fileVersion}); err != nil {
		return nil, fmt.Errorf("checkpoint: encode header: %w", err)
	}
	if err := enc.Encode(s); err != nil {
		return nil, fmt.Errorf("checkpoint: encode state: %w", err)
	}
	payload := buf.Bytes()
	footer := make([]byte, footerLen)
	binary.LittleEndian.PutUint32(footer[0:], footerMagic)
	binary.LittleEndian.PutUint32(footer[4:], crc32.ChecksumIEEE(payload))
	return append(payload, footer...), nil
}

// decode verifies the footer and CRC, then decodes the payload.
func decode(b []byte) (*State, error) {
	if len(b) < footerLen {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the footer", ErrCorrupt, len(b))
	}
	payload, footer := b[:len(b)-footerLen], b[len(b)-footerLen:]
	if got := binary.LittleEndian.Uint32(footer[0:]); got != footerMagic {
		return nil, fmt.Errorf("%w: bad footer magic %08x", ErrCorrupt, got)
	}
	want := binary.LittleEndian.Uint32(footer[4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	dec := gob.NewDecoder(bytes.NewReader(payload))
	var h fileHeader
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("%w: decode header: %v", ErrCorrupt, err)
	}
	if h.Magic != fileMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrCorrupt, h.Magic)
	}
	if h.Version != fileVersion {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", h.Version)
	}
	st := new(State)
	if err := dec.Decode(st); err != nil {
		return nil, fmt.Errorf("%w: decode state: %v", ErrCorrupt, err)
	}
	return st, nil
}

// Write encodes s to w in the checkpoint file format: header, gob payload
// and CRC footer.
func Write(w io.Writer, s *State) error {
	b, err := encode(s)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}

// Read decodes and verifies a checkpoint that Write wrote to r.
func Read(r io.Reader) (*State, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return decode(b)
}

// SaveOptions tune Save.
type SaveOptions struct {
	// Keep bounds how many checkpoint files remain after a successful save
	// (newest first). <= 0 keeps everything.
	Keep int
	// Metrics receives save/prune counters. nil: a private instance.
	Metrics *Metrics
}

// Save atomically writes a new checkpoint into dir (created if missing) and
// prunes rotation beyond opts.Keep. The returned path names the new file.
func Save(dir string, s *State, opts SaveOptions) (string, error) {
	start := time.Now()
	if opts.Metrics == nil {
		opts.Metrics = &Metrics{}
	}
	b, err := encode(s)
	if err != nil {
		opts.Metrics.SaveErrors.Inc()
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		opts.Metrics.SaveErrors.Inc()
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	seqs, err := listSeqs(dir)
	if err != nil {
		opts.Metrics.SaveErrors.Inc()
		return "", err
	}
	next := 1
	if len(seqs) > 0 {
		next = seqs[len(seqs)-1] + 1
	}
	final := filepath.Join(dir, fmt.Sprintf("%s%09d%s", filePrefix, next, fileSuffix))
	if err := durable.WriteFile(final, func(w io.Writer) error { _, err := w.Write(b); return err }); err != nil {
		opts.Metrics.SaveErrors.Inc()
		return "", err
	}
	opts.Metrics.Saves.Inc()
	opts.Metrics.SaveBytes.Add(int64(len(b)))
	opts.Metrics.SaveLatency.ObserveSince(start)
	if opts.Keep > 0 {
		// Prune oldest-first so the newest Keep files (including the one just
		// written) survive. Prune failures are non-fatal: the new checkpoint
		// is durable, extra old files only cost disk.
		for i := 0; i < len(seqs)-(opts.Keep-1); i++ {
			path := filepath.Join(dir, fmt.Sprintf("%s%09d%s", filePrefix, seqs[i], fileSuffix))
			if os.Remove(path) == nil {
				opts.Metrics.Pruned.Inc()
			}
		}
	}
	return final, nil
}

// Load reads and verifies one checkpoint file.
func Load(path string) (*State, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st, err := decode(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return st, nil
}

// LoadLatest returns the newest intact checkpoint in dir plus its path,
// skipping (and counting) torn or corrupt files. A missing or empty
// directory — or one with only corrupt files — returns ErrNoCheckpoint.
func LoadLatest(dir string, m *Metrics) (*State, string, error) {
	start := time.Now()
	if m == nil {
		m = &Metrics{}
	}
	seqs, err := listSeqs(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, "", ErrNoCheckpoint
		}
		return nil, "", err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		path := filepath.Join(dir, fmt.Sprintf("%s%09d%s", filePrefix, seqs[i], fileSuffix))
		st, err := Load(path)
		if err != nil {
			m.Skipped.Inc()
			continue
		}
		m.Loads.Inc()
		m.LoadLatency.ObserveSince(start)
		return st, path, nil
	}
	return nil, "", ErrNoCheckpoint
}

// listSeqs returns the sequence numbers of the checkpoint files in dir,
// ascending. Files that do not match the naming scheme are ignored.
func listSeqs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		name := e.Name()
		var seq int
		if _, err := fmt.Sscanf(name, filePrefix+"%d"+fileSuffix, &seq); err != nil {
			continue
		}
		// Reject trailing junk like ckpt-000000001.ckpt.tmp.
		if fmt.Sprintf("%s%09d%s", filePrefix, seq, fileSuffix) != name {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, nil
}
