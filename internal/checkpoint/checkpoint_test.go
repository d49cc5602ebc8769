package checkpoint

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"platod2gl/internal/gnn"
)

// trainedModel returns a model plus an optimizer that has taken a few steps,
// so checkpoints carry non-trivial moment vectors.
func trainedModel(t *testing.T, seed int64) (*gnn.Model, *gnn.Adam) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := gnn.NewModel(6, 12, 3, rng)
	opt := gnn.NewAdam(0.02)
	grads := make([]*gnn.Matrix, len(m.Params()))
	for i, p := range m.Params() {
		grads[i] = gnn.NewMatrix(p.Rows, p.Cols).Glorot(rng)
	}
	for i := 0; i < 3; i++ {
		opt.Step(m.Params(), grads)
	}
	return m, opt
}

func save(t *testing.T, dir string, st *State, opts SaveOptions) string {
	t.Helper()
	path, err := Save(dir, st, opts)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSaveLoadLatestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	model, opt := trainedModel(t, 1)
	man := Manifest{Epoch: 3, Step: 7, Seed: 42, SamplePos: 99}
	save(t, dir, Capture(man, model.Params(), opt), SaveOptions{})

	var m Metrics
	st, path, err := LoadLatest(dir, &m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, ".ckpt") {
		t.Fatalf("odd path %q", path)
	}
	if st.Manifest.Epoch != 3 || st.Manifest.Step != 7 || st.Manifest.Seed != 42 || st.Manifest.SamplePos != 99 {
		t.Fatalf("manifest mangled: %+v", st.Manifest)
	}
	fresh, freshOpt := trainedModel(t, 2)
	if err := st.Apply(fresh.Params(), freshOpt); err != nil {
		t.Fatal(err)
	}
	for i, p := range model.Params() {
		for j := range p.Data {
			if p.Data[j] != fresh.Params()[i].Data[j] {
				t.Fatalf("tensor %d[%d] differs after apply", i, j)
			}
		}
	}
	a, b := opt.State(), freshOpt.State()
	if a.T != b.T {
		t.Fatalf("optimizer step count %d vs %d", a.T, b.T)
	}
	for i := range a.M {
		for j := range a.M[i] {
			if a.M[i][j] != b.M[i][j] || a.V[i][j] != b.V[i][j] {
				t.Fatalf("optimizer moments differ at %d[%d]", i, j)
			}
		}
	}
	if m.Snapshot().Loads != 1 {
		t.Fatalf("metrics: %s", m.Snapshot())
	}
}

// TestTornWriteFallsBack truncates the newest checkpoint mid-file (a crash
// during write that somehow landed under the real name) and checks
// LoadLatest skips it and returns the previous intact one.
func TestTornWriteFallsBack(t *testing.T) {
	dir := t.TempDir()
	model, opt := trainedModel(t, 3)
	save(t, dir, Capture(Manifest{Epoch: 1, Seed: 7}, model.Params(), opt), SaveOptions{})
	newest := save(t, dir, Capture(Manifest{Epoch: 2, Seed: 7}, model.Params(), opt), SaveOptions{})

	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var m Metrics
	st, path, err := LoadLatest(dir, &m)
	if err != nil {
		t.Fatal(err)
	}
	if st.Manifest.Epoch != 1 {
		t.Fatalf("resumed from epoch %d, want the intact epoch-1 checkpoint", st.Manifest.Epoch)
	}
	if path == newest {
		t.Fatal("LoadLatest returned the torn file")
	}
	if s := m.Snapshot(); s.Skipped != 1 || s.Loads != 1 {
		t.Fatalf("metrics: %s", s)
	}
}

// TestCorruptPayloadFallsBack flips a payload byte so the CRC fails.
func TestCorruptPayloadFallsBack(t *testing.T) {
	dir := t.TempDir()
	model, opt := trainedModel(t, 4)
	save(t, dir, Capture(Manifest{Epoch: 5, Seed: 9}, model.Params(), opt), SaveOptions{})
	newest := save(t, dir, Capture(Manifest{Epoch: 6, Seed: 9}, model.Params(), opt), SaveOptions{})

	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/3] ^= 0xff
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(newest); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of corrupt file: %v", err)
	}
	st, _, err := LoadLatest(dir, nil) // nil metrics must be safe
	if err != nil {
		t.Fatal(err)
	}
	if st.Manifest.Epoch != 5 {
		t.Fatalf("resumed from epoch %d, want 5", st.Manifest.Epoch)
	}
}

func TestRotationKeepsNewestN(t *testing.T) {
	dir := t.TempDir()
	model, opt := trainedModel(t, 5)
	var m Metrics
	for e := 0; e < 5; e++ {
		save(t, dir, Capture(Manifest{Epoch: e, Seed: 1}, model.Params(), opt), SaveOptions{Keep: 3, Metrics: &m})
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("rotation kept %d files, want 3: %v", len(files), files)
	}
	st, _, err := LoadLatest(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Manifest.Epoch != 4 {
		t.Fatalf("latest is epoch %d, want 4", st.Manifest.Epoch)
	}
	// The three survivors must be the three newest epochs.
	for _, f := range files {
		st, err := Load(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Manifest.Epoch < 2 {
			t.Fatalf("rotation kept old epoch %d", st.Manifest.Epoch)
		}
	}
	if s := m.Snapshot(); s.Saves != 5 || s.Pruned != 2 {
		t.Fatalf("metrics: %s", s)
	}
}

func TestLoadLatestEmptyAndMissing(t *testing.T) {
	if _, _, err := LoadLatest(t.TempDir(), nil); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: %v", err)
	}
	if _, _, err := LoadLatest(filepath.Join(t.TempDir(), "nope"), nil); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: %v", err)
	}
}

func TestApplyShapeMismatch(t *testing.T) {
	model, opt := trainedModel(t, 6)
	st := Capture(Manifest{}, model.Params(), opt)
	other := gnn.NewModel(6, 24, 3, rand.New(rand.NewSource(7)))
	err := st.Apply(other.Params(), gnn.NewAdam(0.02))
	if err == nil {
		t.Fatal("expected shape mismatch")
	}
	for _, want := range []string{"tensor 0", "6x12", "6x24", "expects"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	// A wrong-length optimizer moment must also be rejected.
	st.Opt.M[0] = st.Opt.M[0][:3]
	if err := st.Apply(model.Params(), gnn.NewAdam(0.02)); err == nil || !strings.Contains(err.Error(), "moment") {
		t.Fatalf("optimizer mismatch not caught: %v", err)
	}
}

// TestTempFilesIgnored checks stray temp files (a crash mid-write) never
// shadow real checkpoints.
func TestTempFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	model, opt := trainedModel(t, 8)
	save(t, dir, Capture(Manifest{Epoch: 2, Seed: 3}, model.Params(), opt), SaveOptions{})
	if err := os.WriteFile(filepath.Join(dir, "ckpt-999999999.ckpt.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, _, err := LoadLatest(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Manifest.Epoch != 2 {
		t.Fatalf("epoch %d, want 2", st.Manifest.Epoch)
	}
	if s := (MetricsSnapshot{}); s.String() == "" {
		t.Fatal("empty snapshot rendering")
	}
}

// TestWriteReadParamsOnly: parameters alone, with no manifest and no
// optimizer (the root package's model files), go through a stream and into
// a differently initialized model.
func TestWriteReadParamsOnly(t *testing.T) {
	model, _ := trainedModel(t, 10)
	var buf bytes.Buffer
	if err := Write(&buf, Capture(Manifest{}, model.Params(), nil)); err != nil {
		t.Fatal(err)
	}
	st, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh := gnn.NewModel(6, 12, 3, rand.New(rand.NewSource(11)))
	if err := st.Apply(fresh.Params(), nil); err != nil {
		t.Fatal(err)
	}
	for i, p := range model.Params() {
		for j := range p.Data {
			if p.Data[j] != fresh.Params()[i].Data[j] {
				t.Fatalf("tensor %d[%d] differs after the round trip", i, j)
			}
		}
	}
}

// TestApplyTensorCountMismatch: a state with more tensors than the model is
// refused before any tensor is copied.
func TestApplyTensorCountMismatch(t *testing.T) {
	model, _ := trainedModel(t, 12)
	st := Capture(Manifest{}, model.Params(), nil)
	layer := gnn.NewSAGELayer(6, 12, true, rand.New(rand.NewSource(13)))
	before := append([]float32(nil), layer.Params()[0].Data...)
	err := st.Apply(layer.Params(), nil)
	if err == nil || !strings.Contains(err.Error(), "tensors") {
		t.Fatalf("tensor-count mismatch = %v", err)
	}
	for j, v := range layer.Params()[0].Data {
		if v != before[j] {
			t.Fatalf("a refused Apply changed tensor 0[%d]", j)
		}
	}
}

// TestReadChecksumMismatch: a stream altered after encoding fails its CRC.
func TestReadChecksumMismatch(t *testing.T) {
	model, _ := trainedModel(t, 14)
	var buf bytes.Buffer
	if err := Write(&buf, Capture(Manifest{}, model.Params(), nil)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)/2] ^= 0x01
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("altered stream = %v, want a checksum mismatch", err)
	}
}

// TestReadGarbage: bytes that are not a checkpoint are refused, shorter
// than the footer or not.
func TestReadGarbage(t *testing.T) {
	for _, junk := range []string{"", "junk", strings.Repeat("x", 64)} {
		if _, err := Read(strings.NewReader(junk)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Read(%q) = %v, want ErrCorrupt", junk, err)
		}
	}
}

// TestReadApplyShapeMismatch: a parameters-only stream read back into a model
// of another hidden width is refused with a shape error.
func TestReadApplyShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	if err := Write(&buf, Capture(Manifest{}, gnn.NewModel(8, 16, 4, rng).Params(), nil)); err != nil {
		t.Fatal(err)
	}
	st, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	err = st.Apply(gnn.NewModel(8, 32, 4, rng).Params(), nil)
	if err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("expected shape error, got %v", err)
	}
}

// TestReadApplyShapeErrorReportsDims: the shape error of a stream read back
// into the wrong model names the tensor and both shapes.
func TestReadApplyShapeErrorReportsDims(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var buf bytes.Buffer
	if err := Write(&buf, Capture(Manifest{}, gnn.NewModel(8, 16, 4, rng).Params(), nil)); err != nil {
		t.Fatal(err)
	}
	st, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	err = st.Apply(gnn.NewModel(8, 32, 4, rng).Params(), nil)
	if err == nil {
		t.Fatal("expected shape error")
	}
	for _, want := range []string{"tensor 0", "8x16", "8x32", "expects"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("shape error %q missing %q", err, want)
		}
	}
}
