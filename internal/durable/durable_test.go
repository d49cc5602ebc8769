package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// recFile is a temporary file that logs its calls and may fail one.
type recFile struct {
	log  *[]string
	fail string
}

func (f recFile) call(name string) error {
	*f.log = append(*f.log, name)
	if name == f.fail {
		return errors.New(name + " failed")
	}
	return nil
}

func (f recFile) Write(p []byte) (int, error) { return len(p), f.call("write") }
func (f recFile) Name() string                { return "dir/snap.123.tmp" }
func (f recFile) Sync() error                 { return f.call("sync") }
func (f recFile) Close() error                { return f.call("close") }

// record swaps the file-system calls for ones that append to the returned
// log, failing the call named fail, until the test ends.
func record(t *testing.T, fail string) *[]string {
	var log []string
	call := func(name string) error { return recFile{&log, fail}.call(name) }
	c, o, rn, rm := createTemp, open, rename, remove
	t.Cleanup(func() { createTemp, open, rename, remove = c, o, rn, rm })
	createTemp = func(dir, pattern string) (file, error) {
		return recFile{&log, fail}, call("create " + dir + " " + pattern)
	}
	rename = func(from, to string) error { return call("rename " + from + " " + to) }
	remove = func(name string) error { return call("remove " + name) }
	open = func(name string) (file, error) { return recFile{&log, fail}, call("open " + name) }
	return &log
}

func write(w io.Writer) error {
	_, err := w.Write([]byte("state"))
	return err
}

// TestWriteFileCallOrder: the bytes are fsynced before the rename and the
// directory after it; a failure before the rename removes the temporary
// file and never renames it over the old one.
func TestWriteFileCallOrder(t *testing.T) {
	const tmp = "dir/snap.123.tmp"
	all := []string{"create dir snap.*.tmp", "write", "sync", "close", "rename " + tmp + " dir/snap", "open dir", "sync", "close"}
	for _, tc := range []struct {
		fail string
		want []string
	}{
		{"", all},
		{"write", []string{all[0], "write", "close", "remove " + tmp}},
		{"sync", []string{all[0], "write", "sync", "close", "remove " + tmp}},
		{"close", []string{all[0], "write", "sync", "close", "remove " + tmp}},
		{all[4], append(all[:5:5], "remove "+tmp)},
		{all[5], all[:6]},
	} {
		log := record(t, tc.fail)
		err := WriteFile("dir/snap", write)
		if (err != nil) != (tc.fail != "") {
			t.Errorf("fail %q: err = %v", tc.fail, err)
		}
		if !slices.Equal(*log, tc.want) {
			t.Errorf("fail %q: calls\n%q\nwant\n%q", tc.fail, *log, tc.want)
		}
	}
}

// TestWriteFileReplaces: on the real file system the new contents replace
// the old and no temporary file is left; a failed write leaves the old.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, func(w io.Writer) error { return errors.New("boom") }); err == nil {
		t.Fatal("a failed write reported success")
	}
	if b, _ := os.ReadFile(path); string(b) != "old" {
		t.Fatalf("after a failed write the file holds %q", b)
	}
	if err := WriteFile(path, write); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); string(b) != "state" {
		t.Fatalf("file holds %q", b)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("directory holds %d files, want 1", len(entries))
	}
}
