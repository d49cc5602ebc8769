// Package durable replaces files so that a crash or a power loss leaves the
// old file or the whole new one under the name, never a torn or empty one.
package durable

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

type file interface {
	io.Writer
	Name() string
	Sync() error
	Close() error
}

// The file-system calls WriteFile makes; tests substitute recording ones.
var (
	createTemp = func(dir, pattern string) (file, error) { return os.CreateTemp(dir, pattern) }
	open       = func(name string) (file, error) { return os.Open(name) }
	rename     = os.Rename
	remove     = os.Remove
)

// WriteFile replaces the file at path with what write writes. The bytes go
// to a new file (mode 0600) in the same directory, which is fsynced, closed
// and renamed over path; then the directory is fsynced, so the rename is
// durable when WriteFile returns. A failure before the rename removes the
// new file and leaves path as it was.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := createTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = rename(f.Name(), path)
	}
	if err != nil {
		remove(f.Name())
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	d, err := open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("durable: fsync directory of %s: %w", path, err)
	}
	return nil
}
