// Package atomicfile writes output files so that no reader, and no
// later run, ever finds one half written: the content goes to a
// temporary file next to the target, which is synced and renamed over
// the target only once it is complete. vodsim's outputs, the sweep
// manifest and cell snapshots, the serve checkpoint and the campaign
// store are all written through Write.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// Write writes path through fn without ever leaving it half written:
// fn writes a temporary file in the same directory, which replaces path
// only once fn, Sync and Close have all succeeded. On any failure the
// temporary file is removed and path keeps its previous contents. An
// existing file keeps its mode, a new one gets 0644, and a symlink is
// written through to its target. A target that is not a regular file,
// such as a pipe or /dev/null, is written in place: renaming over it
// would replace it.
func Write(path string, fn func(*os.File) error) (err error) {
	if target, err := filepath.EvalSymlinks(path); err == nil {
		path = target
	}
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		if !fi.Mode().IsRegular() {
			return writeInPlace(path, fn)
		}
		mode = fi.Mode().Perm()
	}
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err := fn(f); err != nil {
		return err
	}
	if err := f.Chmod(mode); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// writeInPlace writes fn's output straight into path, an existing file
// that is not a regular one.
func writeInPlace(path string, fn func(*os.File) error) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
