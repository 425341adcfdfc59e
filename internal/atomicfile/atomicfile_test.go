package atomicfile

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFile: a write lands whole, a failed one leaves the previous
// file and no temporary file, a symlink is written through, and a
// device is written in place.
func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := Write(path, func(f *os.File) error {
		_, err := f.WriteString("hello\n")
		return err
	}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(got) != "hello\n" {
		t.Fatalf("file holds %q", got)
	}

	if err := Write(filepath.Join(t.TempDir(), "missing", "out.txt"),
		func(f *os.File) error { return nil }); err == nil {
		t.Fatal("Write into a missing directory did not error")
	}
	// A failing writer leaves the previous file as it was, even after it
	// wrote part of its output, and leaves no temporary file behind.
	boom := errors.New("boom")
	if err := Write(path, func(f *os.File) error {
		if _, err := f.WriteString("partial"); err != nil {
			return err
		}
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Write swallowed the writer error: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "hello\n" {
		t.Fatalf("after a failed write the file holds %q (%v), want the previous contents", got, err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		for _, e := range entries {
			t.Errorf("directory holds %s", e.Name())
		}
	}

	// A symlink is written through, and its target keeps its mode.
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(t.TempDir(), "link.txt")
	if err := os.Symlink(path, link); err != nil {
		t.Fatal(err)
	}
	if err := Write(link, func(f *os.File) error {
		_, err := f.WriteString("via link\n")
		return err
	}); err != nil {
		t.Fatalf("Write through a symlink: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "via link\n" {
		t.Fatalf("symlink target holds %q (%v)", got, err)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("symlink was replaced (%v)", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("target mode changed (%v)", err)
	}

	// A device is written in place, not replaced. Only checked as a user
	// other than root: should Write regress to renaming over it, root
	// would replace the device, where another user only gets an error.
	if os.Geteuid() != 0 {
		if err := Write(os.DevNull, func(f *os.File) error {
			_, err := f.WriteString("discarded")
			return err
		}); err != nil {
			t.Fatalf("Write(%s): %v", os.DevNull, err)
		}
		if fi, err := os.Stat(os.DevNull); err != nil || fi.Mode().IsRegular() {
			t.Fatalf("%s was replaced (%v)", os.DevNull, err)
		}
	}
}
