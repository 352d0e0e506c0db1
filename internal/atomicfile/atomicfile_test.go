package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplaces: a successful write publishes the new bytes with the
// requested mode and leaves nothing but the destination in the directory.
func TestWriteReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	for _, body := range []string{"first", "second, longer"} {
		err := Write(path, 0o640, func(w io.Writer) error {
			_, err := io.WriteString(w, body)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != body {
			t.Fatalf("read back %q, %v; want %q", got, err, body)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o640 {
		t.Fatalf("mode = %v, want 0640", fi.Mode().Perm())
	}
	assertOnly(t, dir, "model.bin")
}

// TestWriteFailurePreservesOld: a write that fails part-way — bytes already
// written to the temporary file — leaves the old file byte-identical and no
// temporary file behind, and returns the writer's error.
func TestWriteFailurePreservesOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cursor.json")
	old := []byte(`{"pos":3}`)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := Write(path, 0o644, func(w io.Writer) error {
		if _, err := io.WriteString(w, `{"pos":`); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(old) {
		t.Fatalf("old file changed to %q", got)
	}
	assertOnly(t, dir, "cursor.json")
}

// TestWriteMissingDir: a destination directory that does not exist is an
// error before any callback runs.
func TestWriteMissingDir(t *testing.T) {
	called := false
	err := Write(filepath.Join(t.TempDir(), "gone", "f"), 0o644, func(io.Writer) error {
		called = true
		return nil
	})
	if err == nil || called {
		t.Fatalf("err = %v, callback ran = %v", err, called)
	}
}

func assertOnly(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
}
