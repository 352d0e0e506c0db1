// Package atomicfile holds the one crash-safe file write every persisted
// artifact goes through: the model checkpoint (which carries its drift
// baseline) and the watchdog's flight records.
package atomicfile

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// Write creates or replaces path with the bytes write produces, crash-safely:
// the bytes go to a temporary file in path's directory, which is fsynced,
// closed and renamed over path. A crash at any instant leaves either the old
// file or the new one, never a torn one; a write that fails part-way leaves
// the old file untouched and removes the temporary file. The temporary file
// is named ".<base>-<random>.tmp", so a directory scan can recognise, and
// delete, one a crash left behind. perm is the new file's mode.
func Write(path string, perm fs.FileMode, write func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := tmp.Chmod(perm); err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
