// Package atomicfile writes files atomically and durably: content goes
// to a temporary file in the destination directory, is fsynced, renamed
// into place, and the containing directory is fsynced so the rename
// itself survives power loss. A crashed or interrupted run therefore
// never leaves a half-written metrics snapshot, trace export or store
// snapshot for downstream tooling to choke on — the destination either
// holds the previous complete file or the new one, durably.
//
// The package also defines the small filesystem interface (FS, File)
// the repository's durable pieces write through. Production code uses
// the os-backed OS(); tests inject internal/faults' seeded fault layer
// to exercise error paths (torn writes, failed fsyncs, failed renames)
// deterministically.
package atomicfile

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the atomic writer and the durable
// store need. Reads and writes go through it so a fault layer can
// interpose on every byte.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's content to stable storage.
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface durable writes go through. OS() is the
// real thing; faults.FS wraps any FS with seeded fault injection.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a new temporary file in dir with os.CreateTemp
	// semantics.
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Chmod(name string, mode fs.FileMode) error
	Stat(name string) (fs.FileInfo, error)
	MkdirAll(path string, perm fs.FileMode) error
	// SyncDir fsyncs the directory itself, making previously renamed or
	// created entries durable across power loss.
	SyncDir(dir string) error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the os-backed FS.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Chmod(name string, mode fs.FileMode) error {
	return os.Chmod(name, mode)
}
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	// Some filesystems refuse fsync on directories; surface real errors
	// but let the close error through only if sync succeeded.
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteFile streams write's output into path atomically and durably
// through the real filesystem. See WriteFileFS.
func WriteFile(path string, write func(w io.Writer) error) error {
	return WriteFileFS(OS(), path, write)
}

// WriteFileFS streams write's output into path atomically through
// fsys: the temporary file lives in path's directory so the final
// rename never crosses a filesystem boundary, the file is fsynced
// before the rename and the directory after it, so a power cut at any
// point leaves either the previous complete file or the new one. On
// any error before the rename the temporary file is removed and the
// destination is untouched; a directory-sync failure after the rename
// leaves the complete new file in place (possibly not yet durable) and
// still reports the error. The destination never holds a partial file.
func WriteFileFS(fsys FS, path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	tmp := f.Name()
	closed := false
	defer func() {
		if err != nil {
			if !closed {
				f.Close()
			}
			fsys.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("atomicfile: sync %s: %w", tmp, err)
	}
	closed = true
	if err = f.Close(); err != nil {
		return fmt.Errorf("atomicfile: close %s: %w", tmp, err)
	}
	if err = fsys.Chmod(tmp, 0o644); err != nil {
		return fmt.Errorf("atomicfile: chmod %s: %w", tmp, err)
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("atomicfile: rename into %s: %w", path, err)
	}
	// The rename is only durable once the directory entry is on disk;
	// without this fsync a power cut can roll the directory back to the
	// old (or no) file even though the data blocks were synced.
	if err = fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("atomicfile: sync dir %s: %w", dir, err)
	}
	return nil
}

// WriteFileBytes writes b into path atomically.
func WriteFileBytes(path string, b []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}
