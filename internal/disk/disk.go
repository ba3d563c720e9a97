// Package disk is the file seam under the durability layer: every byte the
// write-ahead log and the checkpoint write, and every byte recovery reads
// back, goes through an FS. OS is the only implementation a binary uses. A
// test installs a simulated disk (disk/simdisk) on the fault injector
// (faults.Injector.SetDisk), which is how the log and the checkpoint are
// handed their FS, so a crash test can cut the disk back to what was
// fsynced and a fault test fails a write inside the disk instead of inside
// the log.
//
// FS holds exactly the operations the log and the checkpoint call; the
// package imports nothing but the standard library, so the fault injector
// can name it without linking the log.
package disk

import (
	"io"
	"os"
)

// FS is a directory tree of files.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// ReadDir returns the names of the files in dir, subdirectories left
	// out, in name order.
	ReadDir(dir string) ([]string, error)
	// OpenAppend opens name for writing at its end, creating it if missing.
	OpenAppend(name string) (File, error)
	// Create opens name for writing, creating it or truncating what is
	// there; with excl set it fails when name exists.
	Create(name string, excl bool) (File, error)
	// Open opens name for reading.
	Open(name string) (File, error)
	// Rename moves oldname to newname, replacing a file there.
	Rename(oldname, newname string) error
	// Remove deletes the file at name.
	Remove(name string) error
	// SyncDir fsyncs dir, making the entries created, renamed or removed in
	// it durable.
	SyncDir(dir string) error
	// Exists reports whether anything is at name, a link not followed.
	Exists(name string) bool
}

// File is an open file of an FS.
type File interface {
	io.Writer
	io.ReaderAt
	// Size returns the file's length in bytes.
	Size() (int64, error)
	// Sync fsyncs the file's bytes.
	Sync() error
	// Truncate cuts (or extends) the file to size bytes.
	Truncate(size int64) error
	Close() error
}

// Synced runs fn on f, the file an open returned with err, then fsyncs and
// closes it, for a file written or cut once and made durable at once (a
// quarantine file, a repaired segment, a checkpoint's temp file). It
// returns the first error, the open's included, and closes f whatever
// failed after the open.
func Synced(f File, err error, fn func(File) error) error {
	if err != nil {
		return err
	}
	err = fn(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// OS is the operating system's file system.
type OS struct{}

// MkdirAll creates dir and its parents with mode 0755.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// ReadDir lists the files in dir; os.ReadDir sorts them by name.
func (OS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// OpenAppend opens name O_APPEND, creating it with mode 0644.
func (OS) OpenAppend(name string) (File, error) {
	return openFile(name, os.O_CREATE|os.O_APPEND|os.O_WRONLY)
}

// Create opens name for writing with mode 0644, O_EXCL when excl is set.
func (OS) Create(name string, excl bool) (File, error) {
	flag := os.O_CREATE | os.O_TRUNC | os.O_WRONLY
	if excl {
		flag = os.O_CREATE | os.O_EXCL | os.O_WRONLY
	}
	return openFile(name, flag)
}

// Open opens name read-only.
func (OS) Open(name string) (File, error) { return openFile(name, os.O_RDONLY) }

// Rename is os.Rename.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove is os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// SyncDir opens dir and fsyncs it.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Exists reports whether os.Lstat finds name.
func (OS) Exists(name string) bool {
	_, err := os.Lstat(name)
	return err == nil
}

func openFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// osFile is an *os.File with the Size File asks for.
type osFile struct{ *os.File }

// Size stats the file.
func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
