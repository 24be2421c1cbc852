package statestore

import (
	"io"
	"os"
)

// fileSystem is every call the store makes to the disk, and file every
// call it makes to an open file: the one seam a test can fault or record
// (TestOnlyTheSeamTouchesTheDisk holds the rest of the package to it).
// osFS is the only implementation outside tests.
type fileSystem interface {
	MkdirAll(dir string) error
	OpenFile(name string, flag int) (file, error)
	CreateTemp(dir, pattern string) (file, error)
	Rename(from, to string) error
	Remove(name string) error
}

// file is what the store does with an open file: the logs append, sync,
// cut and read back; base.db and an index are read; a compaction's temp
// file is written; a directory is opened only to be synced.
type file interface {
	io.Writer
	io.ReaderAt
	Stat() (os.FileInfo, error)
	Sync() error
	Truncate(size int64) error
	Close() error
	Name() string
}

// osFS is the disk, through package os.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) OpenFile(name string, flag int) (file, error) {
	return asFile(os.OpenFile(name, flag, 0o644))
}

func (osFS) CreateTemp(dir, pattern string) (file, error) {
	return asFile(os.CreateTemp(dir, pattern))
}

func (osFS) Rename(from, to string) error { return os.Rename(from, to) }

func (osFS) Remove(name string) error { return os.Remove(name) }

// asFile keeps a failed open's nil *os.File from becoming a non-nil file.
func asFile(f *os.File, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}
