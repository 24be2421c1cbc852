package statestore

// faultfs_test.go is the store's disk in tests: osFS behind the seam,
// with faults on cue and a log of every call.

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
)

var errInjected = errors.New("injected disk fault")

// fault fails the calls it matches: op is the call ("mkdir", "open",
// "create" for an OpenFile with O_CREATE, "createtemp", "rename",
// "remove", "write", "read", "stat", "sync", "truncate"), name a pattern
// for the base name of the file it is on (a directory is synced as a
// file; a temp file is ".tmp-*"). The first skip matches go through and
// the next n fail (n < 0: all of them) with err, errInjected if nil,
// after hook runs. A failed write first lands half its bytes, as on a
// disk filling up mid-frame.
type fault struct {
	op, name string
	skip, n  int
	err      error
	hook     func()
}

// diskCall is one call through the fake, as replay applies it: a
// rename's new name, a truncate's length, the bytes a write landed.
type diskCall struct {
	op, name, to string
	size         int64
	data         []byte
}

// faultFS logs every call in calls, in the order they returned.
type faultFS struct {
	mu     sync.Mutex
	faults []*fault
	calls  []diskCall
}

func (fs *faultFS) arm(f fault) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.faults = append(fs.faults, &f)
}

func (fs *faultFS) disarm() { fs.mu.Lock(); defer fs.mu.Unlock(); fs.faults = nil }

// count reports how many op calls on name the fake has seen.
func (fs *faultFS) count(op, name string) (n int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, c := range fs.calls {
		if c.op == op && c.name == name {
			n++
		}
	}
	return n
}

// do fails c if an armed fault matches it and runs it otherwise; run may
// fill in what the call did.
func (fs *faultFS) do(c diskCall, run func(c *diskCall) error) (err error) {
	fs.mu.Lock()
	var hit *fault
	for _, f := range fs.faults {
		if ok, _ := filepath.Match(f.name, c.name); ok && f.op == c.op && f.n != 0 {
			if f.skip--; f.skip < 0 {
				f.n--
				hit = f
				break
			}
		}
	}
	fs.mu.Unlock()
	if hit == nil {
		err = run(&c)
	} else if c.op == "write" {
		c.data = c.data[:len(c.data)/2]
		run(&c)
	}
	fs.mu.Lock()
	fs.calls = append(fs.calls, c)
	fs.mu.Unlock()
	if hit != nil {
		if err = hit.err; err == nil {
			err = errInjected
		}
		if hit.hook != nil {
			hit.hook()
		}
	}
	return err
}

func (fs *faultFS) MkdirAll(dir string) error {
	return fs.do(diskCall{op: "mkdir", name: filepath.Base(dir)}, func(*diskCall) error { return osFS{}.MkdirAll(dir) })
}

func (fs *faultFS) OpenFile(name string, flag int) (f file, err error) {
	c := diskCall{op: "open", name: filepath.Base(name)}
	if flag&os.O_CREATE != 0 {
		c.op = "create"
	}
	err = fs.do(c, func(*diskCall) (err error) { f, err = osFS{}.OpenFile(name, flag); return err })
	return fs.wrap(f, err)
}

func (fs *faultFS) CreateTemp(dir, pattern string) (f file, err error) {
	err = fs.do(diskCall{op: "createtemp", name: pattern}, func(c *diskCall) (err error) {
		if f, err = (osFS{}).CreateTemp(dir, pattern); err == nil {
			c.name = filepath.Base(f.Name())
		}
		return err
	})
	return fs.wrap(f, err)
}

func (fs *faultFS) wrap(f file, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return &faultFile{f, fs}, nil
}

func (fs *faultFS) Rename(from, to string) error {
	c := diskCall{op: "rename", name: filepath.Base(from), to: filepath.Base(to)}
	return fs.do(c, func(*diskCall) error { return osFS{}.Rename(from, to) })
}

func (fs *faultFS) Remove(name string) error {
	return fs.do(diskCall{op: "remove", name: filepath.Base(name)}, func(*diskCall) error { return osFS{}.Remove(name) })
}

// faultFile is one open file of the fake.
type faultFile struct {
	file
	fs *faultFS
}

func (f *faultFile) call(op string) diskCall { return diskCall{op: op, name: filepath.Base(f.Name())} }

func (f *faultFile) Write(p []byte) (n int, err error) {
	c := f.call("write")
	c.data = append(c.data, p...)
	err = f.fs.do(c, func(c *diskCall) (err error) { n, err = f.file.Write(c.data); return err })
	return n, err
}

func (f *faultFile) ReadAt(p []byte, off int64) (n int, err error) {
	err = f.fs.do(f.call("read"), func(*diskCall) (err error) { n, err = f.file.ReadAt(p, off); return err })
	return n, err
}

func (f *faultFile) Stat() (st os.FileInfo, err error) {
	err = f.fs.do(f.call("stat"), func(*diskCall) (err error) { st, err = f.file.Stat(); return err })
	return st, err
}

func (f *faultFile) Sync() error {
	return f.fs.do(f.call("sync"), func(*diskCall) error { return f.file.Sync() })
}

func (f *faultFile) Truncate(size int64) error {
	c := f.call("truncate")
	c.size = size
	return f.fs.do(c, func(*diskCall) error { return f.file.Truncate(size) })
}
