// Package simdisk is a disk in memory that remembers what was made
// durable, for crash and fault tests of the durability layer. It keeps, per
// file, the bytes written and the length fsynced, and per directory the
// entries as of that directory's last SyncDir. Crash returns what a power
// loss leaves of it and Kill what a process crash leaves; the disk they are
// taken from keeps serving the process that was abandoned.
//
// The injector a Disk is made with fires the three WAL fault classes
// inside it: WALShortWrite lands half a write and errors, WALFsyncError
// fails a Sync or SyncDir without making anything durable, and WALTornTail
// lands a prefix of a write, errors, and takes the device: every later
// operation that would change the disk errors until Crash or Kill returns a
// new one. Reads still see what was written, as a page cache would. Fail
// and Heal make one kind of operation fail on demand.
//
// A file's length is what its last Sync left: a power loss keeps the bytes
// synced then, also those a later truncation cut, and none written since.
// One simplification favours the program under test: a directory is
// durable once made, so a power loss never takes back a MkdirAll, and no
// test here can show a missing fsync of a directory's parent. Writes land
// at a file's end: the log opens segments
// O_APPEND, and every other file is written once, front to back.
//
// Tests only: a binary that links it fails TestCommandsLinkNoBenchHarness.
package simdisk

import (
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/disk"
	"repro/internal/faults"
)

// inode is one file's contents.
type inode struct {
	data []byte
	// synced is how many bytes of data a power loss keeps, unless cut holds
	// them: a truncation below synced since the last Sync saves the bytes
	// it cut back to there.
	synced int
	cut    []byte
}

// kept returns the bytes a power loss leaves of n.
func (n *inode) kept() []byte {
	if n.cut != nil {
		return n.cut
	}
	return n.data[:n.synced]
}

// Disk is a simulated disk; safe for concurrent use.
type Disk struct {
	inj *faults.Injector

	mu      sync.Mutex
	dirs    map[string]bool   // directories, durable once made
	live    map[string]*inode // the entries a process sees
	durable map[string]*inode // the entries as of their directory's last SyncDir
	failing map[string]bool   // operation names Fail made fail
	gone    bool              // a torn write took the device
}

var _ disk.FS = (*Disk)(nil)

// New returns an empty disk whose WAL fault classes roll inj's coins (nil:
// none fire). Install it with inj.SetDisk.
func New(inj *faults.Injector) *Disk {
	return &Disk{
		inj:     inj,
		dirs:    map[string]bool{"/": true, ".": true},
		live:    map[string]*inode{},
		durable: map[string]*inode{},
		failing: map[string]bool{},
	}
}

// Crash returns what a power loss leaves: every file entry as of its
// directory's last SyncDir, each file cut to the length it was last
// fsynced at. The new disk rolls the same injector's coins.
func (d *Disk) Crash() *Disk {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, dup := d.image(true)
	for name, n := range d.durable {
		c.live[name], c.durable[name] = dup(n), dup(n)
	}
	return c
}

// Kill returns what a process crash leaves: every file entry and every
// byte written, with what was durable unchanged, so a Crash of the new disk
// is the power loss that follows.
func (d *Disk) Kill() *Disk {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, dup := d.image(false)
	for name, n := range d.live {
		c.live[name] = dup(n)
	}
	for name, n := range d.durable {
		c.durable[name] = dup(n)
	}
	return c
}

// image returns an empty disk with d's directories and a copier that keeps
// one copy per inode, so entries sharing an inode still share it. With
// powerLoss set a copy holds what a power loss keeps of its file, else every
// byte written and the file's durable state. Callers hold d.mu.
func (d *Disk) image(powerLoss bool) (*Disk, func(n *inode) *inode) {
	c := New(d.inj)
	for dir := range d.dirs {
		c.dirs[dir] = true
	}
	copies := map[*inode]*inode{}
	return c, func(n *inode) *inode {
		if m, ok := copies[n]; ok {
			return m
		}
		m := &inode{data: slices.Clone(n.data), synced: n.synced, cut: n.cut}
		if powerLoss {
			m = &inode{data: slices.Clone(n.kept())}
			m.synced = len(m.data)
		}
		copies[n] = m
		return m
	}
}

// Fail makes every later operation named op fail until Heal: an FS or File
// method name ("Write", "Sync", "SyncDir", "Truncate", "Rename", ...).
func (d *Disk) Fail(op string) {
	d.mu.Lock()
	d.failing[op] = true
	d.mu.Unlock()
}

// Heal undoes every Fail. A device a torn write took stays gone.
func (d *Disk) Heal() {
	d.mu.Lock()
	clear(d.failing)
	d.mu.Unlock()
}

// errGone is every write-side operation's error after a torn write.
var errGone = fmt.Errorf("simdisk: device gone after a torn write: %w", faults.ErrInjected)

// check returns the error a write-side operation op on name meets. Callers
// hold d.mu.
func (d *Disk) check(op, name string) error {
	switch {
	case d.gone:
		return &fs.PathError{Op: op, Path: name, Err: errGone}
	case d.failing[op]:
		return &fs.PathError{Op: op, Path: name, Err: fmt.Errorf("simdisk: %s failed: %w", op, faults.ErrInjected)}
	}
	return nil
}

// MkdirAll records dir and its parents.
func (d *Disk) MkdirAll(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check("MkdirAll", dir); err != nil {
		return err
	}
	for dir = filepath.Clean(dir); !d.dirs[dir]; dir = filepath.Dir(dir) {
		d.dirs[dir] = true
	}
	return nil
}

// ReadDir lists the files in dir.
func (d *Disk) ReadDir(dir string) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	dir = filepath.Clean(dir)
	if !d.dirs[dir] {
		return nil, &fs.PathError{Op: "ReadDir", Path: dir, Err: fs.ErrNotExist}
	}
	var names []string
	for name := range d.live {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	slices.Sort(names)
	return names, nil
}

// OpenAppend opens name for writing at its end, creating it if missing.
func (d *Disk) OpenAppend(name string) (disk.File, error) {
	return d.create("OpenAppend", name, false, false)
}

// Create opens name for writing, emptied; with excl set it fails when name
// exists.
func (d *Disk) Create(name string, excl bool) (disk.File, error) {
	return d.create("Create", name, excl, true)
}

func (d *Disk) create(op, name string, excl, trunc bool) (disk.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	name = filepath.Clean(name)
	if err := d.check(op, name); err != nil {
		return nil, err
	}
	if !d.dirs[filepath.Dir(name)] {
		return nil, &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
	}
	n := d.live[name]
	switch {
	case n != nil && excl:
		return nil, &fs.PathError{Op: op, Path: name, Err: fs.ErrExist}
	case n == nil:
		n = &inode{}
		d.live[name] = n
	case trunc:
		n.truncate(0)
	}
	return &file{d: d, n: n, name: name, write: true}, nil
}

// Open opens name for reading.
func (d *Disk) Open(name string) (disk.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	name = filepath.Clean(name)
	n := d.live[name]
	if n == nil {
		return nil, &fs.PathError{Op: "Open", Path: name, Err: fs.ErrNotExist}
	}
	return &file{d: d, n: n, name: name}, nil
}

// Rename moves the entry oldname to newname.
func (d *Disk) Rename(oldname, newname string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	if err := d.check("Rename", oldname); err != nil {
		return err
	}
	n := d.live[oldname]
	if n == nil || !d.dirs[filepath.Dir(newname)] {
		return &fs.PathError{Op: "Rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(d.live, oldname)
	d.live[newname] = n
	return nil
}

// Remove deletes the entry name.
func (d *Disk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	name = filepath.Clean(name)
	if err := d.check("Remove", name); err != nil {
		return err
	}
	if d.live[name] == nil {
		return &fs.PathError{Op: "Remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(d.live, name)
	return nil
}

// SyncDir makes dir's entries as they stand the ones a power loss keeps.
func (d *Disk) SyncDir(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	dir = filepath.Clean(dir)
	if err := d.check("SyncDir", dir); err != nil {
		return err
	}
	if !d.dirs[dir] {
		return &fs.PathError{Op: "SyncDir", Path: dir, Err: fs.ErrNotExist}
	}
	if err := d.inj.Fail(faults.WALFsyncError); err != nil {
		return &fs.PathError{Op: "SyncDir", Path: dir, Err: err}
	}
	for name := range d.durable {
		if filepath.Dir(name) == dir {
			delete(d.durable, name)
		}
	}
	for name, n := range d.live {
		if filepath.Dir(name) == dir {
			d.durable[name] = n
		}
	}
	return nil
}

// Exists reports whether a file or directory is at name.
func (d *Disk) Exists(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	name = filepath.Clean(name)
	return d.live[name] != nil || d.dirs[name]
}

// truncate cuts or zero-extends n to size bytes. A cut below what was
// synced saves the synced bytes first: until the next Sync a power loss
// brings them back.
func (n *inode) truncate(size int64) {
	if int(size) < n.synced && n.cut == nil {
		n.cut = slices.Clone(n.data[:n.synced])
	}
	if int(size) <= len(n.data) {
		n.data = n.data[:size]
	} else {
		n.data = append(n.data, make([]byte, int(size)-len(n.data))...)
	}
	n.synced = min(n.synced, int(size))
}

// file is an open handle: a write handle appends, any handle reads.
type file struct {
	d      *Disk
	n      *inode
	name   string
	write  bool
	closed bool
}

// op returns the error a write-side operation op on f meets. Callers hold
// f.d.mu.
func (f *file) op(op string) error {
	switch {
	case f.closed:
		return &fs.PathError{Op: op, Path: f.name, Err: fs.ErrClosed}
	case !f.write:
		return &fs.PathError{Op: op, Path: f.name, Err: fs.ErrPermission}
	}
	return f.d.check(op, f.name)
}

// Write appends p, or the part of it a short or torn write lands.
func (f *file) Write(p []byte) (int, error) {
	d := f.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := f.op("Write"); err != nil {
		return 0, err
	}
	n, err := len(p), error(nil)
	switch {
	case len(p) > 1 && d.inj.Should(faults.WALTornTail):
		n, err, d.gone = 1+d.inj.Intn(len(p)-1), errGone, true
	case d.inj.Should(faults.WALShortWrite):
		n, err = len(p)/2, fmt.Errorf("simdisk: short write: %w", faults.ErrInjected)
	}
	f.n.data = append(f.n.data, p[:n]...)
	if err != nil {
		err = &fs.PathError{Op: "Write", Path: f.name, Err: err}
	}
	return n, err
}

// ReadAt reads what the file holds at off.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.closed {
		return 0, &fs.PathError{Op: "ReadAt", Path: f.name, Err: fs.ErrClosed}
	}
	if off >= int64(len(f.n.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.n.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Size returns the bytes the file holds.
func (f *file) Size() (int64, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	return int64(len(f.n.data)), nil
}

// Sync makes every byte written durable.
func (f *file) Sync() error {
	d := f.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := f.op("Sync"); err != nil {
		return err
	}
	if err := d.inj.Fail(faults.WALFsyncError); err != nil {
		return &fs.PathError{Op: "Sync", Path: f.name, Err: err}
	}
	f.n.synced, f.n.cut = len(f.n.data), nil
	return nil
}

// Truncate cuts (or extends) the file.
func (f *file) Truncate(size int64) error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if err := f.op("Truncate"); err != nil {
		return err
	}
	f.n.truncate(size)
	return nil
}

// Close releases the handle.
func (f *file) Close() error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.closed {
		return &fs.PathError{Op: "Close", Path: f.name, Err: fs.ErrClosed}
	}
	f.closed = true
	return nil
}
