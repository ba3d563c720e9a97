package simdisk

import (
	"errors"
	"io"
	"io/fs"
	"testing"

	"repro/internal/disk"
	"repro/internal/faults"
)

// write creates name on d and writes each chunk, fsyncing after the
// chunks listed in syncAfter.
func write(t *testing.T, d disk.FS, name string, chunks []string, syncAfter ...int) {
	t.Helper()
	f, err := d.Create(name, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if _, err := f.Write([]byte(c)); err != nil {
			t.Fatal(err)
		}
		for _, s := range syncAfter {
			if s == i {
				if err := f.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// contents reads name off d, or reports it missing.
func contents(t *testing.T, d disk.FS, name string) (string, bool) {
	t.Helper()
	f, err := d.Open(name)
	if errors.Is(err, fs.ErrNotExist) {
		return "", false
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, size)
	if n, err := f.ReadAt(b, 0); err != nil && err != io.EOF || n != len(b) {
		t.Fatalf("read %d of %d bytes of %s: %v", n, len(b), name, err)
	}
	return string(b), true
}

// TestCrashKeepsWhatWasSynced: a power loss keeps a file's bytes up to its
// last fsync and a directory's entries as of its last SyncDir — a create,
// a rename and a remove after it are undone — while a process crash (Kill)
// keeps everything written.
func TestCrashKeepsWhatWasSynced(t *testing.T) {
	d := New(nil)
	if err := d.MkdirAll("/db/wal"); err != nil {
		t.Fatal(err)
	}
	write(t, d, "/db/a", []string{"abc", "def"}, 0)
	write(t, d, "/db/gone", []string{"x"}, 0)
	if err := d.SyncDir("/db"); err != nil {
		t.Fatal(err)
	}
	write(t, d, "/db/new", []string{"fresh"}, 0)
	if err := d.Rename("/db/a", "/db/b"); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("/db/gone"); err != nil {
		t.Fatal(err)
	}

	crash := d.Crash()
	for name, want := range map[string]string{"/db/a": "abc", "/db/gone": "x"} {
		if got, ok := contents(t, crash, name); !ok || got != want {
			t.Errorf("after a power loss %s holds %q (present %v), want %q", name, got, ok, want)
		}
	}
	for _, name := range []string{"/db/b", "/db/new"} {
		if _, ok := contents(t, crash, name); ok {
			t.Errorf("after a power loss %s, never made durable by a SyncDir, is present", name)
		}
	}
	if names, err := crash.ReadDir("/db"); err != nil || len(names) != 2 || names[0] != "a" || names[1] != "gone" {
		t.Errorf("after a power loss /db lists %v (%v), want [a gone]", names, err)
	}

	kill := d.Kill()
	if got, _ := contents(t, kill, "/db/b"); got != "abcdef" {
		t.Errorf("after a process crash /db/b holds %q, want every byte written", got)
	}
	if got, _ := contents(t, kill.Crash(), "/db/a"); got != "abc" {
		t.Errorf("a power loss after a process crash left /db/a %q, want the synced %q", got, "abc")
	}
	// The disk the images were taken from keeps serving.
	if got, _ := contents(t, d, "/db/new"); got != "fresh" {
		t.Errorf("the abandoned disk lost /db/new: %q", got)
	}
}

// TestTruncationIsDurableAtTheNextSync: a power loss brings back the synced
// bytes a truncation cut, and drops what was written after it, until the
// file's next Sync; a process crash keeps the cut, and a power loss after it
// still brings the bytes back.
func TestTruncationIsDurableAtTheNextSync(t *testing.T) {
	d := New(nil)
	if err := d.MkdirAll("/w"); err != nil {
		t.Fatal(err)
	}
	write(t, d, "/w/seg", []string{"abcdef"}, 0)
	if err := d.SyncDir("/w"); err != nil {
		t.Fatal(err)
	}
	f, err := d.OpenAppend("/w/seg")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("xy")); err != nil {
		t.Fatal(err)
	}
	if got, _ := contents(t, d.Crash(), "/w/seg"); got != "abcdef" {
		t.Errorf("a power loss before the Sync left %q, want the synced %q", got, "abcdef")
	}
	kill := d.Kill()
	if got, _ := contents(t, kill, "/w/seg"); got != "abxy" {
		t.Errorf("a process crash left %q, want %q", got, "abxy")
	}
	if got, _ := contents(t, kill.Crash(), "/w/seg"); got != "abcdef" {
		t.Errorf("a power loss after a process crash left %q, want %q", got, "abcdef")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, _ := contents(t, d.Crash(), "/w/seg"); got != "abxy" {
		t.Errorf("a power loss after the Sync left %q, want %q", got, "abxy")
	}
}

// TestEntriesShareTheirFile: a file open for appending and the entry a
// rename moved it to are one file, also on the images taken of the disk.
func TestEntriesShareTheirFile(t *testing.T) {
	d := New(nil)
	if err := d.MkdirAll("/w"); err != nil {
		t.Fatal(err)
	}
	f, err := d.OpenAppend("/w/seg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(6); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if got, _ := contents(t, d, "/w/seg"); got != "0123\x00\x00x" {
		t.Fatalf("after the truncations /w/seg holds %q", got)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.SyncDir("/w"); err != nil {
		t.Fatal(err)
	}
	if got, _ := contents(t, d.Crash(), "/w/seg"); got != "0123\x00\x00x" {
		t.Errorf("after a power loss /w/seg holds %q", got)
	}
	if _, err := d.Create("/w/seg", true); !errors.Is(err, fs.ErrExist) {
		t.Errorf("an exclusive create over /w/seg returned %v", err)
	}
	if !d.Exists("/w/seg") || !d.Exists("/w") || d.Exists("/w/none") {
		t.Error("Exists does not see what the disk holds")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); !errors.Is(err, fs.ErrClosed) {
		t.Errorf("a second Close returned %v", err)
	}
	if _, err := f.Write([]byte("y")); !errors.Is(err, fs.ErrClosed) {
		t.Errorf("a Write after Close returned %v", err)
	}
}

// TestFaultsFireInsideTheDisk: the WAL fault classes fire in the disk made
// with their injector. A short write lands half its bytes; an fsync error
// makes nothing durable; a torn write lands a prefix and fails every later
// change to the disk, while reads still see what was written. Fail makes
// one operation fail until Heal.
func TestFaultsFireInsideTheDisk(t *testing.T) {
	inj := faults.New(1)
	d := New(inj)
	if err := d.MkdirAll("/w"); err != nil {
		t.Fatal(err)
	}
	f, err := d.OpenAppend("/w/seg")
	if err != nil {
		t.Fatal(err)
	}
	inj.Enable(faults.WALShortWrite, 1)
	if n, err := f.Write([]byte("abcd")); n != 2 || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("a short write landed %d bytes, %v", n, err)
	}
	inj.DisableAll()
	inj.Enable(faults.WALFsyncError, 1)
	if err := f.Sync(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("an fsync under the fault returned %v", err)
	}
	if err := d.SyncDir("/w"); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("a directory fsync under the fault returned %v", err)
	}
	if _, ok := contents(t, d.Crash(), "/w/seg"); ok {
		t.Fatal("a file whose directory fsync failed survived a power loss")
	}
	inj.DisableAll()

	d.Fail("Rename")
	if err := d.Rename("/w/seg", "/w/other"); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("a failing Rename returned %v", err)
	}
	d.Heal()

	inj.Enable(faults.WALTornTail, 1)
	if n, err := f.Write([]byte("efgh")); n < 1 || n >= 4 || !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("a torn write landed %d of 4 bytes, %v", n, err)
	}
	inj.DisableAll()
	for op, err := range map[string]error{
		"Write":    func() error { _, err := f.Write([]byte("i")); return err }(),
		"Sync":     f.Sync(),
		"Truncate": f.Truncate(0),
		"Remove":   d.Remove("/w/seg"),
		"MkdirAll": d.MkdirAll("/v"),
	} {
		if !errors.Is(err, faults.ErrInjected) {
			t.Errorf("%s on a device a torn write took returned %v", op, err)
		}
	}
	d.Heal()
	if _, err := d.Create("/w/x", false); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("Heal brought back a device a torn write took: %v", err)
	}
	if got, _ := contents(t, d, "/w/seg"); len(got) < 3 || got[:2] != "ab" {
		t.Errorf("reads of the torn device see %q, want what was written", got)
	}
	if err := d.Crash().MkdirAll("/v"); err != nil {
		t.Errorf("the disk a power loss leaves is still gone: %v", err)
	}
}
