package ppc

// Power-loss tests: the durable System runs on a simulated disk
// (internal/disk/simdisk), and a restart reads what simdisk.Crash leaves —
// every file cut to its last fsync, every directory entry as of its
// directory's last fsync. A copy of the directory, which the crash tests
// above restart from, keeps every byte written and so never shows an
// append past the last fsync or a rename that was never made durable.

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/disk"
	"repro/internal/disk/simdisk"
	"repro/internal/faults"
	"repro/internal/wal"
)

// onSimDisk returns a simulated disk and the option that opens a System on
// it, through an injector whose classes the test enables.
func onSimDisk(inj *faults.Injector) (*simdisk.Disk, func(*Options)) {
	d := simdisk.New(inj)
	inj.SetDisk(d)
	return d, func(o *Options) { o.Faults = inj }
}

// restartOn is the option that reopens a durable directory from the disk
// fsys, with no fault firing.
func restartOn(fsys disk.FS, mut func(*Options)) func(*Options) {
	return func(o *Options) {
		if mut != nil {
			mut(o)
		}
		o.Faults = faults.New(1).SetDisk(fsys)
	}
}

// TestDurablePowerLossKeepsCommittedRecords: under SyncAlways every apply
// batch is fsynced before the next, so a power loss right after a flush
// loses nothing. The restart reads back every record the log holds, reports
// no damage and restores the acknowledged learner state exactly.
func TestDurablePowerLossKeepsCommittedRecords(t *testing.T) {
	dir := t.TempDir()
	d, on := onSimDisk(faults.New(1))
	sys := openDurable(t, dir, on)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 150, 3)
	acked := triple(t, sys) // flushed: every batch committed
	written := mustScanOn(t, d, dir)
	if len(written.Records) == 0 {
		t.Fatal("the workload logged nothing; the test is vacuous")
	}

	crash := d.Crash()
	if got := mustScanOn(t, crash, dir); got.Corrupt || got.TornBytes != 0 || !reflect.DeepEqual(got.Records, written.Records) {
		t.Fatalf("the power loss kept %d of %d committed records (torn %d, corrupt %v)",
			len(got.Records), len(written.Records), got.TornBytes, got.Corrupt)
	}
	restarted := openDurable(t, dir, restartOn(crash, nil))
	defer restarted.Close() //nolint:errcheck
	if rep := restarted.LoadStateReport(); rep.Corrupt {
		t.Fatalf("the restart after a power loss reported damage: %s", rep.Reason)
	}
	if got := triple(t, restarted); got != acked {
		t.Errorf("restored %+v after the power loss, want the acknowledged %+v", got, acked)
	}
}

// TestDurablePowerLossKeepsAPrefix: under SyncInterval a power loss may
// take the records appended since the last fsync, but never more, and never
// a record in the middle: the log rotates, and a later segment exists only
// behind a durable predecessor. What survives is a prefix of what was
// appended, bit for bit, and the restart reports no damage.
func TestDurablePowerLossKeepsAPrefix(t *testing.T) {
	dir := t.TempDir()
	d, on := onSimDisk(faults.New(1))
	small := func(o *Options) {
		on(o)
		o.Durability.Sync = wal.SyncInterval
		o.walSegmentBytes = 1 << 10
	}
	sys := openDurable(t, dir, small)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 150, 3)
	triple(t, sys) // flushed: every batch appended
	written := mustScanOn(t, d, dir)
	if written.Segments < 3 {
		t.Fatalf("the workload wrote %d segments; the test needs rotations", written.Segments)
	}

	crash := d.Crash()
	kept := mustScanOn(t, crash, dir)
	if kept.Corrupt {
		t.Fatalf("the power loss left damage: %s", kept.Reason)
	}
	if len(kept.Records) > len(written.Records) || !reflect.DeepEqual(kept.Records, written.Records[:len(kept.Records)]) {
		t.Fatalf("the power loss kept %d records that are not a prefix of the %d appended", len(kept.Records), len(written.Records))
	}
	t.Logf("the power loss kept %d of %d records", len(kept.Records), len(written.Records))
	restarted := openDurable(t, dir, restartOn(crash, small))
	defer restarted.Close() //nolint:errcheck
	if rep := restarted.LoadStateReport(); rep.Corrupt {
		t.Fatalf("the restart after a power loss reported damage: %s", rep.Reason)
	}
	if _, _, last := logTail(kept, "Q1"); triple(t, restarted).appliedSeq != last {
		t.Errorf("restored watermark %d, the kept log ends at %d", triple(t, restarted).appliedSeq, last)
	}
}

// TestDurableFailedCheckpointCompactsNothing: a checkpoint whose rename
// fails, and one whose directory fsync fails, each return an error and
// delete no segment — until the directory fsync succeeds, a power loss can
// revert the rename, and the old checkpoint needs every segment. A power
// loss after both, and after rotations that made the log directory's
// entries durable, restores every committed record.
func TestDurableFailedCheckpointCompactsNothing(t *testing.T) {
	dir := t.TempDir()
	d, on := onSimDisk(faults.New(1))
	small := func(o *Options) {
		on(o)
		o.walSegmentBytes = 1 << 10
	}
	sys := openDurable(t, dir, small)
	defer sys.Close() //nolint:errcheck
	for i, op := range []string{"Rename", "SyncDir"} {
		runDurableWorkload(t, sys, 60, int64(3+i))
		triple(t, sys) // flushed: every batch committed
		segs := mustScanOn(t, d, dir).Segments
		d.Fail(op)
		var serr *SnapshotError
		if err := sys.Checkpoint(); !errors.As(err, &serr) {
			t.Fatalf("a checkpoint whose %s fails returned %v, want a *SnapshotError", op, err)
		}
		d.Heal()
		if got := mustScanOn(t, d, dir).Segments; got != segs {
			t.Fatalf("a checkpoint whose %s failed left %d of %d segments", op, got, segs)
		}
	}
	// Rotations fsync the log directory, which would make any unlink a
	// failed checkpoint's compaction made durable.
	runDurableWorkload(t, sys, 60, 5)
	acked := triple(t, sys)

	restarted := openDurable(t, dir, restartOn(d.Crash(), small))
	defer restarted.Close() //nolint:errcheck
	if rep := restarted.LoadStateReport(); rep.Corrupt {
		t.Fatalf("the restart after a power loss reported damage: %s", rep.Reason)
	}
	if got := triple(t, restarted); got != acked {
		t.Errorf("restored %+v after failed checkpoints and a power loss, want the acknowledged %+v", got, acked)
	}
	// The guard is not vacuous: a checkpoint that succeeds compacts.
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if sys.WALMetrics().CompactedSegments == 0 {
		t.Fatal("a successful checkpoint compacted nothing; the test is vacuous")
	}
}
