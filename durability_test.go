package ppc

// Crash-recovery suite for the durability layer. The contract under test:
//
//   - no silent loss: every feedback point acknowledged before the crash
//     image was taken is in the recovered synopsis (WAL-synced records are
//     the acknowledgement boundary under SyncAlways);
//   - no double-apply: replay is idempotent — recovering the same directory
//     twice, or recovering a directory that a checkpoint already covers,
//     changes nothing;
//   - torn tails are expected damage: truncated cleanly, reported in the
//     LoadReport, never escalated to corruption;
//   - corruption degrades, never fails: a damaged checkpoint or mid-log WAL
//     damage yields a cold-but-serving System with the damage reported.
//
// Crash images are taken by copying the durability directory while the
// System is still running — exactly what a crash leaves behind, including
// a possibly half-written trailing record.

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/disk/simdisk"
	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// durableOptions are the suite's options over dir: the WAL in SyncAlways
// (every apply batch is fsynced before the next) and the background
// checkpointer off, so tests control exactly when checkpoints happen.
func durableOptions(dir string, mut func(*Options)) Options {
	online := onlineForTest()
	// A high audit rate keeps validated feedback flowing after the learner
	// warms up, so every phase of every test appends WAL records.
	online.InvocationProb = 0.3
	opts := Options{
		TPCH:   tpch.Config{Scale: 2000, Seed: 5},
		Online: online,
		Durability: Durability{
			Dir:                dir,
			Sync:               wal.SyncAlways,
			CheckpointInterval: -1,
		},
	}
	if mut != nil {
		mut(&opts)
	}
	return opts
}

// openDurable opens a System over dir with durableOptions. Q1 is registered
// unless the checkpoint already restored it.
func openDurable(t *testing.T, dir string, mut func(*Options)) *System {
	t.Helper()
	sys, err := Open(durableOptions(dir, mut))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Template("Q1"); err != nil {
		if err := sys.Register("Q1", mustSQL(t, "Q1")); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// runDurableWorkload issues n warm-neighborhood runs against Q1 so the
// learner validates points and the applier logs them.
func runDurableWorkload(t *testing.T, sys *System, n int, seed int64) {
	t.Helper()
	runWarm(t, sys, "Q1", n, seed)
}

// runWarm issues n warm-neighborhood runs against a registered template.
func runWarm(t *testing.T, sys *System, name string, n int, seed int64) {
	t.Helper()
	tmpl, err := sys.Template(name)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	point := make([]float64, tmpl.Degree())
	for i := 0; i < n; i++ {
		for j := range point {
			point[j] = 0.25 + rng.Float64()*0.1
		}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(name, inst.Values); err != nil {
			t.Fatal(err)
		}
	}
}

// crashImage copies the durability directory while sys keeps running — the
// on-disk state an abrupt process death would leave.
func crashImage(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// lastSegment returns the path of the newest WAL segment under dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs := walSegments(t, dir)
	return segs[len(segs)-1]
}

// walSegments returns the paths of the WAL segments under dir, oldest
// first.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			segs = append(segs, filepath.Join(dir, "wal", e.Name()))
		}
	}
	if len(segs) == 0 {
		t.Fatal("no WAL segments")
	}
	sort.Strings(segs)
	return segs
}

// mustScan runs the read-only WAL scanner — the independent ground truth
// the recovered System is audited against.
func mustScan(t *testing.T, dir string) *wal.Recovery {
	t.Helper()
	return mustScanOn(t, disk.OS{}, dir)
}

// mustScanOn is mustScan on the disk fsys.
func mustScanOn(t *testing.T, fsys disk.FS, dir string) *wal.Recovery {
	t.Helper()
	recov, err := wal.Scan(fsys, filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	return recov
}

// logTail splits a template's records in a scan by kind: the count of
// feedback records (the synopsis's points), the count of correction
// records, and the sequence of the newest record of either kind — where
// the learner's one watermark stands once it reflects them all.
func logTail(scan *wal.Recovery, template string) (feedback, corrections int, lastSeq uint64) {
	for _, r := range scan.Records {
		if r.Template != template {
			continue
		}
		switch r.Kind {
		case wal.RecordFeedback:
			feedback++
		case wal.RecordCorrection:
			corrections++
		}
		lastSeq = max(lastSeq, r.Seq)
	}
	return feedback, corrections, lastSeq
}

// statsTriple is the provenance fingerprint the suite compares across
// crash/recovery boundaries.
type statsTriple struct {
	validated, selfLabeled int
	appliedSeq             uint64
}

func triple(t *testing.T, sys *System) statsTriple {
	t.Helper()
	st, err := sys.TemplateMetrics("Q1") // flushes the applier first
	if err != nil {
		t.Fatal(err)
	}
	return statsTriple{st.Learner.Validated, st.Learner.SelfLabeled, st.Learner.AppliedSeq}
}

// TestDurableCloseReopenRestoresState is the clean-shutdown half of the
// contract: Close takes a final checkpoint, so a reopen restores the exact
// learner state and replays nothing.
func TestDurableCloseReopenRestoresState(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil)
	runDurableWorkload(t, sys, 120, 3)
	before := triple(t, sys)
	if before.validated == 0 {
		t.Fatal("workload validated nothing; test is vacuous")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2 := openDurable(t, dir, nil)
	defer sys2.Close() //nolint:errcheck
	rep := sys2.LoadStateReport()
	if rep == nil || !rep.WALEnabled {
		t.Fatalf("no WAL-enabled load report: %+v", rep)
	}
	if rep.Corrupt {
		t.Fatalf("clean shutdown reported corrupt: %+v", rep)
	}
	if rep.WALReplayed != 0 {
		t.Errorf("clean shutdown replayed %d records; final checkpoint should cover all", rep.WALReplayed)
	}
	if after := triple(t, sys2); after != before {
		t.Errorf("restored state %+v, want %+v", after, before)
	}
	// The reopened system keeps serving and logging.
	runDurableWorkload(t, sys2, 20, 4)
	if after := triple(t, sys2); after.appliedSeq <= before.appliedSeq {
		t.Errorf("sequence did not advance after reopen: %+v vs %+v", after, before)
	}
}

// recoversAll takes a crash image of a durable System that just acknowledged
// state over what Open recovered, restarts from it, and wants Q1's learner
// back whole: every record logged since Open replays — none skipped as
// already applied, which a record numbered at or below the restored
// watermark would be.
func recoversAll(t *testing.T, sys *System, dir string) {
	t.Helper()
	acked := triple(t, sys) // flushes the applier
	scan := mustScan(t, dir)
	restarted := openDurable(t, crashImage(t, dir), nil)
	defer restarted.Close() //nolint:errcheck
	rep := restarted.LoadStateReport()
	if got := triple(t, restarted); got != acked || rep.WALSkipped != 0 {
		t.Errorf("recovered %+v, replayed %d and skipped %d of %d records; want %+v and none skipped",
			got, rep.WALReplayed, rep.WALSkipped, len(scan.Records), acked)
	}
}

// TestDurableQuietRestartKeepsNumbering: a Close checkpoints and compacts
// the log to its live segment, which a restart that closes with no runs
// leaves empty. The log that opens that directory next must number past
// what its checkpoint covers — a segment's name is the lowest seq it may
// hold — or the records it logs land at or below the restored watermark
// and the next recovery skips them as already applied. Corrections off is
// the arm whose last record is always a feedback point, the one compaction
// reached before the watermarks were one.
func TestDurableQuietRestartKeepsNumbering(t *testing.T) {
	for _, arm := range []struct {
		name string
		mut  func(*Options)
	}{
		{"corrections off", func(o *Options) { o.disableAdaptiveStats = true }},
		{"corrections on", nil},
	} {
		t.Run(arm.name, func(t *testing.T) {
			dir := t.TempDir()
			sys := openDurable(t, dir, arm.mut)
			runDurableWorkload(t, sys, 300, 3)
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			quiet := openDurable(t, dir, arm.mut)
			if err := quiet.Close(); err != nil {
				t.Fatal(err)
			}
			if recs := mustScan(t, dir).Records; len(recs) != 0 {
				t.Fatalf("%d records survive two closes; the quiet directory is not the one under test", len(recs))
			}

			sys3 := openDurable(t, dir, arm.mut)
			defer sys3.Close() //nolint:errcheck
			restored := triple(t, sys3)
			if restored.appliedSeq == 0 || sys3.WALLastSeq() < restored.appliedSeq {
				t.Errorf("the log resumes at seq %d below the restored watermark %d", sys3.WALLastSeq(), restored.appliedSeq)
			}
			if rep := sys3.LoadStateReport(); rep.Corrupt {
				t.Fatalf("a quiet restart reported damage: %s", rep.Reason)
			}
			runDurableWorkload(t, sys3, 100, 4)
			if triple(t, sys3).validated <= restored.validated {
				t.Fatal("the runs after the quiet restart validated nothing; test is vacuous")
			}
			recoversAll(t, sys3, dir)
		})
	}
}

// TestDurableLostWALStartsNewLineage: a checkpoint beside a log that lost
// the records it covers (here wal/ deleted outright) restores learners
// whose watermarks are past the log's end. That history lost records a
// replica may hold, so recovery reports damage and starts a new lineage,
// and the log numbers past every restored watermark so the records it logs
// next replay after another crash.
func TestDurableLostWALStartsNewLineage(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil)
	runDurableWorkload(t, sys, 300, 3)
	epoch, err := sys.ReplicationEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}

	sys2 := openDurable(t, dir, nil)
	defer sys2.Close() //nolint:errcheck
	rep := sys2.LoadStateReport()
	restored := triple(t, sys2)
	if rep.Templates != 1 || restored.appliedSeq == 0 {
		t.Fatalf("the checkpoint restored %d templates to watermark %d; test is vacuous", rep.Templates, restored.appliedSeq)
	}
	if !rep.Corrupt || !strings.Contains(rep.Reason, "watermark") {
		t.Errorf("a log that lost what the checkpoint covers is not damage: %+v", rep)
	}
	if got, _ := sys2.ReplicationEpoch(); got == epoch {
		t.Errorf("restarted under the same lineage %x", got)
	}
	if sys2.WALLastSeq() < restored.appliedSeq {
		t.Errorf("the log resumes at seq %d below the restored watermark %d", sys2.WALLastSeq(), restored.appliedSeq)
	}
	runDurableWorkload(t, sys2, 100, 4)
	recoversAll(t, sys2, dir)

	// The numbering is durable: a quiet restart of this directory resumes
	// past the watermark without reporting the loss again.
	image := crashImage(t, dir)
	again := openDurable(t, image, nil)
	defer again.Close() //nolint:errcheck
	if rep := again.LoadStateReport(); rep.Corrupt {
		t.Errorf("the restart after the loss reported damage again: %s", rep.Reason)
	}
}

// TestDurableSystemRefusesLoadState: a durable System restores only its own
// checkpoint, at Open. LoadState into one — even one whose registry is
// still empty after a first boot — is a *SnapshotError: the state would
// enter no WAL record, so replicas already attached would never receive
// it, and its watermarks would name another log's records. The refusal
// leaves the System and its recovery report as they were.
func TestDurableSystemRefusesLoadState(t *testing.T) {
	var saved bytes.Buffer
	mem, err := Open(durableOptions("", func(o *Options) { o.Durability = Durability{} }))
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close() //nolint:errcheck
	if err := mem.Register("Q1", mustSQL(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	runWarm(t, mem, "Q1", 60, 3)
	if err := mem.SaveState(&saved); err != nil {
		t.Fatal(err)
	}

	sys, err := Open(durableOptions(t.TempDir(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close() //nolint:errcheck
	before := sys.LoadStateReport()
	var serr *SnapshotError
	if err := sys.LoadState(&saved); !errors.As(err, &serr) {
		t.Fatalf("LoadState into a durable System: %v, want a *SnapshotError", err)
	}
	if sys.LoadStateReport() != before || len(sys.TemplateNames()) != 0 {
		t.Errorf("the refused LoadState changed the System: report %+v, templates %v", sys.LoadStateReport(), sys.TemplateNames())
	}
}

// TestDurableFailedCheckpointKeepsThePrevious: a checkpoint that cannot
// create its temp file fails with a *SnapshotError, counts one checkpoint
// error and leaves the previous checkpoint as it was. Once the obstacle is
// gone the next checkpoint lands, and a restart from it recovers the
// learner state byte for byte.
func TestDurableFailedCheckpointKeepsThePrevious(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 60, 3)
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointName)
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	runDurableWorkload(t, sys, 40, 4)
	if triple(t, sys).appliedSeq == 0 {
		t.Fatal("workload logged nothing; test is vacuous")
	}

	// A directory where the temp file goes makes os.Create fail.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	var serr *SnapshotError
	if err := sys.Checkpoint(); !errors.As(err, &serr) {
		t.Fatalf("checkpoint over an occupied temp path: %v, want a *SnapshotError", err)
	}
	if got := sys.WALMetrics().CheckpointErrors; got != 1 {
		t.Errorf("CheckpointErrors = %d after one failed checkpoint, want 1", got)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, prev) {
		t.Fatalf("the failed checkpoint disturbed the previous one (%d of %d bytes, %v)", len(now), len(prev), err)
	}

	if err := os.Remove(path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the obstacle went: %v", err)
	}
	st, err := sys.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	st.flush()
	want := st.online.EncodeState(nil)
	restarted := openDurable(t, crashImage(t, dir), nil)
	defer restarted.Close() //nolint:errcheck
	rst, err := restarted.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if got := rst.online.EncodeState(nil); !bytes.Equal(got, want) {
		t.Errorf("restart recovered %d bytes of learner state, differing from the %d checkpointed", len(got), len(want))
	}
}

// TestDurableBackgroundCheckpointer: with a CheckpointInterval set,
// checkpoints land with no Checkpoint call — wal.checkpoints moves — and the
// file the background checkpointer wrote restores the learner warm, byte
// for byte.
func TestDurableBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, func(o *Options) { o.Durability.CheckpointInterval = 5 * time.Millisecond })
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 60, 3)
	if triple(t, sys).validated == 0 {
		t.Fatal("workload validated nothing; test is vacuous")
	}
	st, err := sys.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	st.flush()
	want := st.online.EncodeState(nil)

	// The second checkpoint to finish from here began after the flush.
	from := sys.WALMetrics().Checkpoints
	for deadline := time.Now().Add(10 * time.Second); sys.WALMetrics().Checkpoints < from+2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("wal.checkpoints moved from %d to %d in 10 s at a 5 ms interval", from, sys.WALMetrics().Checkpoints)
		}
	}
	f, err := os.Open(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	opts := durableOptions("", nil)
	opts.Durability = Durability{}
	fresh, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close() //nolint:errcheck
	if err := fresh.LoadState(f); err != nil {
		t.Fatal(err)
	}
	if rep := fresh.LoadStateReport(); rep == nil || rep.Corrupt {
		t.Fatalf("the background checkpoint restored as %+v", rep)
	}
	rst, err := fresh.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if got := rst.online.EncodeState(nil); !bytes.Equal(got, want) {
		t.Errorf("the background checkpoint restored %d bytes of learner state, differing from the %d held", len(got), len(want))
	}
}

// TestDurableSyncsEqualApplyBatches: the learner is its template's one
// writer, so under SyncAlways every apply batch — runs' labels, their
// correction observations, or both, from the applier or inline on a full
// mailbox — is exactly one fsync, and nothing else the workload does
// syncs. A run sends its learner one message, so with no applier
// (FeedbackQueue -1) a run is at most one apply batch.
func TestDurableSyncsEqualApplyBatches(t *testing.T) {
	const runs = 400
	for _, tc := range []struct {
		name  string
		queue int
	}{{"mailbox", 0}, {"inline", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			sys := openDurable(t, t.TempDir(), func(o *Options) { o.FeedbackQueue = tc.queue })
			defer sys.Close() //nolint:errcheck
			runDurableWorkload(t, sys, runs, 3)
			m, err := sys.TemplateMetrics("Q1") // flushes the applier first
			if err != nil {
				t.Fatal(err)
			}
			w := sys.WALMetrics()
			t.Logf("%d runs: %d apply batches, %d feedback deferred, %d WAL appends, %d syncs",
				runs, m.Counters.ApplyBatches, m.Counters.FeedbackDeferred, w.Appends, w.Syncs)
			if m.Counters.ApplyBatches == 0 || w.Appends == 0 {
				t.Fatal("the workload applied or logged nothing; test is vacuous")
			}
			if w.Syncs != m.Counters.ApplyBatches {
				t.Errorf("%d WAL syncs for %d apply batches, want one each", w.Syncs, m.Counters.ApplyBatches)
			}
			if tc.queue < 0 && m.Counters.ApplyBatches > runs {
				t.Errorf("%d apply batches for %d inline runs, want at most one per run", m.Counters.ApplyBatches, runs)
			}
		})
	}
}

// TestDurablePendingRecordsSurviveCheckpoint: WAL records recovered for a
// template nothing has registered yet are in no learner a checkpoint
// encodes, so they pin compaction until Register replays them. A crash
// image with Q1 and Q2 logged over small segments reopens with Q1 alone;
// Q1 serves on and Close checkpoints and compacts; Q2, registered after the
// next reopen, must come back with every point it had validated.
func TestDurablePendingRecordsSurviveCheckpoint(t *testing.T) {
	small := func(o *Options) { o.walSegmentBytes = 4 << 10 }
	sys := openDurable(t, t.TempDir(), small)
	defer sys.Close() //nolint:errcheck
	if err := sys.Register("Q2", mustSQL(t, "Q2")); err != nil {
		t.Fatal(err)
	}
	runWarm(t, sys, "Q1", 150, 3)
	runWarm(t, sys, "Q2", 150, 4)
	// Both appliers are flushed before the image is taken: Q1's can still
	// hold every one of its runs' messages after Q2's 150 runs, and then
	// the image has nothing of Q1's to replay.
	if _, err := sys.TemplateMetrics("Q1"); err != nil {
		t.Fatal(err)
	}
	q2, err := sys.TemplateMetrics("Q2") // flushes the applier first
	if err != nil {
		t.Fatal(err)
	}
	if q2.Learner.Validated == 0 {
		t.Fatal("Q2 validated nothing; test is vacuous")
	}
	dir := crashImage(t, sys.opts.Durability.Dir)

	sys2 := openDurable(t, dir, small)
	if rep := sys2.LoadStateReport(); rep.WALPending == 0 || rep.WALReplayed == 0 {
		t.Fatalf("reopen with Q1 alone: %d records pending, %d replayed; want both", rep.WALPending, rep.WALReplayed)
	}
	runDurableWorkload(t, sys2, 150, 5)
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}

	sys3 := openDurable(t, dir, small)
	defer sys3.Close() //nolint:errcheck
	if err := sys3.Register("Q2", mustSQL(t, "Q2")); err != nil {
		t.Fatal(err)
	}
	got, err := sys3.TemplateMetrics("Q2")
	if err != nil {
		t.Fatal(err)
	}
	if got.Learner.Validated != q2.Learner.Validated {
		t.Errorf("Q2 restored %d of its %d validated points", got.Learner.Validated, q2.Learner.Validated)
	}
}

// TestCrashRecoveryProperty is the tentpole property: kill a System that
// has a checkpoint plus a WAL tail plus a torn trailing write, and the
// recovered System must hold exactly the acknowledged feedback — audited
// against an independent scan of the crash image — with the tear reported.
func TestCrashRecoveryProperty(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 80, 3)
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runDurableWorkload(t, sys, 80, 4)
	acked := triple(t, sys) // flushed: everything below is on disk (SyncAlways)

	crash := crashImage(t, dir)
	// A torn trailing write: garbage after the last good record.
	f, err := os.OpenFile(lastSegment(t, crash), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x7f, 1, 2, 3, 4, 5, 6, 7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	scan := mustScan(t, crash)

	sys2 := openDurable(t, crash, nil)
	rep := sys2.LoadStateReport()
	if rep == nil || !rep.WALEnabled {
		t.Fatalf("no WAL-enabled load report: %+v", rep)
	}
	if rep.Corrupt {
		t.Fatalf("torn tail escalated to corruption: %+v", rep)
	}
	if rep.WALTornBytes == 0 {
		t.Errorf("torn tail not reported: %+v", rep)
	}
	// No silent loss, no double-apply: the recovered learner equals the
	// acknowledged state exactly.
	if got := triple(t, sys2); got != acked {
		t.Errorf("recovered %+v, want acknowledged %+v", got, acked)
	}
	// Every scanned record is accounted for: replayed past the checkpoint
	// watermark, skipped below it, or dropped stale — nothing vanishes.
	if total := rep.WALReplayed + rep.WALSkipped + rep.WALStale; total != len(scan.Records) {
		t.Errorf("replay accounting %d (replayed %d + skipped %d + stale %d), scan holds %d records",
			total, rep.WALReplayed, rep.WALSkipped, rep.WALStale, len(scan.Records))
	}
	if rep.WALReplayed == 0 {
		t.Error("nothing replayed; the post-checkpoint tail is missing")
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}

	// Idempotence: recover the recovered directory. The close above took a
	// checkpoint, so the second recovery must replay nothing and change
	// nothing.
	sys3 := openDurable(t, crash, nil)
	defer sys3.Close() //nolint:errcheck
	if rep3 := sys3.LoadStateReport(); rep3.WALReplayed != 0 {
		t.Errorf("second recovery replayed %d records; replay is not idempotent", rep3.WALReplayed)
	}
	if got := triple(t, sys3); got != acked {
		t.Errorf("double recovery drifted: %+v, want %+v", got, acked)
	}
}

// TestCrashRecoveryUnderAppendFaults runs the same property with injected
// short writes: each failed append loses exactly one record from the log
// (counted, never silent), the in-memory learner keeps serving, and the
// recovered System matches the independent scan exactly.
func TestCrashRecoveryUnderAppendFaults(t *testing.T) {
	inj := faults.New(9)
	d := simdisk.New(inj)
	inj.SetDisk(d)
	dir := t.TempDir()
	sys := openDurable(t, dir, func(o *Options) { o.Faults = inj })
	defer sys.Close() //nolint:errcheck
	inj.Enable(faults.WALShortWrite, 0.2)
	runDurableWorkload(t, sys, 150, 3)
	// The applier logs the runs' feedback asynchronously: flush it while the
	// faults are armed, or its appends may all come after DisableAll.
	triple(t, sys)
	inj.DisableAll()
	acked := triple(t, sys)
	m := sys.WALMetrics()
	if m == nil || m.AppendErrors == 0 || inj.Fired(faults.WALShortWrite) == 0 {
		t.Fatalf("short writes never fired: %+v", m)
	}

	crash := d.Kill()
	scan := mustScanOn(t, crash, dir)
	if scan.TornBytes != 0 {
		t.Fatalf("short-write repair left %d torn bytes", scan.TornBytes)
	}

	sys2 := openDurable(t, dir, func(o *Options) { o.Faults = faults.New(1).SetDisk(crash) })
	defer sys2.Close() //nolint:errcheck
	rep := sys2.LoadStateReport()
	got := triple(t, sys2)
	fbCount, _, last := logTail(scan, "Q1")
	// The recovered state holds exactly the scanned records (the one
	// checkpoint, first boot's, predates Q1, so everything — feedback and
	// corrections — replays at Register), and the synopsis holds exactly
	// the feedback subset.
	if rep.WALReplayed != len(scan.Records) {
		t.Errorf("replayed %d of %d scanned records", rep.WALReplayed, len(scan.Records))
	}
	if got.validated+got.selfLabeled != fbCount {
		t.Errorf("synopsis holds %d points, scan holds %d feedback records", got.validated+got.selfLabeled, fbCount)
	}
	if got.appliedSeq != last {
		t.Errorf("recovered watermark %d, the template's last record is %d", got.appliedSeq, last)
	}
	// Degraded durability is bounded by the counted append errors: memory
	// holds every acknowledged point, and the feedback records missing from
	// disk are a subset of the counted failures (the rest hit correction
	// records, which share the same fault-injected log).
	lost := (acked.validated + acked.selfLabeled) - (got.validated + got.selfLabeled)
	if lost <= 0 || lost > int(m.AppendErrors) {
		t.Errorf("lost %d feedback records to short writes, but %d append errors were counted", lost, m.AppendErrors)
	}
}

// corrState snapshots Q1's correction state — epoch, the learner's WAL
// watermark and every predicate site's absolute EWMA state — after flushing
// the applier. This is the fingerprint correction crash recovery must
// restore exactly.
func corrState(t *testing.T, sys *System) (epoch, seq uint64, sites []stats.SiteState) {
	t.Helper()
	st, err := sys.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	st.flush()
	if st.tmpl.Query.Corr == nil {
		t.Fatal("adaptive statistics layer is off; correction recovery is vacuous")
	}
	epoch, sites = st.tmpl.Query.Corr.State()
	return epoch, st.online.AppliedSeq(), sites
}

// TestCorrectionCrashRecovery is the adaptive-statistics half of the
// crash contract: kill a System with correction factors accumulated both
// below a checkpoint (restored from the snapshot's corrections section)
// and above it (replayed from kind-2 WAL records), and the recovered
// factors must be identical — and stay identical through a second
// recovery.
func TestCorrectionCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 80, 3)
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint corrections live only in the WAL tail.
	runDurableWorkload(t, sys, 80, 4)
	wantEpoch, wantSeq, wantSites := corrState(t, sys)
	if _, n, _ := logTail(mustScan(t, dir), "Q1"); n == 0 {
		t.Fatal("no correction records logged; test is vacuous")
	}
	warmed := 0
	for _, s := range wantSites {
		if s.N > 0 {
			warmed++
		}
	}
	if warmed == 0 {
		t.Fatal("no site accumulated observations; test is vacuous")
	}

	crash := crashImage(t, dir)
	sys2 := openDurable(t, crash, nil)
	gotEpoch, gotSeq, gotSites := corrState(t, sys2)
	if gotEpoch != wantEpoch || gotSeq != wantSeq {
		t.Errorf("recovered correction (epoch %d, seq %d), want (%d, %d)", gotEpoch, gotSeq, wantEpoch, wantSeq)
	}
	for i := range wantSites {
		if gotSites[i] != wantSites[i] {
			t.Errorf("site %d recovered %+v, want %+v", i+1, gotSites[i], wantSites[i])
		}
	}
	if err := sys2.Close(); err != nil {
		t.Fatal(err)
	}

	// Idempotence: the close above checkpointed the recovered state, so a
	// second recovery replays nothing new and the factors do not drift.
	sys3 := openDurable(t, crash, nil)
	defer sys3.Close() //nolint:errcheck
	againEpoch, againSeq, againSites := corrState(t, sys3)
	if againEpoch != wantEpoch || againSeq != wantSeq {
		t.Errorf("double recovery drifted to (epoch %d, seq %d), want (%d, %d)", againEpoch, againSeq, wantEpoch, wantSeq)
	}
	for i := range wantSites {
		if againSites[i] != wantSites[i] {
			t.Errorf("site %d drifted to %+v after double recovery, want %+v", i+1, againSites[i], wantSites[i])
		}
	}
}

// corruptFile flips bytes in the middle of a file.
func corruptFile(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xde, 0xad, 0xbe, 0xef}, off); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDegradeCorruptCheckpointValidWAL: the checkpoint is damaged but the
// WAL tail is intact. The System must come up cold, report the corruption,
// and still recover every record the compacted log retained — replayed when
// the application re-registers its template.
func TestDegradeCorruptCheckpointValidWAL(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 60, 3)
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runDurableWorkload(t, sys, 60, 4)
	triple(t, sys) // flush

	crash := crashImage(t, dir)
	corruptFile(t, filepath.Join(crash, "checkpoint.ppc"), 32)
	scan := mustScan(t, crash)
	if len(scan.Records) == 0 {
		t.Fatal("no WAL records survive; test is vacuous")
	}

	sys2 := openDurable(t, crash, nil)
	defer sys2.Close() //nolint:errcheck
	rep := sys2.LoadStateReport()
	if !rep.Corrupt {
		t.Fatalf("corrupt checkpoint undetected: %+v", rep)
	}
	// Registration replays the held records into the cold learner.
	got := triple(t, sys2)
	if rep.WALReplayed != len(scan.Records) {
		t.Errorf("replayed %d of %d retained records", rep.WALReplayed, len(scan.Records))
	}
	if _, _, last := logTail(scan, "Q1"); got.appliedSeq != last {
		t.Errorf("recovered watermark %d, the template's last record is %d", got.appliedSeq, last)
	}
	if rep.WALPending != 0 {
		t.Errorf("%d records still pending after registration", rep.WALPending)
	}
	// Cold-but-serving: the degraded System still answers queries.
	runDurableWorkload(t, sys2, 5, 5)
}

// TestDegradeValidCheckpointCorruptWALTail: the checkpoint is fine and the
// WAL's damage is confined to the tail. Recovery restores the checkpoint,
// truncates the tear, replays what precedes it, and does NOT report
// corruption — a torn tail is the expected crash artifact.
func TestDegradeValidCheckpointCorruptWALTail(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 60, 3)
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runDurableWorkload(t, sys, 60, 4)
	triple(t, sys) // flush

	crash := crashImage(t, dir)
	// Scribble over the final record's frame: a tail tear mid-record.
	seg := lastSegment(t, crash)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	corruptFile(t, seg, info.Size()-10)
	scan := mustScan(t, crash)

	sys2 := openDurable(t, crash, nil)
	defer sys2.Close() //nolint:errcheck
	rep := sys2.LoadStateReport()
	if rep.Corrupt {
		t.Fatalf("tail damage escalated to corruption: %+v", rep)
	}
	if rep.WALTornBytes == 0 {
		t.Errorf("tail damage not reported: %+v", rep)
	}
	if rep.Templates == 0 {
		t.Errorf("checkpoint not restored: %+v", rep)
	}
	got := triple(t, sys2)
	if _, _, last := logTail(scan, "Q1"); got.appliedSeq != last {
		t.Errorf("recovered watermark %d, the template's last record is %d", got.appliedSeq, last)
	}
	if total := rep.WALReplayed + rep.WALSkipped + rep.WALStale; total != len(scan.Records) {
		t.Errorf("replay accounting %d, scan holds %d records", total, len(scan.Records))
	}
	runDurableWorkload(t, sys2, 5, 5)
}

// TestDegradeBothCorrupt: checkpoint damaged AND the WAL torn early. The
// System still opens, reports the corruption, recovers what the log kept
// before the tear, and serves.
func TestDegradeBothCorrupt(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 60, 3)
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runDurableWorkload(t, sys, 60, 4)
	triple(t, sys) // flush

	crash := crashImage(t, dir)
	corruptFile(t, filepath.Join(crash, "checkpoint.ppc"), 32)
	seg := lastSegment(t, crash)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear a third of the way in: everything after is lost, everything
	// before must survive.
	corruptFile(t, seg, info.Size()/3)
	scan := mustScan(t, crash)

	sys2 := openDurable(t, crash, nil)
	defer sys2.Close() //nolint:errcheck
	rep := sys2.LoadStateReport()
	if !rep.Corrupt {
		t.Fatalf("corrupt checkpoint undetected: %+v", rep)
	}
	if rep.WALTornBytes == 0 {
		t.Errorf("WAL tear not reported: %+v", rep)
	}
	got := triple(t, sys2)
	if _, _, last := logTail(scan, "Q1"); got.appliedSeq != last {
		t.Errorf("recovered watermark %d, the template's last record is %d", got.appliedSeq, last)
	}
	if rep.WALReplayed != len(scan.Records) {
		t.Errorf("replayed %d of %d surviving records", rep.WALReplayed, len(scan.Records))
	}
	runDurableWorkload(t, sys2, 5, 5)
}

// TestRestoredPlansServeCompiled: a plan restored from a snapshot — through
// SaveState/LoadState, or through a durable close and reopen — comes back
// compiled, exactly like a freshly optimized one. Every restored cache
// entry holds its executor program and rebind program, and a hit on a
// restored plan id is served without an optimizer invocation: a restart must
// not serve its cache slower than the process it replaced.
func TestRestoredPlansServeCompiled(t *testing.T) {
	for _, mode := range []string{"snapshot", "reopen"} {
		t.Run(mode, func(t *testing.T) {
			online := onlineForTest()
			online.InvocationProb = 1e-9 // no random audits: a warm point is a hit
			opts := Options{
				TPCH:          tpch.Config{Scale: 2000, Seed: 5},
				Online:        online,
				FeedbackQueue: -1,
			}
			if mode == "reopen" {
				opts.Durability = Durability{Dir: t.TempDir(), CheckpointInterval: -1}
			}
			warm, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := warm.Register("Q1", mustSQL(t, "Q1")); err != nil {
				t.Fatal(err)
			}
			runDurableWorkload(t, warm, 120, 3)
			tmpl, _ := warm.Template("Q1")
			hot, err := warm.Optimizer().InstanceAt(tmpl, []float64{0.3, 0.3})
			if err != nil {
				t.Fatal(err)
			}
			if res, err := warm.Run("Q1", hot.Values); err != nil || !res.CacheHit {
				t.Fatalf("warm system does not hit at the probe (%+v, %v); test is vacuous", res, err)
			}
			var snap bytes.Buffer
			if err := warm.SaveState(&snap); err != nil {
				t.Fatal(err)
			}
			if err := warm.Close(); err != nil {
				t.Fatal(err)
			}

			sys, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close() //nolint:errcheck
			if mode == "snapshot" {
				if err := sys.LoadState(&snap); err != nil {
					t.Fatal(err)
				}
			}
			if rep := sys.LoadStateReport(); rep == nil || rep.Corrupt || rep.Plans == 0 {
				t.Fatalf("nothing restored: %+v", rep)
			}
			restored := make(map[int]bool)
			for _, entry := range cachedPlans(sys) {
				restored[entry.id] = true
				if entry.prog == nil || entry.rebind == nil {
					t.Errorf("restored plan %d (%s) is not compiled", entry.id, entry.plan.Fingerprint)
				}
			}

			res, err := sys.Run("Q1", hot.Values)
			if err != nil {
				t.Fatal(err)
			}
			if !res.CacheHit || res.Invoked || res.OptimizeTime != 0 || !restored[res.PlanID] {
				t.Errorf("first run after restore: hit=%v invoked=%v optimize=%v plan %d restored=%v",
					res.CacheHit, res.Invoked, res.OptimizeTime, res.PlanID, restored[res.PlanID])
			}
		})
	}
}

// TestDurableMidLogDamageIsMovedAsideOnce: one damaged frame before the
// newest segment makes one recovery Corrupt, not every later one. A
// checkpoint does not compact the damaged segment away while an idle
// template (Q0 here) holds the compaction bound below it, so recovery
// itself cuts the segment at the bad frame, keeping the cut bytes aside.
// The next restart then finds a clean log: no damage reported, the lineage
// kept, and every record appended after the first recovery still there.
func TestDurableMidLogDamageIsMovedAsideOnce(t *testing.T) {
	dir := t.TempDir()
	small := func(o *Options) { o.walSegmentBytes = 4 << 10; o.FeedbackQueue = -1 }
	sys := openDurable(t, dir, small)
	if err := sys.Register("Q0", mustSQL(t, "Q0")); err != nil {
		t.Fatal(err)
	}
	runWarm(t, sys, "Q0", 5, 1)
	runDurableWorkload(t, sys, 300, 2)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walSegments(t, dir)
	if len(segs) < 3 {
		t.Fatalf("%d segments; the damage would not sit mid-log", len(segs))
	}
	info, err := os.Stat(segs[len(segs)-2])
	if err != nil {
		t.Fatal(err)
	}
	corruptFile(t, segs[len(segs)-2], info.Size()/2)
	damaged, err := os.ReadFile(segs[len(segs)-2])
	if err != nil {
		t.Fatal(err)
	}

	sys = openDurable(t, dir, small)
	rep := sys.LoadStateReport()
	if !rep.Corrupt || !strings.Contains(rep.Reason, filepath.Base(segs[len(segs)-2])) {
		t.Fatalf("the damaged restart reported %+v; want the damaged segment named", rep)
	}
	// The report names every file the damage went to: the file holding the
	// damaged segment's cut bytes, then the newest segment, moved aside
	// whole. What the segment kept and what was cut are its bytes.
	if len(rep.WALQuarantined) != 2 {
		t.Fatalf("the damaged restart quarantined %v; want the cut bytes and one segment", rep.WALQuarantined)
	}
	kept, err := os.ReadFile(segs[len(segs)-2])
	if err != nil {
		t.Fatal(err)
	}
	cut, err := os.ReadFile(filepath.Join(dir, "wal", rep.WALQuarantined[0]))
	if err != nil || !bytes.Equal(append(kept, cut...), damaged) || len(cut) == 0 {
		t.Fatalf("the report's first quarantine file %s does not hold the cut bytes (%v)", rep.WALQuarantined[0], err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal", rep.WALQuarantined[1])); err != nil {
		t.Fatalf("the report's quarantine file %s: %v", rep.WALQuarantined[1], err)
	}
	lineage, err := sys.ReplicationEpoch()
	if err != nil {
		t.Fatal(err)
	}
	from := sys.wal.LastSeq()
	runDurableWorkload(t, sys, 100, 3)
	to := sys.wal.LastSeq()
	if to == from {
		t.Fatal("no record logged after the damaged restart; the test is vacuous")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys = openDurable(t, dir, small)
	defer sys.Close() //nolint:errcheck
	if rep := sys.LoadStateReport(); rep.Corrupt {
		t.Fatalf("the restart after the repair is Corrupt again: %s (quarantined %v)", rep.Reason, rep.WALQuarantined)
	}
	if again, err := sys.ReplicationEpoch(); err != nil || again != lineage {
		t.Errorf("the restart after the repair minted lineage %d, want %d kept (%v)", again, lineage, err)
	}
	logged := make(map[uint64]bool)
	for _, r := range mustScan(t, dir).Records {
		logged[r.Seq] = true
	}
	for seq := from + 1; seq <= to; seq++ {
		if !logged[seq] {
			t.Fatalf("record %d, appended after the first recovery, is gone from the log", seq)
		}
	}
}

// TestDurableStateWrittenAsVersion3: testdata/checkpoint_v3 is a durable
// directory closed by this format's first build (its README has the
// recipe): the compatibility oracle for every later build that keeps the
// format. Each learner's saved state decodes and re-encodes to the bytes
// that build wrote. Read both ways it can arrive, it restores warm — every
// template and plan back, nothing damaged, a reopen that finds the WAL
// wholly covered — and a first run at a trained point is a cache hit.
func TestDurableStateWrittenAsVersion3(t *testing.T) {
	const fixture = "testdata/checkpoint_v3"
	f, err := os.Open(filepath.Join(fixture, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := netproto.ReadSnapshotFile(f)
	f.Close() //nolint:errcheck
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range snap.Templates {
		o, err := core.NewReplicaOnline(ts.State)
		if err != nil {
			t.Fatalf("%s: %v", ts.Name, err)
		}
		if again := o.EncodeState(nil); !bytes.Equal(again, ts.State) {
			t.Errorf("%s: the learner state re-encodes to %d bytes unlike the %d it was read from", ts.Name, len(again), len(ts.State))
		}
	}
	for _, mode := range []string{"snapshot", "reopen"} {
		t.Run(mode, func(t *testing.T) {
			sys := openFixture(t, fixture, mode, nil)
			rep := sys.LoadStateReport()
			if rep == nil || rep.Corrupt || rep.Templates != 4 || rep.Plans == 0 {
				t.Fatalf("restored %+v, want all four templates and their plans", rep)
			}
			if mode == "reopen" && (rep.WALReplayed != 0 || rep.WALSkipped == 0) {
				t.Errorf("reopen replayed %d records and skipped %d; the checkpoint covers the whole log", rep.WALReplayed, rep.WALSkipped)
			}
			for _, name := range []string{"Q0", "Q1", "Q2", "Q3"} {
				tmpl, err := sys.Template(name)
				if err != nil {
					t.Fatal(err)
				}
				point := make([]float64, tmpl.Degree())
				for i := range point {
					point[i] = 0.3
				}
				hot, err := sys.Optimizer().InstanceAt(tmpl, point)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run(name, hot.Values)
				if err != nil {
					t.Fatal(err)
				}
				if !res.CacheHit || res.Invoked || res.OptimizeTime != 0 {
					t.Errorf("%s: first run at a trained point: hit=%v invoked=%v optimize=%v",
						name, res.CacheHit, res.Invoked, res.OptimizeTime)
				}
			}
		})
	}
}

// TestDurableStateWrittenAsVersion2: testdata/checkpoint_v2_untuned is a
// durable directory written in the previous format (checkpoint version 2,
// WAL segment version 1; its README has the recipe). Read either way it
// can arrive — as a LoadState stream and in place by a durable reopen — it
// restores cold with the version named. On reopen its WAL segment is
// renamed aside, byte for byte, and none of its records is replayed or
// held for a later Register.
func TestDurableStateWrittenAsVersion2(t *testing.T) {
	const fixture = "testdata/checkpoint_v2_untuned"
	segs := walSegments(t, fixture)
	if len(segs) != 1 {
		t.Fatalf("fixture segments %v, want one", segs)
	}
	old, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"snapshot", "reopen"} {
		t.Run(mode, func(t *testing.T) {
			sys := openFixture(t, fixture, mode, nil)
			rep := sys.LoadStateReport()
			if rep == nil || !rep.Corrupt || !strings.Contains(rep.Reason, "unsupported snapshot version 2") ||
				rep.Templates != 0 || rep.Plans != 0 {
				t.Fatalf("a version-2 checkpoint restored %+v, want a cold restore naming the version", rep)
			}
			if mode != "reopen" {
				return
			}
			name := filepath.Base(segs[0])
			if rep.WALReplayed+rep.WALSkipped+rep.WALStale+rep.WALPending != 0 ||
				len(rep.WALQuarantined) != 1 || rep.WALQuarantined[0] != name+".corrupt" {
				t.Errorf("reopen: %d replayed, %d skipped, %d stale, %d pending, quarantined %v; want the version-1 segment aside and nothing read",
					rep.WALReplayed, rep.WALSkipped, rep.WALStale, rep.WALPending, rep.WALQuarantined)
			}
			kept, err := os.ReadFile(filepath.Join(sys.opts.Durability.Dir, "wal", rep.WALQuarantined[0]))
			if err != nil || !bytes.Equal(kept, old) {
				t.Errorf("the version-1 segment was not kept aside byte for byte: %v", err)
			}
			// The log numbers past the seqs the segment holds: its frames,
			// read past the header for numbering only.
			held, _ := wal.DecodeFrames(old[len("PPCWAL\x00")+2:])
			if len(held) == 0 || sys.WALLastSeq() < held[len(held)-1].Seq {
				t.Errorf("reopen numbers past seq %d; the version-1 segment holds %d records", sys.WALLastSeq(), len(held))
			}
		})
	}
}

// openFixture opens a System over a checked-in durable directory the way
// its README's recipe wrote it: "snapshot" loads the checkpoint as a
// LoadState stream into an in-memory System, "reopen" opens a durable System
// over a copy of the directory.
func openFixture(t *testing.T, fixture, mode string, mut func(*Options)) *System {
	t.Helper()
	online := onlineForTest()
	online.InvocationProb = 1e-9 // no random audits: a warm point is a hit
	opts := Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: online, FeedbackQueue: -1}
	if mut != nil {
		mut(&opts)
	}
	if mode == "reopen" {
		opts.Durability = Durability{Dir: crashImage(t, fixture), CheckpointInterval: -1}
	}
	sys, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() }) //nolint:errcheck
	if mode == "snapshot" {
		f, err := os.Open(filepath.Join(fixture, checkpointName))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close() //nolint:errcheck
		if err := sys.LoadState(f); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestDurableOpenDegradesInconsistentCheckpoint: a checkpoint whose
// checksum holds but whose content cannot be restored as written must not
// stop a durable Open. Each file below is CRC-valid. Open succeeds with a
// named reason: wholly cold when the decoder rejects the snapshot, and cold
// for the one template whose SQL no longer registers, or whose learner does
// not decode, otherwise. The WAL records the lost state covered replay into
// the cold learners, at Register for a template not yet registered.
func TestDurableOpenDegradesInconsistentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sqlOf := map[string]string{"Q1": mustSQL(t, "Q1"), "QX": mustSQL(t, "Q0")}
	sys := openDurable(t, dir, nil)
	if err := sys.Register("QX", sqlOf["QX"]); err != nil {
		t.Fatal(err)
	}
	runDurableWorkload(t, sys, 60, 3)
	tmpl, _ := sys.Template("QX")
	point := make([]float64, tmpl.Degree())
	for i := 0; i < 30; i++ {
		for j := range point {
			point[j] = 0.2 + 0.01*float64(i)
		}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run("QX", inst.Values); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	records := len(mustScan(t, dir).Records)

	for _, c := range []struct {
		name   string
		mutate func(s *netproto.Snapshot)
		reason string
		cold   []string // templates left cold while the rest restores
	}{
		{"sql the lexer rejects", func(s *netproto.Snapshot) { s.Templates[1].SQL = "SELECT \xff" },
			"template QX: sqlparse: invalid UTF-8", []string{"QX"}},
		{"a learner that does not decode", func(s *netproto.Snapshot) { s.Templates[0].State = s.Templates[0].State[:10] },
			"template Q1 synopsis", []string{"Q1"}},
		{"repeated template name", func(s *netproto.Snapshot) { s.Templates[1].Name = "Q1" }, "repeated template name", nil},
		{"empty template name", func(s *netproto.Snapshot) { s.Templates[1].Name = "" }, "repeated template name", nil},
		{"repeated fingerprint", func(s *netproto.Snapshot) { s.Fingerprints[1] = s.Fingerprints[0] }, "repeated plan fingerprint", nil},
		{"empty fingerprint", func(s *netproto.Snapshot) { s.Fingerprints[0] = "" }, "repeated plan fingerprint", nil},
		{"plan id out of range", func(s *netproto.Snapshot) { s.Plans[0].ID = len(s.Fingerprints) }, "out of range", nil},
		{"plan of an unknown template", func(s *netproto.Snapshot) { s.Plans[0].Template = "Q9" }, "unknown template", nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			snap, err := netproto.ReadSnapshotFile(bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			if len(snap.Templates) != 2 || snap.Templates[1].Name != "QX" || len(snap.Fingerprints) < 2 || len(snap.Plans) == 0 {
				t.Fatalf("the checkpoint holds %d templates, %d fingerprints, %d plans; the case is vacuous",
					len(snap.Templates), len(snap.Fingerprints), len(snap.Plans))
			}
			c.mutate(snap)
			bad, err := netproto.AppendSnapshotFile(nil, snap)
			if err != nil {
				t.Fatal(err)
			}
			crash := crashImage(t, dir)
			if err := os.WriteFile(filepath.Join(crash, checkpointName), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			sys, err := Open(durableOptions(crash, nil))
			if err != nil {
				t.Fatalf("durable Open over a checksummed but inconsistent checkpoint: %v", err)
			}
			defer sys.Close() //nolint:errcheck
			rep := sys.LoadStateReport()
			if !rep.Corrupt || !strings.Contains(rep.Reason, c.reason) || !reflect.DeepEqual(rep.ColdTemplates, c.cold) {
				t.Fatalf("report %+v, want a degrade naming %q with cold templates %v", rep, c.reason, c.cold)
			}
			want := 0 // a rejected snapshot restores nothing
			if c.cold != nil {
				want = 2 - len(c.cold)
			}
			if rep.Templates != want {
				t.Errorf("restored %d templates, want %d", rep.Templates, want)
			}
			unregistered := 0
			for name := range sqlOf {
				if _, err := sys.Template(name); err != nil {
					unregistered++
				}
			}
			if (rep.WALPending == 0) != (unregistered == 0) {
				t.Errorf("%d WAL records wait with %d templates unregistered", rep.WALPending, unregistered)
			}
			for name, sql := range sqlOf {
				if _, err := sys.Template(name); err != nil {
					if err := sys.Register(name, sql); err != nil {
						t.Fatal(err)
					}
				}
			}
			if rep.WALPending != 0 || rep.WALReplayed+rep.WALSkipped+rep.WALStale != records {
				t.Errorf("after Register: %d pending, replay accounts for %d of %d records",
					rep.WALPending, rep.WALReplayed+rep.WALSkipped+rep.WALStale, records)
			}
			runDurableWorkload(t, sys, 5, 5)
		})
	}
}

// TestDurableReshapedTemplateReplay: a durable leader crashes before any
// checkpoint covers Q1 and, restarted from its WAL, is handed Q1 again with
// a third parameter. Every feedback record the log holds for the old shape
// — a two-coordinate point — is stale, and the template serves cold but
// correct. The case once wedged a template: an insert that panicked under
// the learner lock left it held (ApplyBatch did not defer its unlock), so
// with FeedbackQueue -1 the first Run returned *InternalError and the
// second never returned, and with the default mailbox the panic was the
// applier goroutine's and killed the process. Both arms run 50 Runs and a
// Close on the reshaped template.
func TestDurableReshapedTemplateReplay(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 200, 3)
	if _, err := sys.TemplateMetrics("Q1"); err != nil { // flush the applier
		t.Fatal(err)
	}
	misfits := 0
	for _, r := range mustScan(t, dir).Records {
		if r.Kind == wal.RecordFeedback {
			misfits++
		}
	}
	if misfits == 0 {
		t.Fatal("the log holds no feedback record to misfit")
	}

	const reshaped = `SELECT s.s_suppkey, COUNT(*)
		FROM supplier s, lineitem l
		WHERE l.l_suppkey = s.s_suppkey AND s.s_date <= ? AND l.l_partkey <= ? AND l.l_shipdate <= ?
		GROUP BY s.s_suppkey`
	for _, arm := range []struct {
		name  string
		queue int
	}{{"synchronous feedback", -1}, {"applier goroutine", 0}} {
		t.Run(arm.name, func(t *testing.T) {
			rec, err := Open(durableOptions(crashImage(t, dir), func(o *Options) {
				o.FeedbackQueue = arm.queue
			}))
			if err != nil {
				t.Fatal(err)
			}
			if err := rec.Register("Q1", reshaped); err != nil {
				t.Fatal(err)
			}
			rep := rec.LoadStateReport()
			if rep.WALPending != 0 || rep.WALStale < misfits {
				t.Errorf("replay left %d records pending and counted %d stale; the log holds %d points of the old shape",
					rep.WALPending, rep.WALStale, misfits)
			}
			// A wedged learner lock shows as this hanging until the test
			// binary's timeout.
			runDurableWorkload(t, rec, 50, 7)
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
