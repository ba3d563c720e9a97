package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obsv"
)

func testRecord(tmpl string, i int) *Record {
	return &Record{
		Epoch:       int64(i % 3),
		Template:    tmpl,
		Plan:        int64(i * 7),
		Cost:        float64(i) * 1.5,
		SelfLabeled: i%2 == 0,
		Point:       []float64{float64(i) / 100, 1 - float64(i)/100},
	}
}

func openTest(t *testing.T, opts Options) (*Log, *Recovery) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, rec
}

func TestAppendScanRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openTest(t, Options{Dir: dir})
	if rec.LastSeq != 0 || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered %d records, last seq %d", len(rec.Records), rec.LastSeq)
	}
	const n = 50
	for i := 0; i < n; i++ {
		seq, err := l.Append(testRecord("Q1", i))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("Append %d: seq %d, want %d", i, seq, i+1)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, err := Scan(dir)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if got.Corrupt || got.TornBytes != 0 {
		t.Fatalf("clean log scanned corrupt=%v torn=%d (%s)", got.Corrupt, got.TornBytes, got.Reason)
	}
	if len(got.Records) != n || got.LastSeq != n {
		t.Fatalf("scanned %d records last seq %d, want %d/%d", len(got.Records), got.LastSeq, n, n)
	}
	for i, r := range got.Records {
		want := testRecord("Q1", i)
		want.Seq = uint64(i + 1)
		if r.Seq != want.Seq || r.Epoch != want.Epoch || r.Template != want.Template ||
			r.Plan != want.Plan || r.Cost != want.Cost || r.SelfLabeled != want.SelfLabeled {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, r, want)
		}
		if len(r.Point) != len(want.Point) {
			t.Fatalf("record %d point dims %d, want %d", i, len(r.Point), len(want.Point))
		}
		for d := range r.Point {
			if r.Point[d] != want.Point[d] {
				t.Fatalf("record %d point[%d] = %v, want %v", i, d, r.Point[d], want.Point[d])
			}
		}
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(testRecord("Q0", i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, rec := openTest(t, Options{Dir: dir})
	if rec.LastSeq != 10 {
		t.Fatalf("recovered last seq %d, want 10", rec.LastSeq)
	}
	seq, err := l2.Append(testRecord("Q0", 10))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Fatalf("append after reopen got seq %d, want 11", seq)
	}
	l2.Close()

	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != 11 || len(got.Records) != 11 {
		t.Fatalf("final scan: %d records last seq %d", len(got.Records), got.LastSeq)
	}
}

// TestReopenNumbersPastACompactedLog: a reopen rotates to a fresh live
// segment, and a compaction covering every record then leaves that empty
// segment alone on disk. Its name is the lowest seq it may hold, so the
// next Open resumes past it rather than at 0: sequence numbers are never
// reused.
func TestReopenNumbersPastACompactedLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(testRecord("Q0", i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2, _ := openTest(t, Options{Dir: dir})
	if removed, err := l2.Compact(10); err != nil || removed != 1 {
		t.Fatalf("compacting the reopened log removed %d segments (%v), want its first", removed, err)
	}
	l2.Close()

	l3, rec := openTest(t, Options{Dir: dir})
	if len(rec.Records) != 0 || l3.LastSeq() != 10 {
		t.Fatalf("reopened %d records at last seq %d, want none at 10", len(rec.Records), l3.LastSeq())
	}
	if seq, err := l3.Append(testRecord("Q0", 10)); err != nil || seq != 11 {
		t.Fatalf("append after the quiet reopen got seq %d (%v), want 11", seq, err)
	}
}

// TestNumberPastSurvivesReopen: NumberPast moves the next record past a
// given seq, and the fresh segment it opens carries that floor across a
// reopen with no records in between. A seq the log already numbers past
// changes nothing.
func TestNumberPastSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir})
	if err := l.NumberPast(300); err != nil {
		t.Fatal(err)
	}
	if err := l.NumberPast(7); err != nil || l.LastSeq() != 300 {
		t.Fatalf("NumberPast below the log's place moved it to %d (%v)", l.LastSeq(), err)
	}
	l.Close()
	l2, _ := openTest(t, Options{Dir: dir})
	if seq, err := l2.Append(testRecord("Q0", 0)); err != nil || seq != 301 {
		t.Fatalf("append after NumberPast(300) and a reopen got seq %d (%v), want 301", seq, err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Small segments force several rotations.
	l, _ := openTest(t, Options{Dir: dir, SegmentBytes: 256})
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Append(testRecord("Q2", i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("expected several segments, got %v", names)
	}
	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != n || got.LastSeq != n {
		t.Fatalf("rotated log lost records: %d/%d last seq %d", len(got.Records), n, got.LastSeq)
	}
	// Segment names must carry their first contained sequence number.
	for _, name := range names[1:] {
		first := segFirstSeq(name)
		if first == 0 {
			t.Fatalf("segment %s has unparseable first seq", name)
		}
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(testRecord("Q3", i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	names, _ := segments(dir)
	path := filepath.Join(dir, names[len(names)-1])
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-record: drop the last 5 bytes.
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	l2, rec := openTest(t, Options{Dir: dir})
	if rec.Corrupt {
		t.Fatalf("torn tail misreported as corruption: %s", rec.Reason)
	}
	if rec.TornBytes == 0 || rec.TornSegment == "" {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	if len(rec.Records) != 19 || rec.LastSeq != 19 {
		t.Fatalf("recovered %d records last seq %d, want 19", len(rec.Records), rec.LastSeq)
	}
	// The tear is physically gone: appends and rescans see a clean log.
	if _, err := l2.Append(testRecord("Q3", 20)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.TornBytes != 0 || got.Corrupt {
		t.Fatalf("tear survived reopen: %+v", got)
	}
	if got.LastSeq != 20 {
		t.Fatalf("post-repair last seq %d, want 20", got.LastSeq)
	}
}

func TestTornHeaderSegmentRemoved(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(testRecord("Q0", i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate a crash during rotation: a later segment exists but holds
	// only a partial header.
	stub := filepath.Join(dir, segName(6))
	if err := os.WriteFile(stub, []byte("PPC"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := openTest(t, Options{Dir: dir})
	if rec.Corrupt {
		t.Fatalf("torn header misreported as corruption: %s", rec.Reason)
	}
	if len(rec.Records) != 5 {
		t.Fatalf("recovered %d records, want 5", len(rec.Records))
	}
	// The stub is gone; the same name may now hold the fresh live segment,
	// which must carry a full valid header (removal, not append-after).
	if data, err := os.ReadFile(stub); err != nil {
		t.Fatalf("live segment unreadable: %v", err)
	} else if string(data[:len(segMagic)]) != segMagic {
		t.Fatalf("segment %s does not start with a clean header: %q", stub, data[:len(segMagic)])
	}
	if _, err := l2.Append(testRecord("Q0", 5)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	got, err := Scan(dir)
	if err != nil || got.Corrupt || got.TornBytes != 0 {
		t.Fatalf("dir not clean after header repair: %+v err %v", got, err)
	}
	if got.LastSeq != 6 {
		t.Fatalf("last seq %d, want 6", got.LastSeq)
	}
}

func TestMidLogCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir, SegmentBytes: 256})
	for i := 0; i < 40; i++ {
		if _, err := l.Append(testRecord("Q1", i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, _ := segments(dir)
	if len(names) < 3 {
		t.Fatalf("need >=3 segments, got %v", names)
	}
	// Garble a byte inside the first record of a middle segment.
	mid := filepath.Join(dir, names[1])
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+frameOverhead+3] ^= 0xFF
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openTest(t, Options{Dir: dir, SegmentBytes: 256})
	if !rec.Corrupt {
		t.Fatal("mid-log corruption not reported")
	}
	if !strings.Contains(rec.Reason, names[1]) {
		t.Fatalf("reason %q does not name the damaged segment %s", rec.Reason, names[1])
	}
	if len(rec.QuarantinedSegments) != len(names)-2 {
		t.Fatalf("quarantined %v, want the %d segments after %s",
			rec.QuarantinedSegments, len(names)-2, names[1])
	}
	// Records from the first (clean) segment survive; nothing after the
	// damage is replayed.
	if len(rec.Records) == 0 || rec.Records[len(rec.Records)-1].Seq >= segFirstSeq(names[1])+uint64(len(rec.Records)) {
		t.Fatalf("unexpected record set: %d records, last seq %d",
			len(rec.Records), rec.Records[len(rec.Records)-1].Seq)
	}
	for _, q := range rec.QuarantinedSegments {
		if _, err := os.Stat(filepath.Join(dir, q)); !os.IsNotExist(err) {
			t.Fatalf("quarantined segment %s still present", q)
		}
		if _, err := os.Stat(filepath.Join(dir, q+".corrupt")); err != nil {
			t.Fatalf("quarantined segment %s not renamed aside: %v", q, err)
		}
	}
	// The log stays appendable past the damage.
	seq, err := l2.Append(testRecord("Q1", 99))
	if err != nil {
		t.Fatal(err)
	}
	if seq <= rec.LastSeq {
		t.Fatalf("append after corruption reused seq %d (last valid %d)", seq, rec.LastSeq)
	}
	l2.Close()
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir, SegmentBytes: 256})
	for i := 0; i < 40; i++ {
		if _, err := l.Append(testRecord("Q0", i)); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := segments(dir)
	if len(names) < 3 {
		t.Fatalf("need >=3 segments, got %v", names)
	}
	// Checkpoint covering everything: every sealed segment may go, the live
	// one must stay.
	removed, err := l.Compact(l.LastSeq())
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(names)-1 {
		t.Fatalf("removed %d segments, want %d", removed, len(names)-1)
	}
	after, _ := segments(dir)
	if len(after) != 1 {
		t.Fatalf("segments after compact: %v", after)
	}
	// Records after the checkpoint still scan.
	if _, err := l.Append(testRecord("Q0", 40)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Corrupt {
		t.Fatalf("compacted log corrupt: %s", got.Reason)
	}
	if got.LastSeq != 41 {
		t.Fatalf("last seq %d, want 41", got.LastSeq)
	}
}

func TestCompactPartialCoverage(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir, SegmentBytes: 256})
	for i := 0; i < 40; i++ {
		if _, err := l.Append(testRecord("Q2", i)); err != nil {
			t.Fatal(err)
		}
	}
	defer l.Close()
	names, _ := segments(dir)
	// Checkpoint covering only the first segment's records.
	minSeq := segFirstSeq(names[1]) - 1
	if _, err := l.Compact(minSeq); err != nil {
		t.Fatal(err)
	}
	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Every record newer than the checkpoint must survive compaction.
	want := uint64(40) - minSeq
	var kept uint64
	for _, r := range got.Records {
		if r.Seq > minSeq {
			kept++
		}
	}
	if kept != want {
		t.Fatalf("compaction dropped uncovered records: kept %d of %d", kept, want)
	}
}

func TestSyncPolicies(t *testing.T) {
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
	for _, s := range []string{"always", "interval", "never"} {
		p, err := ParsePolicy(s)
		if err != nil {
			t.Fatal(err)
		}
		if p.String() != s {
			t.Fatalf("round trip %q -> %v -> %q", s, p, p.String())
		}
	}

}

// TestIntervalCommitSyncsItsTail: under SyncInterval an explicit Sync
// counts one fsync, a Commit inside the interval skips its fsync, and with
// no Commit after it the batch is still fsynced within about one interval —
// the bounded loss window the policy promises. The timer it leaves fires
// once; Close disarms one it finds armed.
func TestIntervalCommitSyncsItsTail(t *testing.T) {
	const interval = syncInterval
	obs := &obsv.WALObs{}
	l, _ := openTest(t, Options{Dir: t.TempDir(), Sync: SyncInterval, Observer: obs})
	// skippedCommit syncs, then appends and commits at once, so that the
	// Commit falls inside the interval; it retries on a host slow enough to
	// let the interval pass in between. It returns the sync count.
	skippedCommit := func() uint64 {
		for try := 0; try < 10; try++ {
			before := obs.Snapshot().Syncs
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			synced := obs.Snapshot().Syncs
			if synced != before+1 {
				t.Fatalf("explicit Sync recorded %d syncs, want 1", synced-before)
			}
			if _, err := l.Append(testRecord("Q0", try)); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			if obs.Snapshot().Syncs == synced {
				return synced
			}
		}
		t.Fatal("every Commit came after the interval had passed")
		return 0
	}
	synced := skippedCommit()
	for deadline := time.Now().Add(50 * interval); obs.Snapshot().Syncs == synced; time.Sleep(interval / 4) {
		if time.Now().After(deadline) {
			t.Fatalf("no fsync %v after a Commit that skipped it, with a %v interval", 50*interval, interval)
		}
	}
	time.Sleep(3 * interval)
	if got := obs.Snapshot().Syncs - synced; got != 1 {
		t.Errorf("the skipped Commit's tail was fsynced %d times, want once", got)
	}

	synced = skippedCommit()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * interval)
	if got := obs.Snapshot().Syncs - synced; got != 0 {
		t.Errorf("a closed log recorded %d more syncs", got)
	}
}

func TestAppendAfterClose(t *testing.T) {
	l, _ := openTest(t, Options{Dir: t.TempDir()})
	l.Close()
	if _, err := l.Append(testRecord("Q0", 0)); err == nil {
		t.Fatal("append on closed log succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir, SegmentBytes: 512})
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append(testRecord("Q1", w*per+i)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != workers*per {
		t.Fatalf("scanned %d records, want %d", len(got.Records), workers*per)
	}
	for i, r := range got.Records {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d: sequence not dense", i, r.Seq)
		}
	}
}

func TestInjectedTornTail(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(7)
	obs := &obsv.WALObs{}
	l, _ := openTest(t, Options{Dir: dir, Faults: inj, Observer: obs})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(testRecord("Q0", i)); err != nil {
			t.Fatal(err)
		}
	}
	inj.Enable(faults.WALTornTail, 1)
	// The torn append and everything after it vanish, silently (the learner
	// keeps serving; durability is what degrades).
	for i := 10; i < 15; i++ {
		if _, err := l.Append(testRecord("Q0", i)); err != nil {
			t.Fatalf("torn-tail append surfaced error: %v", err)
		}
	}
	if got := obs.Snapshot().TearDrops; got != 5 {
		t.Fatalf("observer counted %d dropped appends, want 5", got)
	}
	l.Close()

	// Reopen recovers exactly the pre-tear records and truncates the tear.
	l2, rec := openTest(t, Options{Dir: dir})
	defer l2.Close()
	if rec.Corrupt {
		t.Fatalf("injected tear misreported as corruption: %s", rec.Reason)
	}
	if rec.TornBytes == 0 {
		t.Fatal("injected tear left no torn bytes to report")
	}
	if len(rec.Records) != 10 || rec.LastSeq != 10 {
		t.Fatalf("recovered %d records last seq %d, want 10", len(rec.Records), rec.LastSeq)
	}
}

func TestInjectedShortWrite(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(11)
	l, _ := openTest(t, Options{Dir: dir, Faults: inj})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(testRecord("Q1", i)); err != nil {
			t.Fatal(err)
		}
	}
	inj.Enable(faults.WALShortWrite, 1)
	_, err := l.Append(testRecord("Q1", 5))
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("short write returned %v, want injected error", err)
	}
	inj.Disable(faults.WALShortWrite)
	// The repair keeps the segment well-formed: the next append lands and
	// the log scans clean.
	if _, err := l.Append(testRecord("Q1", 6)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Corrupt || got.TornBytes != 0 {
		t.Fatalf("short write left damage: %+v", got)
	}
	if len(got.Records) != 6 {
		t.Fatalf("scanned %d records, want 6 (5 + post-repair append)", len(got.Records))
	}
}

func TestInjectedFsyncError(t *testing.T) {
	inj := faults.New(3)
	obs := &obsv.WALObs{}
	l, _ := openTest(t, Options{Dir: t.TempDir(), Faults: inj, Observer: obs})
	defer l.Close()
	if _, err := l.Append(testRecord("Q2", 0)); err != nil {
		t.Fatal(err)
	}
	inj.Enable(faults.WALFsyncError, 1)
	if err := l.Commit(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Commit under fsync fault returned %v", err)
	}
	if got := obs.Snapshot().SyncErrors; got != 1 {
		t.Fatalf("observer counted %d sync errors, want 1", got)
	}
	inj.DisableAll()
	if err := l.Commit(); err != nil {
		t.Fatalf("Commit after fault cleared: %v", err)
	}
}
