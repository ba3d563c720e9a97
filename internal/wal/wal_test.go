package wal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/disk/simdisk"
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

	got, err := Scan(disk.OS{}, dir)
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

	got, err := Scan(disk.OS{}, dir)
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
	names, err := segments(disk.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("expected several segments, got %v", names)
	}
	got, err := Scan(disk.OS{}, dir)
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

	names, _ := segments(disk.OS{}, dir)
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
	got, err := Scan(disk.OS{}, dir)
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
	got, err := Scan(disk.OS{}, dir)
	if err != nil || got.Corrupt || got.TornBytes != 0 {
		t.Fatalf("dir not clean after header repair: %+v err %v", got, err)
	}
	if got.LastSeq != 6 {
		t.Fatalf("last seq %d, want 6", got.LastSeq)
	}
}

// stampVersion rewrites the version in the header of the segment at path,
// as if another build had written it.
func stampVersion(t *testing.T, path string, v uint16) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le.PutUint16(data[len(segMagic):], v)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestForeignSegmentQuarantinedNotRemoved: a log of one segment written
// by an older build (version 1) is not a torn tail. Open reports it
// Corrupt and renames it aside byte for byte; nothing is truncated or
// removed, and a fresh segment takes the records that follow.
func TestForeignSegmentQuarantinedNotRemoved(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(testRecord("Q1", i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := filepath.Join(dir, segName(1))
	old := stampVersion(t, path, segVersion-1)

	l2, rec := openTest(t, Options{Dir: dir})
	if !rec.Corrupt || rec.TornBytes != 0 || len(rec.Records) != 0 ||
		len(rec.Quarantined) != 1 || rec.Quarantined[0] != segName(1)+".corrupt" {
		t.Fatalf("a version-%d segment recovered as %+v; want it Corrupt and quarantined, not torn", segVersion-1, rec)
	}
	if kept, err := os.ReadFile(path + ".corrupt"); err != nil || string(kept) != string(old) {
		t.Fatalf("quarantined segment: %v, or its bytes moved", err)
	}
	if _, err := l2.Append(testRecord("Q1", 5)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if got, err := Scan(disk.OS{}, dir); err != nil || got.Corrupt || len(got.Records) != 1 {
		t.Fatalf("after the quarantine the log scans %+v, %v; want the one new record", got, err)
	}
}

// TestForeignFirstSegmentQuarantinesTheLog: when the first of several
// segments carries another version, that segment and every one after it
// are renamed aside, and the live segment is a fresh one: appending after
// the foreign header would strand every new record where the next scan
// stops. The new records are numbered past every seq the quarantined
// segments hold, so no seq is reused. A second foreign header at the same
// name does not overwrite the first quarantine.
func TestForeignFirstSegmentQuarantinesTheLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir, SegmentBytes: 256})
	for i := 0; i < 40; i++ {
		if _, err := l.Append(testRecord("Q1", i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, _ := segments(disk.OS{}, dir)
	if len(names) < 3 {
		t.Fatalf("need >=3 segments, got %v", names)
	}
	foreign := stampVersion(t, filepath.Join(dir, names[0]), 9)

	l2, rec := openTest(t, Options{Dir: dir, SegmentBytes: 256})
	if !rec.Corrupt || len(rec.Records) != 0 || strings.Join(rec.Quarantined, ",") != strings.Join(names, ".corrupt,")+".corrupt" {
		t.Fatalf("recovered %d records, corrupt %v, quarantined %v; want all of %v aside", len(rec.Records), rec.Corrupt, rec.Quarantined, names)
	}
	for _, name := range names {
		if _, err := os.Stat(filepath.Join(dir, name+".corrupt")); err != nil {
			t.Fatalf("segment %s not renamed aside: %v", name, err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := l2.Append(testRecord("Q1", i)); err != nil {
			t.Fatal(err)
		}
	}
	l2.Close()
	_, rec = openTest(t, Options{Dir: dir, SegmentBytes: 256})
	if rec.Corrupt || len(rec.Records) != 3 || rec.Records[0].Seq != 41 || rec.LastSeq != 43 {
		t.Fatalf("the next Open recovered %d records (last %d, corrupt %v: %q); want the 3 appended after the quarantine, seqs 41-43",
			len(rec.Records), rec.LastSeq, rec.Corrupt, rec.Reason)
	}

	if err := os.WriteFile(filepath.Join(dir, names[0]), foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, rec = openTest(t, Options{Dir: dir, SegmentBytes: 256}); !rec.Corrupt {
		t.Fatal("a second foreign header went unreported")
	}
	for _, q := range []string{".corrupt", ".corrupt.1"} {
		if _, err := os.Stat(filepath.Join(dir, names[0]+q)); err != nil {
			t.Fatalf("quarantine %s%s: %v", names[0], q, err)
		}
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
	names, _ := segments(disk.OS{}, dir)
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
	// The report names every file the damage went to: the damaged
	// segment's cut bytes first, then each later segment renamed aside.
	if len(rec.Quarantined) != len(names)-1 || rec.Quarantined[0] != names[1]+".corrupt" {
		t.Fatalf("quarantined %v, want %s's cut bytes and the %d segments after it",
			rec.Quarantined, names[1], len(names)-2)
	}
	// Records from the first (clean) segment survive; nothing after the
	// damage is replayed.
	if len(rec.Records) == 0 || rec.Records[len(rec.Records)-1].Seq >= segFirstSeq(names[1])+uint64(len(rec.Records)) {
		t.Fatalf("unexpected record set: %d records, last seq %d",
			len(rec.Records), rec.Records[len(rec.Records)-1].Seq)
	}
	for i, q := range rec.Quarantined[1:] {
		if _, err := os.Stat(filepath.Join(dir, names[i+2])); !os.IsNotExist(err) {
			t.Fatalf("quarantined segment %s still present", names[i+2])
		}
		if _, err := os.Stat(filepath.Join(dir, q)); err != nil || q != names[i+2]+".corrupt" {
			t.Fatalf("segment %s not renamed aside to %s: %v", names[i+2], q, err)
		}
	}
	// The damaged segment is cut at its bad frame, the cut bytes kept aside
	// in the file the report names.
	if st, err := os.Stat(mid); err != nil || st.Size() != int64(headerSize) {
		t.Fatalf("damaged segment not cut at its bad frame: %v, %v", st, err)
	}
	if cut, err := os.ReadFile(filepath.Join(dir, rec.Quarantined[0])); err != nil || string(cut) != string(data[headerSize:]) {
		t.Fatalf("the cut bytes were not kept aside: %v", err)
	}
	// The log stays appendable past the damage, and the next scan ends
	// cleanly after the new record.
	seq, err := l2.Append(testRecord("Q1", 99))
	if err != nil {
		t.Fatal(err)
	}
	if seq <= rec.LastSeq {
		t.Fatalf("append after corruption reused seq %d (last valid %d)", seq, rec.LastSeq)
	}
	l2.Close()
	if got, err := Scan(disk.OS{}, dir); err != nil || got.Corrupt || got.LastSeq != seq {
		t.Fatalf("after the repair the log scans %+v, %v; want it clean through seq %d", got, err, seq)
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir, SegmentBytes: 256})
	for i := 0; i < 40; i++ {
		if _, err := l.Append(testRecord("Q0", i)); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := segments(disk.OS{}, dir)
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
	after, _ := segments(disk.OS{}, dir)
	if len(after) != 1 {
		t.Fatalf("segments after compact: %v", after)
	}
	// Records after the checkpoint still scan.
	if _, err := l.Append(testRecord("Q0", 40)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	got, err := Scan(disk.OS{}, dir)
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
	names, _ := segments(disk.OS{}, dir)
	// Checkpoint covering only the first segment's records.
	minSeq := segFirstSeq(names[1]) - 1
	if _, err := l.Compact(minSeq); err != nil {
		t.Fatal(err)
	}
	got, err := Scan(disk.OS{}, dir)
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
	for _, s := range []string{"always", "interval"} {
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
	got, err := Scan(disk.OS{}, dir)
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

// TestInjectedTornTail: a torn write on the simulated disk lands a prefix
// of a frame and takes the device. That append and every one after it
// fail, counted as append errors (the learner keeps serving; durability
// is what degrades), and so do Commit and Close: nothing is reported
// durable that is not.
func TestInjectedTornTail(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(7)
	d := simdisk.New(inj)
	inj.SetDisk(d)
	obs := &obsv.WALObs{}
	l, _ := openTest(t, Options{Dir: dir, Faults: inj, Observer: obs})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(testRecord("Q0", i)); err != nil {
			t.Fatal(err)
		}
	}
	inj.Enable(faults.WALTornTail, 1)
	for i := 10; i < 15; i++ {
		if _, err := l.Append(testRecord("Q0", i)); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("append %d after a torn write returned %v, want the injected error", i, err)
		}
	}
	if got := obs.Snapshot().AppendErrors; got != 5 {
		t.Fatalf("observer counted %d append errors, want 5", got)
	}
	if err := l.Commit(); err == nil {
		t.Fatal("Commit after a torn write reported success")
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close after a torn write reported success")
	}

	// Reopen on what the process left recovers exactly the pre-tear records
	// and truncates the tear.
	inj.DisableAll()
	inj.SetDisk(d.Kill())
	l2, rec := openTest(t, Options{Dir: dir, Faults: inj})
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

// TestFailedRepairFailsEveryAppend: a short write whose repair cannot
// truncate leaves a partial frame past the log's end. Until a repair
// succeeds every Append and Commit returns the error, counted — under
// SyncInterval too, where a Commit inside the interval would otherwise only
// arm its timer; once the disk heals the next Append cuts the partial frame
// and lands, and the log scans clean and dense.
func TestFailedRepairFailsEveryAppend(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			inj := faults.New(13)
			d := simdisk.New(inj)
			inj.SetDisk(d)
			obs := &obsv.WALObs{}
			l, _ := openTest(t, Options{Dir: dir, Sync: policy, Faults: inj, Observer: obs})
			for i := 0; i < 5; i++ {
				if _, err := l.Append(testRecord("Q1", i)); err != nil {
					t.Fatal(err)
				}
			}
			d.Fail("Truncate")
			inj.Enable(faults.WALShortWrite, 1)
			if _, err := l.Append(testRecord("Q1", 5)); !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("short write returned %v, want the injected error", err)
			}
			inj.Disable(faults.WALShortWrite)
			for i := 6; i < 9; i++ {
				if seq, err := l.Append(testRecord("Q1", i)); err == nil {
					t.Fatalf("append %d with the repair failing landed as seq %d", i, seq)
				}
			}
			if err := l.Commit(); err == nil {
				t.Fatal("Commit with the repair failing reported success")
			}
			if s := obs.Snapshot(); s.AppendErrors != 4 || s.SyncErrors != 1 {
				t.Fatalf("observer counted %d append errors and %d sync errors; want 4 and 1", s.AppendErrors, s.SyncErrors)
			}
			d.Heal()
			if seq, err := l.Append(testRecord("Q1", 9)); err != nil || seq != 6 {
				t.Fatalf("append after the disk healed: seq %d, %v; want 6", seq, err)
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			got, err := Scan(d, dir)
			if err != nil {
				t.Fatal(err)
			}
			if got.Corrupt || got.TornBytes != 0 || len(got.Records) != 6 {
				t.Fatalf("after the healed repair the log scans %d records, torn %d, corrupt %v; want 6 clean",
					len(got.Records), got.TornBytes, got.Corrupt)
			}
			for i, r := range got.Records {
				if r.Seq != uint64(i+1) {
					t.Fatalf("record %d has seq %d: sequence not dense", i, r.Seq)
				}
			}
		})
	}
}

// TestRepairSurvivesPowerLoss: what Open cuts out of a segment stays cut
// through a power loss. A torn tail the repair truncated would otherwise
// come back in front of the new live segment, and a mid-log bad frame would
// come back in its cut segment: either way the next Open would meet damage
// before a later segment and quarantine again.
func TestRepairSurvivesPowerLoss(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(names []string) (segment string, b []byte)
	}{
		{"torn tail", func(names []string) (string, []byte) {
			return names[len(names)-1], []byte{9, 0, 0, 0, 1, 2}
		}},
		{"mid-log frame", func(names []string) (string, []byte) {
			return names[1], []byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0, 0, 0, 0}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := "/db/wal"
			d := simdisk.New(nil)
			inj := faults.New(1).SetDisk(d)
			l, _ := openTest(t, Options{Dir: dir, SegmentBytes: 256, Faults: inj})
			for i := 0; i < 40; i++ {
				if _, err := l.Append(testRecord("Q1", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			names, err := segments(d, dir)
			if err != nil || len(names) < 3 {
				t.Fatalf("need >=3 segments, got %v (%v)", names, err)
			}
			// Append the damage to a segment, durably: what a power loss
			// keeps of it is the damaged bytes.
			name, b := tc.damage(names)
			f, err := d.OpenAppend(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(b); err != nil {
				t.Fatal(err)
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			f.Close()

			l2, rec, err := Open(Options{Dir: dir, SegmentBytes: 256, Faults: inj})
			if err != nil {
				t.Fatal(err)
			}
			if rec.TornBytes == 0 && !rec.Corrupt {
				t.Fatalf("the damage to %s was not found", name)
			}
			d = d.Crash()
			l2.Close()
			l3, again, err := Open(Options{Dir: dir, SegmentBytes: 256, Faults: faults.New(1).SetDisk(d)})
			if err != nil {
				t.Fatal(err)
			}
			defer l3.Close()
			if again.Corrupt || again.TornBytes != 0 || len(again.Quarantined) != 0 {
				t.Fatalf("after a power loss the repaired log recovers torn %d, quarantined %v, corrupt %v (%s)",
					again.TornBytes, again.Quarantined, again.Corrupt, again.Reason)
			}
			if again.LastSeq != rec.LastSeq {
				t.Fatalf("after a power loss the log ends at seq %d, want %d", again.LastSeq, rec.LastSeq)
			}
		})
	}
}

func TestInjectedShortWrite(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(11)
	d := simdisk.New(inj)
	inj.SetDisk(d)
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
	got, err := Scan(d, dir)
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
	inj.SetDisk(simdisk.New(inj))
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

// TestRotationFsyncErrorFailsTheAppend: a rotation that cannot fsync the
// segment it seals fails the append that needed it, counted as a sync error
// and an append error. It numbers nothing and keeps the full segment live,
// so the next append retries the rotation, and the log stays dense.
func TestRotationFsyncErrorFailsTheAppend(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(3)
	d := simdisk.New(inj)
	inj.SetDisk(d)
	obs := &obsv.WALObs{}
	l, _ := openTest(t, Options{Dir: dir, Faults: inj, Observer: obs, SegmentBytes: 256})
	defer l.Close()
	n := 0
	for ; l.size < l.opts.SegmentBytes; n++ {
		if _, err := l.Append(testRecord("Q1", n)); err != nil {
			t.Fatal(err)
		}
	}
	seq := l.LastSeq()
	inj.Enable(faults.WALFsyncError, 1)
	if _, err := l.Append(testRecord("Q1", n)); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("append needing a rotation under an fsync fault returned %v", err)
	}
	if inj.Fired(faults.WALFsyncError) != 1 {
		t.Fatalf("fsync fault fired %d times, want 1", inj.Fired(faults.WALFsyncError))
	}
	if names, _ := segments(d, dir); l.LastSeq() != seq || len(names) != 1 {
		t.Fatalf("failed rotation left last seq %d (want %d) and segments %v (want one)", l.LastSeq(), seq, names)
	}
	if s := obs.Snapshot(); s.SyncErrors != 1 || s.AppendErrors != 1 || s.Rotations != 0 {
		t.Fatalf("observer counted %d sync errors, %d append errors, %d rotations; want 1, 1, 0",
			s.SyncErrors, s.AppendErrors, s.Rotations)
	}
	inj.DisableAll()
	if got, err := l.Append(testRecord("Q1", n)); err != nil || got != seq+1 {
		t.Fatalf("append after the fault cleared: seq %d, %v; want %d", got, err, seq+1)
	}
	if names, _ := segments(d, dir); len(names) != 2 || obs.Snapshot().Rotations != 1 {
		t.Fatalf("retried rotation: segments %v, %d rotations; want two and one", names, obs.Snapshot().Rotations)
	}
	l.Close()
	got, err := Scan(d, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Corrupt || got.LastSeq != seq+1 || len(got.Records) != int(seq+1) {
		t.Fatalf("scan after the retried rotation: %d records to seq %d, corrupt %v; want %d dense",
			len(got.Records), got.LastSeq, got.Corrupt, seq+1)
	}
}
