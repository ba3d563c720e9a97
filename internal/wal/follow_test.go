package wal

// Tests for the live-tail Follower the replication ship loop runs: catch-up
// over existing segments, rotation handoff, compaction racing the tail
// (ErrCompacted), and the frames a torn or short append leaves on disk,
// which the log never commits and a follower never delivers.

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/disk"
	"repro/internal/disk/simdisk"
	"repro/internal/faults"
)

// appendN appends n records for tmpl and returns the last assigned seq.
func appendN(t *testing.T, l *Log, tmpl string, n int) uint64 {
	t.Helper()
	var last uint64
	for i := 0; i < n; i++ {
		seq, err := l.Append(testRecord(tmpl, i))
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	return last
}

// poll runs one Poll and decodes the frames it returns, which must be
// exactly as many as it counts.
func poll(t *testing.T, f *Follower, max int) ([]Record, error) {
	t.Helper()
	frames, n, err := f.Poll(nil, max)
	recs, derr := DecodeFrames(frames)
	if derr != nil {
		t.Fatalf("poll returned an invalid frame after %d records: %v", len(recs), derr)
	}
	if len(recs) != n {
		t.Fatalf("poll counted %d records and returned %d frames", n, len(recs))
	}
	return recs, err
}

// drain polls until the follower reports no more records.
func drain(t *testing.T, f *Follower) []Record {
	t.Helper()
	var out []Record
	for {
		recs, err := poll(t, f, 100)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, recs...)
		if len(recs) < 100 {
			return out
		}
	}
}

func TestFollowerCatchUpAndTail(t *testing.T) {
	l, _ := openTest(t, Options{Dir: t.TempDir(), SegmentBytes: 256})
	last := appendN(t, l, "Q1", 20) // several segments at 256 bytes

	f := l.Follow(0)
	recs := drain(t, f)
	if len(recs) != 20 {
		t.Fatalf("catch-up delivered %d records, want 20", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d (dense, ordered)", i, r.Seq, i+1)
		}
	}
	if f.After() != last {
		t.Fatalf("After() = %d, want %d", f.After(), last)
	}

	// Quiet tail: no records, no error.
	if recs := drain(t, f); len(recs) != 0 {
		t.Fatalf("idle poll delivered %d records", len(recs))
	}

	// Live tail: new appends (including across a rotation) arrive in order.
	last2 := appendN(t, l, "Q1", 15)
	recs = drain(t, f)
	if len(recs) != 15 || recs[0].Seq != last+1 || recs[len(recs)-1].Seq != last2 {
		t.Fatalf("live tail delivered %d records [%d..%d], want 15 [%d..%d]",
			len(recs), recs[0].Seq, recs[len(recs)-1].Seq, last+1, last2)
	}
}

func TestFollowerResumeMidStream(t *testing.T) {
	l, _ := openTest(t, Options{Dir: t.TempDir(), SegmentBytes: 256})
	appendN(t, l, "Q1", 30)

	f := l.Follow(12)
	recs := drain(t, f)
	if len(recs) != 18 || recs[0].Seq != 13 {
		t.Fatalf("resume after 12 delivered %d records starting at %d", len(recs), recs[0].Seq)
	}
}

func TestFollowerCompactedPosition(t *testing.T) {
	l, _ := openTest(t, Options{Dir: t.TempDir(), SegmentBytes: 256})
	appendN(t, l, "Q1", 30)
	if _, err := l.Compact(25); err != nil {
		t.Fatal(err)
	}

	// A position below the surviving floor is unrecoverable for a tail: the
	// follower must say so, not silently skip records.
	f := l.Follow(3)
	if _, err := poll(t, f, 100); !errors.Is(err, ErrCompacted) {
		t.Fatalf("poll below the compaction floor: %v, want ErrCompacted", err)
	}

	// From the floor itself the tail still works.
	first := l.FirstSeq()
	f2 := l.Follow(first - 1)
	recs := drain(t, f2)
	if len(recs) == 0 || recs[0].Seq != first {
		t.Fatalf("tail from floor %d delivered %d records", first, len(recs))
	}
}

func TestFollowerCompactionMidTail(t *testing.T) {
	l, _ := openTest(t, Options{Dir: t.TempDir(), SegmentBytes: 256})
	appendN(t, l, "Q1", 10)
	f := l.Follow(0)
	if recs := drain(t, f); len(recs) != 10 {
		t.Fatalf("catch-up delivered %d records", len(recs))
	}

	// The follower sits parked on an old segment; compaction deletes it out
	// from under the tail. The next poll either reports ErrCompacted or — if
	// the follower was already on the live segment — keeps delivering.
	appendN(t, l, "Q1", 30)
	if _, err := l.Compact(35); err != nil {
		t.Fatal(err)
	}
	recs, err := poll(t, f, 100)
	if err != nil && !errors.Is(err, ErrCompacted) {
		t.Fatalf("poll after compaction: %v", err)
	}
	if err == nil {
		for _, r := range recs {
			if r.Seq <= 10 {
				t.Fatalf("replayed already-delivered seq %d", r.Seq)
			}
		}
	}
}

// TestFollowerTornTailNotDelivered: an append the simulated disk tears
// lands a prefix of its frame and takes the device, so that append and the
// ones after it fail and land nothing. A follower delivers every record the
// log committed before the tear, across rotations, and neither the partial
// frame nor anything after it; a follower of the log reopened on what the
// process left, which truncated the tear, reads the same records.
func TestFollowerTornTailNotDelivered(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(7)
	d := simdisk.New(inj)
	inj.SetDisk(d)
	l, _ := openTest(t, Options{Dir: dir, Faults: inj, SegmentBytes: 256})
	appendN(t, l, "Q1", 5)
	f := l.Follow(0)
	if recs := drain(t, f); len(recs) != 5 {
		t.Fatalf("catch-up delivered %d records, want 5", len(recs))
	}
	appendN(t, l, "Q1", 3)
	inj.Enable(faults.WALTornTail, 1)
	for i := 0; i < 4; i++ {
		if _, err := l.Append(testRecord("Q1", i)); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("append %d after the tear returned %v, want the injected error", i, err)
		}
	}
	if inj.Fired(faults.WALTornTail) != 1 {
		t.Fatalf("torn-tail fault fired %d times, want 1 (the device is gone after it)", inj.Fired(faults.WALTornTail))
	}
	// The tear is in the newest segment: the live one, or the one a
	// rotation was writing the header of, to which the log committed
	// nothing.
	names, _ := segments(d, dir)
	newest, committed := names[len(names)-1], int64(0)
	if newest == segName(l.segs[len(l.segs)-1]) {
		committed = l.size
	}
	torn, err := d.Open(filepath.Join(dir, newest))
	if err != nil {
		t.Fatal(err)
	}
	if size, err := torn.Size(); err != nil || size <= committed {
		t.Fatalf("segment %s of %d bytes (%v), want more than the %d committed: the torn write", newest, size, err, committed)
	}
	torn.Close()

	recs := drain(t, f)
	if len(recs) != 3 || recs[0].Seq != 6 || recs[2].Seq != 8 {
		t.Fatalf("delivered %d records after the tear, want 6..8", len(recs))
	}
	if recs := drain(t, f); len(recs) != 0 {
		t.Fatalf("a poll after the tear delivered %d records", len(recs))
	}

	inj.DisableAll()
	inj.SetDisk(d.Kill())
	l2, rec := openTest(t, Options{Dir: dir, Faults: inj})
	if rec.TornBytes == 0 || rec.LastSeq != 8 {
		t.Fatalf("reopen found %d torn bytes and last seq %d, want a tear after seq 8", rec.TornBytes, rec.LastSeq)
	}
	if recs := drain(t, l2.Follow(0)); len(recs) != 8 {
		t.Fatalf("follower of the reopened log delivered %d records, want 8", len(recs))
	}
}

// TestFollowerShortWriteNotDelivered: a short write lands half its frame,
// errs, and the log truncates the segment back to its last whole frame
// before it lets go of the lock. The failed record takes no sequence
// number, so a follower polling beside the writer delivers exactly what
// recovery reads back: every committed record, dense, across rotations.
func TestFollowerShortWriteNotDelivered(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(5).Enable(faults.WALShortWrite, 0.1)
	d := simdisk.New(inj)
	inj.SetDisk(d)
	l, _ := openTest(t, Options{Dir: dir, Faults: inj, SegmentBytes: 1 << 10})
	const appends = 2000
	done := make(chan int, 1)
	go func() {
		committed := 0
		for i := 0; i < appends; i++ {
			if _, err := l.Append(testRecord("Q1", i)); err == nil {
				committed++
			}
		}
		done <- committed
	}()
	f := l.Follow(0)
	var got []Record
	for committed := -1; committed < 0; {
		select {
		case committed = <-done:
		default:
		}
		recs, err := poll(t, f, 64)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, recs...)
	}
	got = append(got, drain(t, f)...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err := Scan(d, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) == appends || scan.TornBytes != 0 || scan.Segments < 3 {
		t.Fatalf("scan read %d of %d records, %d torn bytes, %d segments: want some short writes, a clean log and rotations",
			len(scan.Records), appends, scan.TornBytes, scan.Segments)
	}
	if !reflect.DeepEqual(got, scan.Records) {
		t.Fatalf("follower delivered %d records, recovery reads %d", len(got), len(scan.Records))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
	}
}

// TestFollowerPollAfterClose: a closed log's follower delivers the records
// the log committed and then nothing, whether it was made before the Close
// or after.
func TestFollowerPollAfterClose(t *testing.T) {
	l, _ := openTest(t, Options{SegmentBytes: 256})
	appendN(t, l, "Q1", 10)
	f := l.Follow(0)
	if recs, err := poll(t, f, 4); err != nil || len(recs) != 4 {
		t.Fatalf("first poll delivered %d records (%v), want 4", len(recs), err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := drain(t, f); len(recs) != 6 || recs[0].Seq != 5 {
		t.Fatalf("poll after Close delivered %d records, want 5..10", len(recs))
	}
	if recs := drain(t, f); len(recs) != 0 {
		t.Fatalf("second poll after Close delivered %d records", len(recs))
	}
	if recs := drain(t, l.Follow(0)); len(recs) != 10 {
		t.Fatalf("follower made after Close delivered %d records, want 10", len(recs))
	}
}

// TestFollowerStopsWhereScanStops: a checksummed frame whose point count
// disagrees with its length is invalid to a follower as it is to recovery,
// so both stop before it.
func TestFollowerStopsWhereScanStops(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir})
	appendN(t, l, "Q1", 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	bad := AppendFrame(nil, testRecord("Q1", 3))
	le.PutUint16(bad[frameOverhead+minPayload+len("Q1")+17:], 3) // dims, of a two-dimensional point
	le.PutUint32(bad[4:8], crc32.Checksum(bad[frameOverhead:], walCRC))
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v; want one", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bad); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Scan(disk.OS{}, dir)
	if err != nil || len(rec.Records) != 3 || rec.TornBytes != int64(len(bad)) {
		t.Fatalf("scan read %d records and %d torn bytes (%v); want 3 and the %d-byte frame", len(rec.Records), rec.TornBytes, err, len(bad))
	}
	// Open truncates the bad frame as it does a torn one, so a follower of
	// the reopened log never reaches it.
	l2, rec := openTest(t, Options{Dir: dir})
	if rec.TornBytes != int64(len(bad)) {
		t.Fatalf("open truncated %d torn bytes, want the %d-byte frame", rec.TornBytes, len(bad))
	}
	if got := len(drain(t, l2.Follow(0))); got != 3 {
		t.Fatalf("follower delivered %d records, want the 3 before the bad frame", got)
	}
}

// TestFollowerPollReadsOnlyTheTail: a poll costs what is new, not what the
// segment holds. Behind a consumed segment of 2 MiB, a hundred rounds of
// one append and one poll allocate well under the segment's size in total;
// reading the segment from byte 0 on every poll allocates a hundred times
// its size (≈ 250 MiB here).
func TestFollowerPollReadsOnlyTheTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir, SegmentBytes: 1 << 30})
	rec := testRecord("Q1", 1)
	frame := int64(len(AppendFrame(nil, rec)))
	n := int((2<<20)/frame) + 1
	for i := 0; i < n; i++ {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	f := l.Follow(0)
	if got := len(drain(t, f)); got != n {
		t.Fatalf("catch-up delivered %d of %d records", got, n)
	}
	if f.off < 2<<20 {
		t.Fatalf("consumed segment is %d bytes, want at least 2 MiB", f.off)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		seq, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := poll(t, f, 16)
		if err != nil || len(recs) != 1 || recs[0].Seq != seq {
			t.Fatalf("round %d: poll delivered %d records (%v), want seq %d", i, len(recs), err, seq)
		}
	}
	runtime.ReadMemStats(&after)
	t.Logf("100 × (append, poll) behind a %d-byte segment allocated %d bytes", f.off, after.TotalAlloc-before.TotalAlloc)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("100 × (append, poll) behind a %d-byte segment allocated %d bytes, want under 1 MiB", f.off, got)
	}
}

// TestFollowerDrainReadsTheSegmentOnce: catching up inside one large
// segment reads each of its bytes once, however many polls the drain takes.
// 32,768 records in one segment of ≈ 2 MiB, drained 512 records a poll (the
// ship loop's batch) into one reused buffer, allocate about the segment's
// size; a poll that reads from its position to the segment's end every time
// allocates half the segment per poll, ≈ 70 MB over the drain.
func TestFollowerDrainReadsTheSegmentOnce(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir, SegmentBytes: 1 << 30})
	const records = 32768
	for i := 0; i < records; i++ {
		if _, err := l.Append(testRecord("Q1", i)); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v; want one", segs, err)
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	f := l.Follow(0)
	dst := make([]byte, 0, 64<<10)
	got, polls := 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for {
		var n int
		if dst, n, err = f.Poll(dst[:0], 512); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		got, polls = got+n, polls+1
	}
	runtime.ReadMemStats(&after)
	if got != records {
		t.Fatalf("drain delivered %d of %d records", got, records)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d polls over a %d-byte segment allocated %d bytes", polls, fi.Size(), alloc)
	if limit := 2 * uint64(fi.Size()); alloc >= limit {
		t.Errorf("%d polls over a %d-byte segment allocated %d bytes, want under %d: bytes were read more than once",
			polls, fi.Size(), alloc, limit)
	}
}

// TestFollowerReadsOnPastItsCache: the bytes a poll keeps past its max are
// the segment as the log had committed it then, not its end. Records
// appended to the same segment before a rotation, also past a short write
// the log repaired, are delivered in order once the next segment exists:
// none is skipped and the follower does not report ErrCompacted.
func TestFollowerReadsOnPastItsCache(t *testing.T) {
	frame := len(AppendFrame(nil, testRecord("Q1", 0)))
	listSegs := func(t *testing.T, l *Log) []string {
		t.Helper()
		segs, err := segments(l.disk, l.opts.Dir)
		if err != nil {
			t.Fatal(err)
		}
		return segs
	}
	// drainFrom polls 512 at a time until a poll delivers nothing and
	// checks that the records are first..last, dense and in order.
	drainFrom := func(t *testing.T, f *Follower, first, last uint64) {
		t.Helper()
		want := first
		for {
			recs, err := poll(t, f, 512)
			if err != nil {
				t.Fatalf("poll at seq %d: %v", want, err)
			}
			if len(recs) == 0 {
				break
			}
			for _, r := range recs {
				if r.Seq != want {
					t.Fatalf("delivered seq %d, want %d", r.Seq, want)
				}
				want++
			}
		}
		if want != last+1 {
			t.Fatalf("delivered %d..%d, want %d..%d", first, want-1, first, last)
		}
	}

	// firstPoll stops at max mid-segment, with the bytes past it kept.
	firstPoll := func(t *testing.T, f *Follower) {
		t.Helper()
		recs, err := poll(t, f, 512)
		if err != nil || len(recs) != 512 || recs[511].Seq != 512 {
			t.Fatalf("first poll delivered %d records (%v), want 1..512", len(recs), err)
		}
		if len(f.ahead) == 0 {
			t.Fatal("first poll kept no bytes past its max")
		}
	}

	t.Run("appended then rotated", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := openTest(t, Options{Dir: dir, SegmentBytes: int64(headerSize + 700*frame)})
		appendN(t, l, "Q1", 600)
		f := l.Follow(0)
		firstPoll(t, f)          // 513..600 stay in hand
		appendN(t, l, "Q1", 150) // 601..700 into the same segment, 701..750 past a rotation
		if segs := listSegs(t, l); len(segs) != 2 {
			t.Fatalf("segments %v; want two", segs)
		}
		drainFrom(t, f, 513, 750)
	})

	t.Run("torn then rotated", func(t *testing.T) {
		dir := t.TempDir()
		inj := faults.New(3)
		inj.SetDisk(simdisk.New(inj))
		l, _ := openTest(t, Options{Dir: dir, Faults: inj, SegmentBytes: int64(headerSize + 700*frame)})
		appendN(t, l, "Q1", 600)
		f := l.Follow(0)
		firstPoll(t, f) // 513..600 stay in hand
		// Half a frame lands behind the kept bytes, and the log cuts it off.
		inj.Enable(faults.WALShortWrite, 1)
		if _, err := l.Append(testRecord("Q1", 600)); !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("short write returned %v, want the injected error", err)
		}
		inj.Disable(faults.WALShortWrite)
		appendN(t, l, "Q1", 150) // 601..700 into the same segment, 701..750 past a rotation
		if segs := listSegs(t, l); len(segs) != 2 {
			t.Fatalf("segments %v; want two", segs)
		}
		drainFrom(t, f, 513, 750)
	})
}

func TestFollowerEmptyDir(t *testing.T) {
	l, _ := openTest(t, Options{})
	if recs, err := poll(t, l.Follow(0), 10); err != nil || len(recs) != 0 {
		t.Fatalf("empty log poll: %v records, %v", len(recs), err)
	}
}

func TestAppendDecodeFrameRoundTrip(t *testing.T) {
	rec := testRecord("Q9", 13)
	rec.Seq = 77
	buf := AppendFrame([]byte("prefix"), rec)
	recs, err := DecodeFrames(buf[len("prefix"):])
	if err != nil || len(recs) != 1 {
		t.Fatalf("one frame decodes to %d records, %v", len(recs), err)
	}
	if got := recs[0]; got.Seq != rec.Seq || got.Template != rec.Template || got.Plan != rec.Plan ||
		got.Cost != rec.Cost || got.SelfLabeled != rec.SelfLabeled || len(got.Point) != len(rec.Point) {
		t.Errorf("round trip: %+v vs %+v", got, rec)
	}
	// A truncated frame must error, not misparse.
	if recs, err := DecodeFrames(buf[len("prefix") : len(buf)-2]); err == nil || len(recs) != 0 {
		t.Errorf("truncated frame decoded to %d records, %v", len(recs), err)
	}
}
