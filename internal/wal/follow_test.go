package wal

// Tests for the live-tail Follower the replication ship loop runs: catch-up
// over existing segments, rotation handoff, compaction racing the tail
// (ErrCompacted), and in-flight torn tails that must be retried, never
// delivered.

import (
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
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
	var recs []Record
	for len(frames) > 0 {
		rec, size, derr := DecodeFrame(frames)
		if derr != nil {
			t.Fatalf("poll returned an invalid frame after %d records: %v", len(recs), derr)
		}
		recs, frames = append(recs, rec), frames[size:]
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

	f := NewFollower(l.Dir(), 0)
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

	f := NewFollower(l.Dir(), 12)
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
	f := NewFollower(l.Dir(), 3)
	if _, err := poll(t, f, 100); !errors.Is(err, ErrCompacted) {
		t.Fatalf("poll below the compaction floor: %v, want ErrCompacted", err)
	}

	// From the floor itself the tail still works.
	first := l.FirstSeq()
	f2 := NewFollower(l.Dir(), first-1)
	recs := drain(t, f2)
	if len(recs) == 0 || recs[0].Seq != first {
		t.Fatalf("tail from floor %d delivered %d records", first, len(recs))
	}
}

func TestFollowerCompactionMidTail(t *testing.T) {
	l, _ := openTest(t, Options{Dir: t.TempDir(), SegmentBytes: 256})
	appendN(t, l, "Q1", 10)
	f := NewFollower(l.Dir(), 0)
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

// TestFollowerTornTailNotDelivered truncates the live segment mid-frame —
// the on-disk state during an in-flight append or after a crash. The
// follower must hold the partial frame back and deliver it only once the
// bytes are complete.
func TestFollowerTornTailNotDelivered(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, Options{Dir: dir})
	appendN(t, l, "Q1", 5)

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	seg := segs[len(segs)-1]
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	// Copy the live segment into a fresh dir, torn 3 bytes short.
	tornDir := t.TempDir()
	torn := filepath.Join(tornDir, filepath.Base(seg))
	if err := os.WriteFile(torn, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	f := NewFollower(tornDir, 0)
	recs, err := poll(t, f, 100)
	if err != nil {
		t.Fatalf("poll over a torn live tail: %v", err)
	}
	if len(recs) != 4 {
		t.Fatalf("torn tail delivered %d records, want 4 complete ones", len(recs))
	}

	// The append "completes": the rest of the bytes land. The held-back
	// record is delivered exactly once.
	if err := os.WriteFile(torn, full, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = poll(t, f, 100)
	if err != nil || len(recs) != 1 || recs[0].Seq != 5 {
		t.Fatalf("completed tail delivered %v (%v), want seq 5", recs, err)
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

	rec, err := Scan(dir)
	if err != nil || len(rec.Records) != 3 || rec.TornBytes != int64(len(bad)) {
		t.Fatalf("scan read %d records and %d torn bytes (%v); want 3 and the %d-byte frame", len(rec.Records), rec.TornBytes, err, len(bad))
	}
	if got := len(drain(t, NewFollower(dir, 0))); got != 3 {
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
	l, _ := openTest(t, Options{Dir: dir, Sync: SyncNever, SegmentBytes: 1 << 30})
	rec := testRecord("Q1", 1)
	frame := int64(len(AppendFrame(nil, rec)))
	n := int((2<<20)/frame) + 1
	for i := 0; i < n; i++ {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	f := NewFollower(dir, 0)
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
	l, _ := openTest(t, Options{Dir: dir, Sync: SyncNever, SegmentBytes: 1 << 30})
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
	f := NewFollower(dir, 0)
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
// the segment as it was then, not its end. Records appended to the same
// segment before a rotation, and a frame that was still being written when
// the bytes were read, are delivered in order once the next segment exists:
// none is skipped and the follower does not report ErrCompacted.
func TestFollowerReadsOnPastItsCache(t *testing.T) {
	frame := len(AppendFrame(nil, testRecord("Q1", 0)))
	segments := func(t *testing.T, dir string) []string {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
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
		l, _ := openTest(t, Options{Dir: dir, Sync: SyncNever, SegmentBytes: int64(headerSize + 700*frame)})
		appendN(t, l, "Q1", 600)
		f := NewFollower(dir, 0)
		firstPoll(t, f)          // 513..600 stay in hand
		appendN(t, l, "Q1", 150) // 601..700 into the same segment, 701..750 past a rotation
		if segs := segments(t, dir); len(segs) != 2 {
			t.Fatalf("segments %v; want two", segs)
		}
		drainFrom(t, f, 513, 750)
	})

	t.Run("torn then rotated", func(t *testing.T) {
		src := t.TempDir()
		l, _ := openTest(t, Options{Dir: src, Sync: SyncNever, SegmentBytes: int64(headerSize + 600*frame)})
		appendN(t, l, "Q1", 650)
		segs := segments(t, src)
		if len(segs) != 2 {
			t.Fatalf("segments %v; want two", segs)
		}
		first, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		// The follower reads the first segment while its last frame is
		// being written, and stops at max before reaching it.
		dir := t.TempDir()
		dst := filepath.Join(dir, filepath.Base(segs[0]))
		if err := os.WriteFile(dst, first[:len(first)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		f := NewFollower(dir, 0)
		firstPoll(t, f) // 513..599 and the torn frame stay in hand
		// The frame lands and the writer rotates.
		if err := os.WriteFile(dst, first, 0o644); err != nil {
			t.Fatal(err)
		}
		second, err := os.ReadFile(segs[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[1])), second, 0o644); err != nil {
			t.Fatal(err)
		}
		drainFrom(t, f, 513, 650)
	})
}

func TestFollowerEmptyDir(t *testing.T) {
	f := NewFollower(t.TempDir(), 0)
	if recs, err := poll(t, f, 10); err != nil || len(recs) != 0 {
		t.Fatalf("empty dir poll: %v records, %v", len(recs), err)
	}
}

func TestAppendDecodeFrameRoundTrip(t *testing.T) {
	rec := testRecord("Q9", 13)
	rec.Seq = 77
	buf := AppendFrame([]byte("prefix"), rec)
	got, n, err := DecodeFrame(buf[len("prefix"):])
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf)-len("prefix") {
		t.Errorf("frame length %d, consumed %d", len(buf)-len("prefix"), n)
	}
	if got.Seq != rec.Seq || got.Template != rec.Template || got.Plan != rec.Plan ||
		got.Cost != rec.Cost || got.SelfLabeled != rec.SelfLabeled || len(got.Point) != len(rec.Point) {
		t.Errorf("round trip: %+v vs %+v", got, rec)
	}
	// A truncated frame must error, not misparse.
	if _, _, err := DecodeFrame(buf[len("prefix") : len(buf)-2]); err == nil {
		t.Error("truncated frame decoded")
	}
}
