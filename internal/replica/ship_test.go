package replica

// The leader's side of a ship stream on its own: the batches a follower
// polls from a WAL against what a crash recovery reads from its directory,
// and what the loop costs per shipped record.

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/netproto"
	"repro/internal/wal"
)

// appendToFile appends b to the file at path.
func appendToFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// lastSegment returns the path of dir's newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	slices.Sort(segs) // zero-padded names sort by their first sequence
	return segs[len(segs)-1]
}

// randomRecord is a feedback record of one to four dimensions or a
// correction, for one of three templates.
func randomRecord(rng *rand.Rand) *wal.Record {
	tmpl := []string{"Q1", "Q3", "Q8"}[rng.Intn(3)]
	if rng.Intn(3) == 0 {
		return &wal.Record{Kind: wal.RecordCorrection, Template: tmpl, CorrEpoch: uint64(rng.Intn(4)),
			Site: uint32(1 + rng.Intn(5)), LogC: rng.NormFloat64(), N: uint64(rng.Intn(100)), Ref: rng.Float64()}
	}
	point := make([]float64, 1+rng.Intn(4))
	for i := range point {
		point[i] = rng.Float64()
	}
	return &wal.Record{Kind: wal.RecordFeedback, Template: tmpl, Epoch: int64(rng.Intn(3)),
		Plan: int64(rng.Intn(9)), Cost: 100 * rng.Float64(), SelfLabeled: rng.Intn(2) == 0, Point: point}
}

// seededLog writes a WAL directory of small segments: random records, then
// more records from a reopened log, and last a torn final frame.
func seededLog(t *testing.T, seed int64) string {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	opts := wal.Options{Dir: dir, SegmentBytes: int64(256 + rng.Intn(512))}
	appendRandom := func(n int) uint64 {
		l, _, err := wal.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := l.Append(randomRecord(rng)); err != nil {
				t.Fatal(err)
			}
		}
		last := l.LastSeq()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return last
	}

	appendRandom(25 + rng.Intn(20))
	last := appendRandom(25 + rng.Intn(20))
	torn := randomRecord(rng)
	torn.Seq = last + 1
	frame := wal.AppendFrame(nil, torn)
	appendToFile(t, lastSegment(t, dir), frame[:1+rng.Intn(len(frame)-1)])
	return dir
}

// segmentFrames maps each complete frame's sequence number to its bytes in
// dir's segments, walked by the frames' length prefixes alone.
func segmentFrames(t *testing.T, dir string) map[uint64][]byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	frames := make(map[uint64][]byte)
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		b = b[len("PPCWAL\x00")+2:] // magic, u16 version
		for len(b) >= 8 {
			n := 8 + int(binary.LittleEndian.Uint32(b))
			if n > len(b) {
				break
			}
			frames[binary.LittleEndian.Uint64(b[9:])] = b[:n] // u32 len, u32 crc, u8 kind, u64 seq
			b = b[n:]
		}
	}
	return frames
}

// TestShippedEqualsRecovered holds the ship stream to crash recovery: from
// every resume position, the records the batches decode to are the records
// wal.Scan reads past it, field by field, and the batches' frames are those
// records' bytes in the segments — across rotations and up to a torn
// final frame, at batch bounds that split segments.
func TestShippedEqualsRecovered(t *testing.T) {
	for seed, bound := range []int{1, 3, 7, batchMax} {
		dir := seededLog(t, int64(seed))
		scan, err := wal.Scan(dir)
		if err != nil {
			t.Fatal(err)
		}
		if scan.Segments < 3 || scan.TornBytes == 0 || scan.Corrupt {
			t.Fatalf("seed %d: %d segments, %d torn bytes, corrupt %v; want a torn log of several segments",
				seed, scan.Segments, scan.TornBytes, scan.Corrupt)
		}
		frames := segmentFrames(t, dir)
		// Open truncates the torn frame before a follower exists.
		l, _, err := wal.Open(wal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}

		for after := uint64(0); after <= scan.LastSeq; after++ {
			var want []wal.Record
			var wantBytes []byte
			for _, r := range scan.Records {
				if r.Seq > after {
					want = append(want, r)
					wantBytes = append(wantBytes, frames[r.Seq]...)
				}
			}

			f := l.Follow(after)
			var got []wal.Record
			var shipped []byte
			for {
				batch, n, err := f.Poll(nil, bound)
				if err != nil {
					t.Fatalf("seed %d, after %d: %v", seed, after, err)
				}
				recs, err := wal.DecodeFrames(batch)
				if err != nil || len(recs) != n {
					t.Fatalf("seed %d, after %d: batch of %d decodes to %d records, %v", seed, after, n, len(recs), err)
				}
				got, shipped = append(got, recs...), append(shipped, batch...)
				if n < bound {
					break
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, after %d: shipped %d records, recovery reads %d past it:\n got %+v\nwant %+v", seed, after, len(got), len(want), got, want)
			}
			if !bytes.Equal(shipped, wantBytes) {
				t.Fatalf("seed %d, after %d: shipped frames differ from the segments' bytes", seed, after)
			}
			if f.After() != scan.LastSeq {
				t.Fatalf("seed %d, after %d: follower After() = %d, want %d", seed, after, f.After(), scan.LastSeq)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStateTemplatesFollowInstallAndFence: a replica lists the templates of
// the snapshot it installed, and none once fenced to another lineage.
func TestStateTemplatesFollowInstallAndFence(t *testing.T) {
	state := core.MustNewOnline(core.OnlineConfig{Core: core.Config{Dims: 2, Seed: 5}, Seed: 17}, stubEnv{}).EncodeState(nil)
	st := NewState(nil)
	st.Fence(1)
	snap := &netproto.Snapshot{Epoch: 1, Templates: []netproto.TemplateState{{Name: "Q1", State: state}, {Name: "Q3", State: state}}}
	if err := st.Install(snap); err != nil {
		t.Fatal(err)
	}
	names := st.Templates()
	slices.Sort(names)
	if !slices.Equal(names, []string{"Q1", "Q3"}) {
		t.Fatalf("Templates() = %v after installing Q1 and Q3", names)
	}
	if !st.Fence(2) {
		t.Fatal("fencing to another epoch discarded nothing")
	}
	if names := st.Templates(); len(names) != 0 {
		t.Fatalf("Templates() = %v after a fence to another epoch, want none", names)
	}
}

// TestStateRefusesAGap: a batch that does not continue what the state holds
// — its first record past receivedSeq+1, or a jump inside it — is refused
// and changes neither receivedSeq nor the learner; a batch that overlaps it
// applies only what is new, as a twin given exactly that; and an installed
// snapshot's BaseSeq is the position the next batch continues.
func TestStateRefusesAGap(t *testing.T) {
	state := core.MustNewOnline(core.OnlineConfig{Core: core.Config{Dims: 2, Seed: 5}, Seed: 17}, stubEnv{}).EncodeState(nil)
	install := func() *State {
		st := NewState(nil)
		snap := &netproto.Snapshot{Epoch: 1, BaseSeq: 10, Templates: []netproto.TemplateState{{Name: "Q1", State: state}}}
		if err := st.Install(snap); err != nil {
			t.Fatal(err)
		}
		return st
	}
	batch := func(seqs ...uint64) []wal.Record {
		recs := make([]wal.Record, len(seqs))
		for i, seq := range seqs {
			x := float64(seq) / 100
			recs[i] = wal.Record{Kind: wal.RecordFeedback, Seq: seq, Template: "Q1", Plan: int64(seq % 3), Cost: 10, Point: []float64{x, 1 - x}}
		}
		return recs
	}
	apply := func(st *State, recs []wal.Record) int {
		t.Helper()
		applied, _, err := st.ApplyRecords(recs)
		if err != nil {
			t.Fatalf("batch %d..%d: %v", recs[0].Seq, recs[len(recs)-1].Seq, err)
		}
		return applied
	}
	learner := func(st *State) []byte {
		t.Helper()
		b, err := st.EncodeState(nil, "Q1")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	st := install()
	apply(st, batch(11, 12))
	held := learner(st)
	for name, recs := range map[string][]wal.Record{
		"gapped first record":  batch(14, 15),
		"gap inside the batch": batch(13, 15),
	} {
		if _, _, err := st.ApplyRecords(recs); err == nil {
			t.Errorf("%s: applied", name)
		}
		if got := st.ReceivedSeq(); got != 12 {
			t.Errorf("%s: receivedSeq %d after a refused batch, want 12", name, got)
		}
		if !bytes.Equal(learner(st), held) {
			t.Errorf("%s: a refused batch changed the learner", name)
		}
	}

	if applied := apply(st, batch(11, 12, 13, 14)); applied != 2 || st.ReceivedSeq() != 14 {
		t.Fatalf("overlap applied %d records, receivedSeq %d; want 2 and 14", applied, st.ReceivedSeq())
	}
	twin := install()
	apply(twin, batch(11, 12))
	apply(twin, batch(13, 14))
	if !bytes.Equal(learner(st), learner(twin)) {
		t.Fatal("the overlapping batch left a learner unlike its twin's")
	}

	// A snapshot replaces the state wholesale, its position too: one cut
	// below what the state holds moves receivedSeq back to its BaseSeq, so
	// a reconnect asks for the records past the snapshot, not past state
	// the snapshot discarded.
	if err := st.Install(&netproto.Snapshot{Epoch: 1, BaseSeq: 8, Templates: []netproto.TemplateState{{Name: "Q1", State: state}}}); err != nil {
		t.Fatal(err)
	}
	if got := st.ReceivedSeq(); got != 8 {
		t.Fatalf("receivedSeq %d after installing a snapshot at seq 8, want 8", got)
	}
	if applied := apply(st, batch(9, 10)); applied != 2 || st.ReceivedSeq() != 10 {
		t.Fatalf("the tail past the snapshot applied %d records, receivedSeq %d; want 2 and 10", applied, st.ReceivedSeq())
	}
}

// BenchmarkShipLoop times the leader's side of a ship stream: a follower
// catching up on a live WAL of shipRecords records, polled into MsgRecords
// bodies as serveReplica polls them, written to io.Discard.
func BenchmarkShipLoop(b *testing.B) {
	const shipRecords = 4096
	l, _, err := wal.Open(wal.Options{Dir: b.TempDir(), SegmentBytes: 64 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close() //nolint:errcheck
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < shipRecords; i++ {
		rec := &wal.Record{Kind: wal.RecordFeedback, Template: "Q3", Plan: int64(i % 7), Cost: 100 * rng.Float64(), Point: []float64{rng.Float64(), rng.Float64(), rng.Float64()}}
		if i%3 == 2 {
			rec = &wal.Record{Kind: wal.RecordCorrection, Template: "Q3", CorrEpoch: 1, Site: uint32(1 + i%4), LogC: rng.NormFloat64(), N: uint64(i), Ref: 1}
		}
		if _, err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}

	var scratch []byte
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := l.Follow(0)
		for shipped := 0; shipped < shipRecords; {
			var n int
			scratch, n, err = f.Poll(scratch[:0], batchMax)
			if err != nil || n == 0 {
				b.Fatalf("poll after %d of %d records: %d records, %v", shipped, shipRecords, n, err)
			}
			io.Discard.Write(scratch) //nolint:errcheck
			shipped += n
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	shipped := float64(b.N) * shipRecords
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/shipped, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/shipped, "allocs/record")
}
