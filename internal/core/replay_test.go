package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/wal"
)

// memLog is an in-memory wal.Appender: it stamps one shared monotone
// sequence the way the WAL does and keeps every record — feedback and
// corrections interleaved in log order, the order a replica (or recovery)
// must replay in — so what the learner logged replays through
// ReplayRecords.
type memLog struct {
	seq  uint64
	recs []wal.Record
}

func (l *memLog) Append(rec *wal.Record) (uint64, error) {
	l.seq++
	rec.Seq = l.seq
	l.recs = append(l.recs, *rec)
	return l.seq, nil
}

func (l *memLog) Commit() error { return nil }

// count returns how many records of the kind the log holds.
func (l *memLog) count(kind uint8) int {
	n := 0
	for i := range l.recs {
		if l.recs[i].Kind == kind {
			n++
		}
	}
	return n
}

// TestRetiredKindScansShipsAndReplaysStale: a log written by an older build
// holds re-tune records (the retired kind 3) between feedback. Such a
// segment scans, repairs and ships whole — a retired record is read by its
// length, never a place a scan stops or a repair truncates — and replay
// applies the feedback on both sides of it and counts it stale.
func TestRetiredKindScansShipsAndReplaysStale(t *testing.T) {
	dir := t.TempDir()
	feedback := func(x float64) *wal.Record {
		return &wal.Record{Kind: wal.RecordFeedback, Template: "Q1", Plan: 1, Cost: 10, Point: []float64{x, x}}
	}
	l, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(feedback(0.3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The retired record lands after it as the older build framed it: a
	// one-warp grid of two knots.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v; want one", segs, err)
	}
	tail := []byte{1, 0, 1, 0, 2, 0}
	tail = binary.LittleEndian.AppendUint64(tail, math.Float64bits(0))
	tail = binary.LittleEndian.AppendUint64(tail, math.Float64bits(1))
	retired := wal.Record{Kind: wal.RecordRetiredRetune, Seq: 2, Epoch: 1, Template: "Q1", Retired: tail}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(wal.AppendFrame(nil, &retired)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Open's repair pass keeps it, and the next append follows it.
	l, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.TornBytes != 0 || rec.Corrupt {
		t.Fatalf("reopen recovered %d of 2 records (torn %d bytes, corrupt %v: %q)", len(rec.Records), rec.TornBytes, rec.Corrupt, rec.Reason)
	}
	if seq, err := l.Append(feedback(0.6)); err != nil || seq != 3 {
		t.Fatalf("append after the retired record: seq %d, %v; want 3", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	scan, err := wal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Records) != 3 || scan.TornBytes != 0 || scan.Corrupt {
		t.Fatalf("scan found %d of 3 records (torn %d bytes, corrupt %v: %q)", len(scan.Records), scan.TornBytes, scan.Corrupt, scan.Reason)
	}
	if got := scan.Records[1]; !reflect.DeepEqual(got, retired) {
		t.Fatalf("the retired record scans as %+v, want %+v", got, retired)
	}

	// Shipped: a wire batch carries each record's frame.
	var stream []byte
	for i := range scan.Records {
		stream = wal.AppendFrame(stream, &scan.Records[i])
	}
	var shipped []wal.Record
	for len(stream) > 0 {
		r, n, err := wal.DecodeFrame(stream)
		if err != nil {
			t.Fatalf("ship decode stopped after %d records: %v", len(shipped), err)
		}
		shipped, stream = append(shipped, r), stream[n:]
	}
	if !reflect.DeepEqual(shipped, scan.Records) {
		t.Fatalf("shipped %+v, scanned %+v", shipped, scan.Records)
	}

	o := MustNewOnline(OnlineConfig{Core: Config{Dims: 2, Seed: 4}, Seed: 2}, nil)
	if applied, skipped, stale := o.ReplayRecords(shipped); applied != 2 || skipped != 0 || stale != 1 {
		t.Fatalf("replayed as %d applied, %d skipped, %d stale; want 2/0/1", applied, skipped, stale)
	}
	if got := o.Validated(); got != 2 {
		t.Errorf("Validated = %d after replay, want both feedback points", got)
	}
}

// fuzzLearner is the small learner FuzzReplayRecords replays into: two
// dimensions, corrections attached, forty validated points in the
// synopsis.
func fuzzLearner(tb testing.TB) *Online {
	tb.Helper()
	o := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 2, Radius: 0.08, Seed: 5},
		Seed: 17,
	}, nil)
	o.AttachCorrections(stats.NewCorrections(2, stats.CorrConfig{}))
	return o
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// reseal recomputes each frame's checksum (u32 len | u32 crc32c | payload)
// over whatever payload the fuzzer left there, so that a mutation reaches the
// payload decoder and replay instead of dying at the integrity check.
func reseal(data []byte) []byte {
	data = append([]byte(nil), data...)
	for rest := data; len(rest) >= 8; {
		n := int(binary.LittleEndian.Uint32(rest))
		if n < 0 || n > len(rest)-8 {
			break
		}
		binary.LittleEndian.PutUint32(rest[4:], crc32.Checksum(rest[8:8+n], castagnoli))
		rest = rest[8+n:]
	}
	return data
}

// FuzzReplayRecords: whatever frames a log or a ship stream can hold, replay
// never panics and never leaves the learner in a state its own encoder and
// decoder disagree on. The fuzzer's bytes are cut into frames by
// wal.DecodeFrame — so every record has passed the structural checks
// outside bytes get — and replayed into a warm learner; then EncodeState
// must decode and re-encode to the same bytes.
func FuzzReplayRecords(f *testing.F) {
	// Seed with what a live learner logs (feedback and corrections,
	// interleaved), and with records that do not fit it: the retired kind
	// among them.
	leader := fuzzLearner(f)
	log := &memLog{}
	leader.AttachLog(log)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if err := leader.LearnValidated(x, quadrantPlan(x), quadrantCost(x)); err != nil {
			f.Fatal(err)
		}
		leader.ApplyCorrections([]stats.Obs{{Site: 1 + i%2, LogQ: rng.NormFloat64()}})
	}
	if log.count(wal.RecordFeedback) == 0 || log.count(wal.RecordCorrection) == 0 {
		f.Fatal("seed log holds no feedback or no correction record")
	}
	var stream []byte
	for i := range log.recs {
		stream = wal.AppendFrame(stream, &log.recs[i])
	}
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	odd := []wal.Record{
		{Kind: wal.RecordRetiredRetune, Seq: 1, Epoch: 1, Retired: []byte{1, 0, 1, 0, 17, 0}},
		{Kind: wal.RecordRetiredRetune, Seq: 2, Epoch: -1},
		{Kind: wal.RecordFeedback, Seq: 3, Epoch: math.MaxInt64, Plan: -1, Cost: math.NaN(), Point: []float64{math.NaN(), math.Inf(1)}},
		{Kind: wal.RecordFeedback, Seq: 4, Epoch: math.MinInt64, Point: []float64{-3, 7}},
		{Kind: wal.RecordFeedback, Seq: 5, Point: []float64{0.5}},
		{Kind: wal.RecordCorrection, Seq: 6, CorrEpoch: math.MaxUint64, Site: 1, LogC: math.Inf(-1), N: math.MaxUint64, Ref: math.NaN()},
		{Kind: wal.RecordCorrection, Seq: 7, Site: 99},
		{Kind: wal.RecordCorrection, Seq: 0, Site: 0},
		{Kind: wal.RecordFeedback, Seq: 1 << 63, Point: []float64{0.5, 0.5}},
		{Kind: wal.RecordCorrection, Seq: 8, CorrEpoch: 2, Site: 2, LogC: math.NaN(), N: 5, Ref: 0.25},
	}
	for i := range odd {
		f.Add(wal.AppendFrame(nil, &odd[i]))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []wal.Record
		data = reseal(data)
		for len(data) > 0 {
			rec, n, err := wal.DecodeFrame(data)
			if err != nil {
				break
			}
			recs, data = append(recs, rec), data[n:]
		}
		o := fuzzLearner(t)
		warm := rand.New(rand.NewSource(9))
		for i := 0; i < 40; i++ {
			x := []float64{warm.Float64(), warm.Float64()}
			if err := o.LearnValidated(x, quadrantPlan(x), quadrantCost(x)); err != nil {
				t.Fatal(err)
			}
		}
		applied, skipped, stale := o.ReplayRecords(recs)
		if applied+skipped+stale != len(recs) {
			t.Fatalf("%d records replayed as %d applied + %d skipped + %d stale", len(recs), applied, skipped, stale)
		}
		o.PredictModel([]float64{0.3, 0.7})

		var first, second bytes.Buffer
		if err := o.EncodeState(&first); err != nil {
			t.Fatalf("EncodeState after replay: %v", err)
		}
		st, err := decodeOnlineState(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("the replayed learner's own state does not decode: %v", err)
		}
		back := fuzzLearner(t)
		if err := back.install(st); err != nil {
			t.Fatalf("the replayed learner's own state does not install: %v", err)
		}
		if err := back.EncodeState(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("state does not round-trip after replaying %d records: %d bytes became %d", len(recs), first.Len(), second.Len())
		}
	})
}
