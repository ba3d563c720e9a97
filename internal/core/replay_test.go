package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lsh"
	"repro/internal/stats"
	"repro/internal/wal"
)

// identityKnots is one valid warp's knot vector.
func identityKnots() []float64 {
	k := lsh.IdentityWarp().Knots()
	return append([]float64(nil), k[:]...)
}

// TestReplayRejectsMisshapenRetune: a retune record whose warp grid is not
// the learner's is stale, like a feedback record of another dimensionality —
// the template changed shape after the record was logged. Before every arm
// of the replay switch asked that question, the retune arm applied any grid
// with valid knots, and this 1×1 record replayed into a 5×3 learner
// panicked in warpInto (index out of range [1] with length 1) while the
// reservoir was re-inserted.
func TestReplayRejectsMisshapenRetune(t *testing.T) {
	cfg := OnlineConfig{Core: Config{Dims: 3, Seed: 4, RetuneEvery: 1 << 30, RetuneReservoir: 64}, Seed: 2}
	o := MustNewOnline(cfg, nil)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 40; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if err := o.LearnValidated(x, i%3, 10+x[0]); err != nil {
			t.Fatal(err)
		}
	}
	if len(o.Predictor().reservoir) == 0 {
		t.Fatal("empty reservoir: a retune would re-insert nothing and the test be vacuous")
	}
	shape := o.Predictor().Config()
	if shape.Transforms == 1 && shape.OutDims == 1 {
		t.Fatal("the learner is 1×1 itself; pick another shape for the record")
	}

	rec := wal.Record{Kind: wal.RecordRetune, Seq: 1, RetuneEpoch: 1, WarpT: 1, WarpS: 1, WarpK: lsh.WarpBins + 1, Warps: identityKnots()}
	applied, skipped, stale := o.ReplayRecords([]wal.Record{rec})
	if applied != 0 || skipped != 0 || stale != 1 {
		t.Fatalf("misshapen retune replayed as %d applied, %d skipped, %d stale; want 0/0/1", applied, skipped, stale)
	}
	if got := o.RetuneEpoch(); got != 0 {
		t.Errorf("RetuneEpoch = %d after a stale retune, want 0", got)
	}
	if got := o.Validated(); got != 40 {
		t.Errorf("Validated = %d after a stale retune, want 40", got)
	}
	o.PredictModel([]float64{0.5, 0.5, 0.5}) // answers: the synopsis is intact

	// The same record in the learner's own shape applies.
	fit := retuneRecord(1, o.Predictor().PrepareRetune())
	fit.Seq = 2
	if applied, _, _ := o.ReplayRecords([]wal.Record{fit}); applied != 1 || o.RetuneEpoch() != 1 {
		t.Fatalf("well-shaped retune: applied %d, epoch %d; want 1, 1", applied, o.RetuneEpoch())
	}
}

// fuzzLearner is the small learner FuzzReplayRecords replays into: two
// dimensions, corrections attached, tuning armed, forty validated points in
// the synopsis and the reservoir.
func fuzzLearner(tb testing.TB) *Online {
	tb.Helper()
	o := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 2, Radius: 0.08, Seed: 5, RetuneEvery: 25, RetuneReservoir: 32},
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
	// Seed with what a live learner logs (feedback, retunes, corrections,
	// interleaved), and with records that do not fit it.
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
	if log.count(wal.RecordRetune) == 0 || log.count(wal.RecordCorrection) == 0 {
		f.Fatal("seed log holds no retune or no correction record")
	}
	var stream []byte
	for i := range log.recs {
		stream = wal.AppendFrame(stream, &log.recs[i])
	}
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	odd := []wal.Record{
		{Kind: wal.RecordRetune, Seq: 1, RetuneEpoch: 1, WarpT: 1, WarpS: 1, WarpK: lsh.WarpBins + 1, Warps: identityKnots()},
		{Kind: wal.RecordRetune, Seq: 2, RetuneEpoch: math.MaxUint64},
		{Kind: wal.RecordFeedback, Seq: 3, Epoch: math.MaxInt64, Plan: -1, Cost: math.NaN(), Point: []float64{math.NaN(), math.Inf(1)}},
		{Kind: wal.RecordFeedback, Seq: 4, Epoch: math.MinInt64, Point: []float64{-3, 7}},
		{Kind: wal.RecordFeedback, Seq: 5, Point: []float64{0.5}},
		{Kind: wal.RecordCorrection, Seq: 6, CorrEpoch: math.MaxUint64, Site: 1, LogC: math.Inf(-1), N: math.MaxUint64, Ref: math.NaN()},
		{Kind: wal.RecordCorrection, Seq: 7, Site: 99},
		{Kind: wal.RecordCorrection, Seq: 0, Site: 0},
		{Kind: wal.RecordFeedback, Seq: 1 << 63, Point: []float64{0.5, 0.5}},
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
