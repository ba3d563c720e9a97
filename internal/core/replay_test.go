package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/wal"
)

// memLog is an in-memory wal.Appender: it stamps one shared monotone
// sequence the way the WAL does and keeps every record — feedback and
// corrections interleaved in log order, the order a replica (or recovery)
// must replay in — so what the learner logged replays through
// ReplayRecords. It counts group commits.
type memLog struct {
	seq     uint64
	recs    []wal.Record
	commits int
}

func (l *memLog) Append(rec *wal.Record) (uint64, error) {
	l.seq++
	rec.Seq = l.seq
	l.recs = append(l.recs, *rec)
	return l.seq, nil
}

func (l *memLog) Commit() error {
	l.commits++
	return nil
}

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

// TestApplyBatchIsOneWrite: one apply batch carrying feedback points and
// several runs' observations is one write of the learner — one group
// commit, each point logged, and one correction record per touched site
// holding its post-batch state — and folds the observations exactly as
// applying the runs one by one would: every site's EWMA and count, and so
// its factor, bit-equal.
func TestApplyBatchIsOneWrite(t *testing.T) {
	runs := [][]stats.Obs{
		{{Site: 1, LogQ: 0.7}, {Site: 2, LogQ: -0.3}},
		{{Site: 2, LogQ: 1.9}, {Site: 1, LogQ: 0.1}, {Site: 2, LogQ: math.NaN()}},
		{{Site: 1, LogQ: -2.2}, {Site: 9, LogQ: 1}},
	}
	var obs []stats.Obs
	for _, run := range runs {
		obs = append(obs, run...)
	}
	points := []Feedback{
		{Point: []float64{0.2, 0.3}, Plan: 1, Cost: 10},
		{Point: []float64{0.6, 0.1}, Plan: 2, Cost: 20},
	}

	batched, log := fuzzLearner(t), &memLog{}
	batched.AttachLog(log)
	for i := 0; i < 3; i++ { // past the cold-start passthrough
		batched.ApplyBatch(nil, obs)
	}
	log.recs, log.commits = nil, 0
	if applied := batched.ApplyBatch(points, obs); applied != len(points) {
		t.Fatalf("%d of %d points applied", applied, len(points))
	}
	if log.commits != 1 {
		t.Errorf("one apply batch made %d commits, want 1", log.commits)
	}
	if fb, corr := log.count(wal.RecordFeedback), log.count(wal.RecordCorrection); fb != 2 || corr != 2 {
		t.Errorf("one apply batch logged %d feedback and %d correction records, want 2 and one per touched site (2)", fb, corr)
	}

	oneByOne := fuzzLearner(t)
	for i := 0; i < 4; i++ {
		for _, run := range runs {
			oneByOne.ApplyBatch(nil, run)
		}
	}
	_, want := oneByOne.corr.State()
	_, got := batched.corr.State()
	for i := range want {
		if math.Float64bits(got[i].LogC) != math.Float64bits(want[i].LogC) || got[i].N != want[i].N {
			t.Errorf("site %d batched to logc %v n %d, run by run to logc %v n %d", i+1, got[i].LogC, got[i].N, want[i].LogC, want[i].N)
		}
		if f, w := batched.corr.Factor(i+1), oneByOne.corr.Factor(i+1); math.Float64bits(f) != math.Float64bits(w) {
			t.Errorf("site %d factor %v batched, %v run by run", i+1, f, w)
		}
	}
	for _, r := range log.recs {
		if r.Kind == wal.RecordCorrection && (r.LogC != got[r.Site-1].LogC || r.N != got[r.Site-1].N || r.Ref != got[r.Site-1].Ref) {
			t.Errorf("site %d logged %+v, holds %+v", r.Site, r, got[r.Site-1])
		}
	}
}

// TestTryObserveFoldsWithoutAllocating: a run's fold of its own
// observations is ApplyBatch's correction half — run by run, every site's
// EWMA, count and reference, the epoch, and each factor to the bit, equal
// to a twin fed the same runs through ApplyBatch — it publishes and inserts
// nothing, and it allocates nothing. It declines, touching nothing, when
// the learner lock is held, a log is attached, no corrections are attached
// or there is nothing to fold.
func TestTryObserveFoldsWithoutAllocating(t *testing.T) {
	runs := [][]stats.Obs{
		{{Site: 1, LogQ: 0.7}, {Site: 2, LogQ: -0.3}},
		{{Site: 2, LogQ: 1.9}, {Site: 1, LogQ: 0.1}, {Site: 2, LogQ: math.NaN()}},
		{{Site: 1, LogQ: -2.2}, {Site: 9, LogQ: 1}},
		{{Site: 1, LogQ: 3}, {Site: 2, LogQ: 3}},
	}
	folded, applied := fuzzLearner(t), fuzzLearner(t)
	for i := 0; i < 5; i++ {
		for _, run := range runs {
			if !folded.TryObserve(run) {
				t.Fatal("TryObserve declined on a free, log-free learner")
			}
			applied.ApplyBatch(nil, run)
		}
	}
	wantEpoch, want := applied.corr.State()
	gotEpoch, got := folded.corr.State()
	if wantEpoch == 0 || gotEpoch != wantEpoch {
		t.Errorf("folded to epoch %d, applied to %d (want equal and past 0)", gotEpoch, wantEpoch)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("folded to %+v, applied to %+v", got, want)
	}
	for site := 1; site <= 2; site++ {
		if f, w := folded.corr.Factor(site), applied.corr.Factor(site); math.Float64bits(f) != math.Float64bits(w) {
			t.Errorf("site %d factor %v folded, %v applied", site, f, w)
		}
	}
	if folded.Publishes() != 0 || folded.Validated() != 0 {
		t.Errorf("a fold published (%d snapshots) or inserted (%d points)", folded.Publishes(), folded.Validated())
	}

	declines := func(name string, o *Online, obs []stats.Obs) {
		t.Helper()
		var before []stats.SiteState
		if o.corr != nil {
			_, before = o.corr.State()
		}
		if o.TryObserve(obs) {
			t.Errorf("%s: TryObserve folded", name)
		}
		if o.corr != nil {
			if _, after := o.corr.State(); !reflect.DeepEqual(after, before) {
				t.Errorf("%s: a declined fold moved the corrections", name)
			}
		}
	}
	held := fuzzLearner(t)
	held.mu.Lock()
	declines("learner lock held", held, runs[0])
	held.mu.Unlock()
	logged, lg := fuzzLearner(t), &memLog{}
	logged.AttachLog(lg)
	declines("log attached", logged, runs[0])
	if len(lg.recs) != 0 || lg.commits != 0 {
		t.Errorf("a declined fold logged %d records and %d commits", len(lg.recs), lg.commits)
	}
	declines("no corrections", MustNewOnline(OnlineConfig{Core: Config{Dims: 2, Seed: 5}}, nil), runs[0])
	declines("nothing to fold", fuzzLearner(t), nil)

	if raceEnabled {
		return // the race detector's shadow memory inflates allocation counts
	}
	if allocs := testing.AllocsPerRun(500, func() { folded.TryObserve(runs[1]) }); allocs != 0 {
		t.Errorf("TryObserve allocates %v per fold, want 0", allocs)
	}
}

// TestCorrectionsReplayReconstructsState: the correction records a learner
// logs replay, in log order, into a fresh learner's corrections as exactly
// the pre-crash state — epoch, watermark, every site, every factor — since
// each carries absolute state. A second replay applies nothing; a record
// for a site beyond the shape is stale and leaves the watermark; one with
// non-finite state is skipped with the watermark advanced over it.
func TestCorrectionsReplayReconstructsState(t *testing.T) {
	lg := &memLog{}
	leader := fuzzLearner(t)
	leader.AttachLog(lg)
	for i := 0; i < 10; i++ {
		leader.ApplyBatch(nil, []stats.Obs{
			{Site: 1, LogQ: math.Log(3)},
			{Site: 2, LogQ: -math.Log(2) * float64(i%3)},
		})
	}
	wantEpoch, wantSites := leader.corr.State()
	wantSeq := leader.AppliedSeq()
	if wantSeq == 0 || wantEpoch == 0 || lg.count(wal.RecordCorrection) != 20 {
		t.Fatalf("logged %d correction records to watermark %d at epoch %d; test is vacuous", lg.count(wal.RecordCorrection), wantSeq, wantEpoch)
	}

	fresh := fuzzLearner(t)
	if applied, skipped, stale := fresh.ReplayRecords(lg.recs); applied != 20 || skipped != 0 || stale != 0 {
		t.Fatalf("replayed as %d applied, %d skipped, %d stale; want 20/0/0", applied, skipped, stale)
	}
	gotEpoch, gotSites := fresh.corr.State()
	gotSeq := fresh.AppliedSeq()
	if gotEpoch != wantEpoch || gotSeq != wantSeq || !reflect.DeepEqual(gotSites, wantSites) {
		t.Fatalf("replayed (epoch %d, seq %d, %+v), want (%d, %d, %+v)", gotEpoch, gotSeq, gotSites, wantEpoch, wantSeq, wantSites)
	}
	for s := 1; s <= 2; s++ {
		if fresh.corr.Factor(s) != leader.corr.Factor(s) {
			t.Fatalf("site %d factor %v, want %v", s, fresh.corr.Factor(s), leader.corr.Factor(s))
		}
	}

	if applied, skipped, _ := fresh.ReplayRecords(lg.recs); applied != 0 || skipped != 20 {
		t.Fatalf("second replay: %d applied, %d skipped; the watermark was not honored", applied, skipped)
	}
	odd := []wal.Record{
		{Kind: wal.RecordCorrection, Seq: wantSeq + 1, Site: 99, LogC: 1, N: 5},
		{Kind: wal.RecordCorrection, Seq: wantSeq + 2, Site: 1, LogC: math.NaN(), N: 9},
		{Kind: wal.RecordCorrection, Seq: wantSeq + 3, Site: 2, LogC: 0.5, N: 9, Ref: math.Inf(1)},
	}
	if applied, skipped, stale := fresh.ReplayRecords(odd); applied != 0 || skipped != 2 || stale != 1 {
		t.Fatalf("odd records replayed as %d applied, %d skipped, %d stale; want 0/2/1", applied, skipped, stale)
	}
	if _, sites := fresh.corr.State(); fresh.AppliedSeq() != wantSeq+3 || !reflect.DeepEqual(sites, wantSites) {
		t.Fatalf("after odd records: watermark %d (want %d), sites %+v (want %+v)", fresh.AppliedSeq(), wantSeq+3, sites, wantSites)
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
	o.AttachCorrections(stats.NewCorrections(2))
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
// wal.DecodeFrames — so every record has passed the structural checks
// outside bytes get — and replayed into a warm learner; then EncodeState
// must decode and re-encode to the same bytes.
func FuzzReplayRecords(f *testing.F) {
	// Seed with what a live learner logs (feedback and corrections,
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
		leader.ApplyBatch(nil, []stats.Obs{{Site: 1 + i%2, LogQ: rng.NormFloat64()}})
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
	// The log replayed twice (the second pass is skips only) and in reverse
	// (every record after the first is at or below the watermark).
	f.Add(append(append([]byte(nil), stream...), stream...))
	var reversed []byte
	for i := len(log.recs) - 1; i >= 0; i-- {
		reversed = wal.AppendFrame(reversed, &log.recs[i])
	}
	f.Add(reversed)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _ := wal.DecodeFrames(reseal(data)) // the records before the first invalid frame
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

		first := o.EncodeState(nil)
		st, err := decodeOnlineState(first)
		if err != nil {
			t.Fatalf("the replayed learner's own state does not decode: %v", err)
		}
		back := fuzzLearner(t)
		if err := back.install(st); err != nil {
			t.Fatalf("the replayed learner's own state does not install: %v", err)
		}
		second := back.EncodeState(nil)
		if !bytes.Equal(first, second) {
			t.Fatalf("state does not round-trip after replaying %d records: %d bytes became %d", len(recs), len(first), len(second))
		}
	})
}

// TestDriftResetLabelIsStale: the label of the step whose verdict trips the
// precision floor carries the epoch the reset just ended, so Step's apply
// drops it as stale — StaleFeedbackDrops counts it, Validated does not —
// rather than inserting a point the reset then erases. The log holds what
// the learner applied, so replaying it into a fresh learner rebuilds the
// same state, byte for byte.
func TestDriftResetLabelIsStale(t *testing.T) {
	cfg := OnlineConfig{
		Core:           Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		WindowK:        50,
		PrecisionFloor: 0.5,
		Seed:           19,
	}
	env := &quadrantEnv{wrongFactor: 5}
	o := MustNewOnline(cfg, env)
	log := &memLog{}
	o.AttachLog(log)
	rng := rand.New(rand.NewSource(15))
	step := func() Decision {
		return mustStep(t, o, []float64{rng.Float64(), rng.Float64()})
	}
	for i := 0; i < 1500; i++ {
		step()
	}
	env.shift = true
	resets := 0
	for i := 0; i < 600; i++ {
		validated, drops := o.Validated(), o.StaleFeedbackDrops()
		d := step()
		if !d.DriftReset {
			continue
		}
		resets++
		if d.Label.Point == nil || d.Label.Epoch != o.Epoch()-1 {
			t.Fatalf("the tripping step's label is %+v, want one from epoch %d", d.Label, o.Epoch()-1)
		}
		if o.Validated() != validated || o.StaleFeedbackDrops() != drops+1 {
			t.Fatalf("tripping step: validated %d → %d, stale drops %d → %d; want the label counted stale",
				validated, o.Validated(), drops, o.StaleFeedbackDrops())
		}
	}
	if resets == 0 {
		t.Fatal("drift recovery never fired after the plan space shifted")
	}
	// Learn past the last reset, so the log's newest epoch is the learner's.
	for d := step(); !d.Invoked || d.DriftReset; d = step() {
	}

	replayed := MustNewOnline(cfg, nil)
	if _, _, stale := replayed.ReplayRecords(log.recs); stale != 0 {
		t.Fatalf("replay counted %d records stale, want 0: no stale label is logged", stale)
	}
	live, back := o.EncodeState(nil), replayed.EncodeState(nil)
	if !bytes.Equal(live, back) {
		t.Fatalf("live state (%d bytes) differs from the replay of its log (%d bytes)", len(live), len(back))
	}
}
