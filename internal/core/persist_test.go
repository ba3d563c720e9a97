package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/histogram"
	"repro/internal/stats"
)

func TestApproxLSHHistEncodeDecodeIdenticalPredictions(t *testing.T) {
	p := MustNewApproxLSHHist(Config{Dims: 3, Radius: 0.1, Gamma: 0.7, Seed: 13})
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 3000; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		plan := 0
		if x[0] > 0.5 {
			plan = 1
		}
		if x[1] > 0.7 {
			plan = 2
		}
		p.Insert(Sample{Point: x, Plan: plan, Cost: 5 + x[2]})
	}
	back, _, err := DecodeApproxLSHHist(p.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalPoints() != p.TotalPoints() {
		t.Fatalf("TotalPoints = %d, want %d", back.TotalPoints(), p.TotalPoints())
	}
	if back.MemoryBytes() != p.MemoryBytes() {
		t.Errorf("MemoryBytes = %d, want %d", back.MemoryBytes(), p.MemoryBytes())
	}
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		pa, ca, oka := p.PredictWithCost(x)
		pb, cb, okb := back.PredictWithCost(x)
		if pa != pb || ca != cb || oka != okb {
			t.Fatalf("prediction diverged at %v: %+v/%v/%v vs %+v/%v/%v", x, pa, ca, oka, pb, cb, okb)
		}
	}
	// The restored predictor keeps learning.
	back.Insert(Sample{Point: []float64{0.5, 0.5, 0.5}, Plan: 1, Cost: 5})
	if back.TotalPoints() != p.TotalPoints()+1 {
		t.Error("restored predictor does not accept inserts")
	}
}

func TestApproxLSHHistDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeApproxLSHHist([]byte{9, 9, 9}); err == nil {
		t.Error("garbage accepted")
	}
	p := MustNewApproxLSHHist(Config{Dims: 2, Seed: 1})
	p.Insert(Sample{Point: []float64{0.5, 0.5}, Plan: 1, Cost: 1})
	good := p.Encode(nil)
	for _, cut := range []int{1, 10, len(good) / 2} {
		if _, _, err := DecodeApproxLSHHist(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestDecodeRejectsUnchecksummedVersion: version 2 is the only synopsis
// stream read. Version 1 was the same body with no frame around it — no
// length, no CRC — and the decoder used to take it on the strength of one
// byte, so checkpoint or replica-snapshot bytes whose first byte read 1 were
// deserialized unchecked. Both shapes a damaged stream can take are refused:
// a valid version-2 stream with its version byte rewritten, and the bare
// body behind a 1 (what the old arm accepted).
func TestDecodeRejectsUnchecksummedVersion(t *testing.T) {
	p := MustNewApproxLSHHist(Config{Dims: 2, Seed: 1})
	p.Insert(Sample{Point: []float64{0.5, 0.5}, Plan: 1, Cost: 1})
	good := p.Encode(nil)
	if _, _, err := DecodeApproxLSHHist(good); err != nil {
		t.Fatalf("the fixture itself does not decode: %v", err)
	}
	rewritten := append([]byte{1}, good[1:]...)
	if _, _, err := DecodeApproxLSHHist(rewritten); err == nil {
		t.Error("a version-2 stream with its version byte rewritten to 1 was accepted")
	}
	const frameHeader = 1 + 8 + 4 // version, body length, CRC-32C
	unframed := append([]byte{1}, good[frameHeader:]...)
	if _, _, err := DecodeApproxLSHHist(unframed); err == nil {
		t.Error("an unframed, unchecksummed version-1 body was accepted")
	}
}

// TestNoiseFlagZeroRestoresOff: the synopsis header's noise flag byte
// carries the sign of NoiseFraction and the fraction field its magnitude. A
// stream with the flag at 0 — written by a predictor with a negative
// fraction, or over a stored positive or zero fraction — restores with noise
// elimination off and predicts as the predictor that never had it.
func TestNoiseFlagZeroRestoresOff(t *testing.T) {
	const frameHeader = 1 + 8 + 4        // version, body length, CRC-32C
	const fractionAt = frameHeader + 6*8 // after dims, outDims, transforms, histBuckets, radius, gamma
	const flagAt = fractionAt + 8
	// A dense plan plus one straggler of another: noise elimination is what
	// lets the dense plan win at the straggler's point.
	train := func(fraction float64) (*ApproxLSHHist, []byte) {
		p := MustNewApproxLSHHist(Config{Dims: 2, Radius: 0.1, Gamma: 0.9, Seed: 5, NoiseFraction: fraction})
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 3000; i++ {
			p.Insert(Sample{Point: []float64{rng.Float64(), rng.Float64()}, Plan: 0, Cost: 1})
		}
		p.Insert(Sample{Point: []float64{0.5, 0.5}, Plan: 1, Cost: 1})
		return p, p.Encode(nil)
	}
	on, onBytes := train(0.005)
	off, offBytes := train(-0.005)
	at := []float64{0.5, 0.5}
	if on.Predict(at) == off.Predict(at) {
		t.Fatal("noise elimination decides nothing at the straggler; the test is vacuous")
	}
	if onBytes[flagAt] != 1 || offBytes[flagAt] != 0 ||
		!bytes.Equal(onBytes[frameHeader:flagAt], offBytes[frameHeader:flagAt]) ||
		!bytes.Equal(onBytes[flagAt+1:], offBytes[flagAt+1:]) {
		t.Fatal("the fraction's sign is not carried by the flag byte alone")
	}
	// rewrite stores a fraction and a flag over the noise-on stream.
	rewrite := func(fraction float64, flag byte) []byte {
		b := append([]byte(nil), onBytes...)
		binary.LittleEndian.PutUint64(b[fractionAt:], math.Float64bits(fraction))
		b[flagAt] = flag
		binary.LittleEndian.PutUint32(b[1+8:], crc32.Checksum(b[frameHeader:], persistCRC))
		return b
	}
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		{"negative fraction", offBytes},
		{"positive fraction, flag cleared", rewrite(0.005, 0)},
		{"zero fraction, flag cleared", rewrite(0, 0)},
	} {
		back, _, err := DecodeApproxLSHHist(tc.stream)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if f := back.Config().NoiseFraction; !(f < 0) {
			t.Errorf("%s: restored NoiseFraction %v, want negative (off)", tc.name, f)
		}
		if got, want := back.Predict(at), off.Predict(at); got != want {
			t.Errorf("%s: restored predicts %+v, noise-off predictor %+v", tc.name, got, want)
		}
	}
	if back, _, err := DecodeApproxLSHHist(rewrite(0.005, 1)); err != nil || back.Predict(at) != on.Predict(at) {
		t.Errorf("flag at 1 did not restore noise elimination on (err %v)", err)
	}
}

func TestOnlineEncodeDecodeState(t *testing.T) {
	env := &quadrantEnv{wrongFactor: 3}
	o := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		Seed: 17,
	}, env)
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 600; i++ {
		mustStep(t, o, []float64{rng.Float64(), rng.Float64()})
	}
	buf := o.EncodeState(nil)
	o2 := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
		Seed: 17,
	}, env)
	if err := o2.DecodeState(buf); err != nil {
		t.Fatal(err)
	}
	if o2.Validated() != o.Validated() || o2.Predictor().TotalPoints() != o.Predictor().TotalPoints() {
		t.Errorf("counters: %d/%d vs %d/%d", o2.Validated(), o2.Predictor().TotalPoints(),
			o.Validated(), o.Predictor().TotalPoints())
	}
	// The restored driver must predict immediately (no warm-up), at the
	// same rate as the original driver continuing side by side.
	origHits, restoredHits := 0, 0
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if mustStep(t, o, x).CacheHit {
			origHits++
		}
		if mustStep(t, o2, x).CacheHit {
			restoredHits++
		}
	}
	if restoredHits < origHits-30 {
		t.Errorf("restored driver hit %d/300 vs original %d/300", restoredHits, origHits)
	}
	if restoredHits == 0 {
		t.Error("restored driver never hit; warm state lost")
	}
	// Dimension mismatch must be rejected.
	o3 := MustNewOnline(OnlineConfig{Core: Config{Dims: 3, Seed: 5}, Seed: 17}, env)
	if err := o3.DecodeState(buf); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

// DecodeState adopts the saved learner's shape, not the receiving Online's:
// a state of seven transforms projecting to two dimensions, decoded into an
// Online configured for five projecting to three, predicts through that
// Online's pooled scratch bit-equal to the model it was saved from.
func TestDecodeStateOfAnotherShapePredictsAsSaved(t *testing.T) {
	src := MustNewOnline(OnlineConfig{
		Core: Config{Dims: 3, OutDims: 2, Transforms: 7, Radius: 0.1, Gamma: 0.6, Seed: 9},
		Seed: 3,
	}, nil)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 2000; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if err := src.LearnValidated(x, 10*int(x[0]*2), 50+x[1]); err != nil {
			t.Fatal(err)
		}
	}
	buf := src.EncodeState(nil)
	dst := MustNewOnline(OnlineConfig{Core: Config{Dims: 3, Seed: 9}, Seed: 3}, nil)
	if got := dst.Model().Config(); got.Transforms == 7 || got.OutDims == 2 {
		t.Fatalf("the receiving shape (t=%d, s=%d) is the saved one; the test is vacuous", got.Transforms, got.OutDims)
	}
	dst.PredictModel([]float64{0.5, 0.5, 0.5}) // pool a scratch of the receiving shape
	if err := dst.DecodeState(buf); err != nil {
		t.Fatal(err)
	}
	want, sc := src.Model(), NewPredictScratch(src.Model().Config())
	hits := 0
	for i := 0; i < 300; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		wp, wc, wok := want.PredictWithCost(x, sc)
		gp, gc, gok := dst.PredictModel(x)
		if gp != wp || gok != wok || math.Float64bits(gc) != math.Float64bits(wc) {
			t.Fatalf("point %v: restored (%+v, %v, %v) != saved (%+v, %v, %v)", x, gp, gc, gok, wp, wc, wok)
		}
		if wp.OK {
			hits++
		}
	}
	if hits == 0 {
		t.Error("the saved model never predicted; the comparison is vacuous")
	}
}

// The predict query ranks from 0 and clamps quantiles to 1, so a synopsis
// histogram over any other domain is a corrupt image, not a model. A plan
// held by some transforms only is legal (and predicts like the reference).
func TestDecodeDomainAndRaggedPlans(t *testing.T) {
	p := trainedPredictor(t, 300)
	delete(p.hists[1], 2) // transform 1 never saw plan 2
	back, _, err := DecodeApproxLSHHist(p.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if m := back.Freeze(); m.Plans() != 4 || m.blocks[2*5+1] != (block{}) || m.blocks[2*5].f == nil {
		t.Fatalf("ragged plan set not preserved: %d plans, plan 2's blocks %v", m.Plans(), m.blocks[2*5:3*5])
	}
	rng := rand.New(rand.NewSource(5))
	var points [][]float64
	for i := 0; i < 200; i++ {
		points = append(points, []float64{rng.Float64(), rng.Float64()})
	}
	checkAgainstReference(t, back, points)

	p.hists[0][0] = histogram.MustNewDynamic(40, 0, 2)
	if _, _, err := DecodeApproxLSHHist(p.Encode(nil)); err == nil {
		t.Error("histogram over [0,2) accepted")
	}
}

// TestStateSectionsReadThroughOneTable: the optional sections after the
// counter trailer are `tag | len | body` entries read through stateSections.
// A stream with the corrections section decodes and re-encodes to the same
// bytes; an unknown tag, a repeated one and a section cut short are errors.
func TestStateSectionsReadThroughOneTable(t *testing.T) {
	o := MustNewOnline(OnlineConfig{Core: Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5}}, nil)
	o.AttachCorrections(stats.NewCorrections(2))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 120; i++ {
		if err := o.LearnValidated([]float64{rng.Float64(), rng.Float64()}, i%3, 10); err != nil {
			t.Fatal(err)
		}
	}
	state := o.EncodeState(nil)
	back, err := NewReplicaOnline(state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state, back.EncodeState(nil)) {
		t.Fatal("decode → encode moved the state bytes")
	}

	// Locate the section: after the synopsis frame and the trailer.
	first := 1 + 8 + 4 + int(binary.LittleEndian.Uint64(state[1:])) + 32
	if got, end := binary.LittleEndian.Uint32(state[first:]), first+8+int(binary.LittleEndian.Uint32(state[first+4:])); got != 1 || end != len(state) {
		t.Fatalf("section tag %d ending at %d of %d bytes; want corrections (1) alone", got, end, len(state))
	}
	section := func(tag uint32, body []byte) []byte {
		return append(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, tag), uint32(len(body))), body...)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, bad := range map[string][]byte{
		"unknown tag":        cat(state, section(9, []byte{1})),
		"repeated section":   cat(state, state[first:]),
		"section cut short":  state[:len(state)-1],
		"header cut short":   cat(state, []byte{2, 0}),
		"body past the tail": cat(state[:first], section(1, nil)[:4], []byte{0xff, 0xff, 0, 0}),
	} {
		if _, err := NewReplicaOnline(bad); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestDecodeChecksDeclaredCountsBeforeAllocating: a synopsis body's counts
// are u32s read before the data they count, and a checksum only proves the
// bytes arrived as written. Each stream here is CRC-valid and declares more
// than it holds — 2^20 buckets, 2^14 transforms, 2^30 plans — or a point
// wider than the u16 dimension count the WAL and the wire carry, or more
// projection weights than Config allows, which the body never stores. Each
// is refused by the check its count meets, and none allocates as if its
// count were true: the decoder that sized by the count allocated 33.6 MB
// for the buckets and 5.9 MB for the transforms before it hit the end of
// the stream.
func TestDecodeChecksDeclaredCountsBeforeAllocating(t *testing.T) {
	le := binary.LittleEndian
	// synopsis frames a body of the given dims and transform count (config
	// and declared count alike) followed by tail.
	synopsis := func(dims int64, transforms uint32, tail []byte) []byte {
		var body []byte
		for _, v := range []int64{dims, 2, int64(transforms), 40} {
			body = le.AppendUint64(body, uint64(v))
		}
		for _, v := range []float64{0.1, 0.8, 0.05} {
			body = le.AppendUint64(body, math.Float64bits(v))
		}
		body = append(body, 1)
		for _, v := range []int64{20, 5, 0} {
			body = le.AppendUint64(body, uint64(v))
		}
		body = append(le.AppendUint32(body, transforms), tail...)
		frame := le.AppendUint32(le.AppendUint64([]byte{persistVersion}, uint64(len(body))), crc32.Checksum(body, persistCRC))
		return append(frame, body...)
	}
	// histHeader is a histogram's fixed block declaring n buckets.
	histHeader := func(n uint32) []byte {
		b := le.AppendUint32([]byte{1}, n)
		for _, v := range []float64{0, 1, 0} {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		return le.AppendUint32(b, n)
	}
	// oneTransform is a marginal of one empty bucket over [0,1) and a plan
	// count of n.
	oneTransform := func(n uint32) []byte {
		b := histHeader(1)
		for _, v := range []float64{0, 1, 0, 0} {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		return le.AppendUint32(b, n)
	}
	if _, _, err := DecodeApproxLSHHist(synopsis(2, 1, oneTransform(0))); err != nil {
		t.Fatalf("the well-formed stream the cases are cut from does not decode: %v", err)
	}
	for _, c := range []struct {
		name, refusal string
		stream        []byte
	}{
		// Padded to the least one transform takes, so the bucket count is
		// what is refused.
		{"2^20 buckets", "buckets declared", synopsis(2, 1, append(histHeader(1<<20), make([]byte, 36)...))},
		{"2^14 transforms", "transforms declared", synopsis(2, 1<<14, histHeader(1))},
		{"2^30 plans", "plans declared", synopsis(2, 1, oneTransform(1<<30))},
		{"2^16 dims", "Dims", synopsis(1<<16, 1, oneTransform(0))},
		{"2^21 projection weights", "projection weights", synopsis(1<<16-1, 16, oneTransform(0))},
	} {
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, _, err := DecodeApproxLSHHist(c.stream); err == nil || !strings.Contains(err.Error(), c.refusal) {
				t.Fatalf("%s: a %d-byte stream decoded with error %v, want one naming %q", c.name, len(c.stream), err, c.refusal)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
			t.Errorf("%s: rejecting a %d-byte stream allocated %d bytes", c.name, len(c.stream), per)
		}
	}
}
