package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestCorrectionsColdStartPassthrough(t *testing.T) {
	c := NewCorrections(2)
	if f := c.Factor(1); f != 1 {
		t.Fatalf("cold factor = %v, want identity", f)
	}
	// Two observations: still below MinObs, still identity.
	c.Apply([]Obs{{Site: 1, LogQ: math.Log(4)}})
	c.Apply([]Obs{{Site: 1, LogQ: math.Log(4)}})
	if f := c.Factor(1); f != 1 {
		t.Fatalf("factor after 2 obs = %v, want cold identity (MinObs 3)", f)
	}
	if got := c.CorrectSel(1, 0.1); got != 0.1 {
		t.Fatalf("CorrectSel while cold = %v, want passthrough", got)
	}
	// Third observation crosses the threshold and publishes.
	c.Apply([]Obs{{Site: 1, LogQ: math.Log(4)}})
	if f := c.Factor(1); f <= 1 {
		t.Fatalf("factor after warmup = %v, want > 1 (estimates too low)", f)
	}
	if c.ActiveSites() != 1 {
		t.Fatalf("ActiveSites = %d, want 1", c.ActiveSites())
	}
	// Site 2 untouched: stays identity.
	if f := c.Factor(2); f != 1 {
		t.Fatalf("untouched site factor = %v, want identity", f)
	}
}

func TestCorrectionsClampAndBounds(t *testing.T) {
	c := NewCorrections(1)
	// Feed a huge consistent underestimate: the EWMA converges toward
	// ln(1000) but the published factor must clamp at 8.
	for i := 0; i < 50; i++ {
		c.Apply([]Obs{{Site: 1, LogQ: math.Log(1000)}})
	}
	if f := c.Factor(1); f != 8 {
		t.Fatalf("factor = %v, want clamped to 8", f)
	}
	// Swing the other way: clamp at 1/8.
	for i := 0; i < 200; i++ {
		c.Apply([]Obs{{Site: 1, LogQ: math.Log(1.0 / 1000)}})
	}
	if f := c.Factor(1); f != 1.0/8 {
		t.Fatalf("factor = %v, want clamped to 1/8", f)
	}
	// Corrected selectivity stays in [0, 1].
	if got := c.CorrectSel(1, 0.9); got < 0 || got > 1 {
		t.Fatalf("CorrectSel out of range: %v", got)
	}
	// Out-of-shape and non-finite observations are ignored, not applied.
	c.Apply([]Obs{{Site: 0, LogQ: 1}, {Site: 2, LogQ: 1}, {Site: 1, LogQ: math.NaN()}, {Site: 1, LogQ: math.Inf(1)}})
	_, sites := c.State()
	if sites[0].N != 250 {
		t.Fatalf("bad observations mutated state: n = %d, want 250", sites[0].N)
	}
}

func TestCorrectionsEpochAdvancesOnDrift(t *testing.T) {
	c := NewCorrections(1)
	if c.Epoch() != 0 {
		t.Fatal("fresh state has nonzero epoch")
	}
	// Three big observations warm the site, and move the smoothed
	// correction well past the threshold: epoch bumps and the reference
	// re-anchors.
	for i := 0; i < 3; i++ {
		c.Apply([]Obs{{Site: 1, LogQ: math.Log(4)}})
	}
	if c.Epoch() != 1 {
		t.Fatalf("epoch = %d after a large shift, want 1", c.Epoch())
	}
	// Repeating the same observation keeps the EWMA where it is — no bump.
	c.Apply([]Obs{{Site: 1, LogQ: math.Log(4)}})
	if c.Epoch() != 1 {
		t.Fatalf("epoch = %d in steady state, want 1", c.Epoch())
	}
	// A reversal large enough to cross the threshold bumps again.
	for i := 0; i < 20 && c.Epoch() == 1; i++ {
		c.Apply([]Obs{{Site: 1, LogQ: -math.Log(4)}})
	}
	if c.Epoch() < 2 {
		t.Fatalf("epoch = %d after reversal, want >= 2", c.Epoch())
	}
}

func TestCorrectionsEncodeDecodeRoundTrip(t *testing.T) {
	c := NewCorrections(2)
	for i := 0; i < 8; i++ {
		c.Apply([]Obs{{Site: 1, LogQ: math.Log(5)}, {Site: 2, LogQ: math.Log(0.5)}})
	}
	body := c.Encode(nil)
	dec, err := DecodeCorrections(body)
	if err != nil {
		t.Fatal(err)
	}
	wantEpoch, wantSites := c.State()
	gotEpoch, gotSites := dec.State()
	if gotEpoch != wantEpoch {
		t.Fatalf("decoded epoch %d, want %d", gotEpoch, wantEpoch)
	}
	for i := range wantSites {
		if gotSites[i] != wantSites[i] {
			t.Fatalf("site %d decoded %+v, want %+v", i+1, gotSites[i], wantSites[i])
		}
	}
	if dec.Factor(1) != c.Factor(1) || dec.Factor(2) != c.Factor(2) {
		t.Fatal("decoded factors differ")
	}
	if !bytes.Equal(dec.Encode(nil), body) {
		t.Fatal("decode -> encode moved the section bytes")
	}

	// A body that disagrees with its declared site count is an error, not a
	// silent cold start: empty, truncated, one byte long, garbage.
	for _, bad := range [][]byte{nil, body[:len(body)-1], append(append([]byte(nil), body...), 0), make([]byte, 64)} {
		if _, err := DecodeCorrections(bad); err == nil {
			t.Fatalf("a %d-byte body decoded without error", len(bad))
		}
	}

	// Adopt with a matching shape takes the state; a shape mismatch is an
	// error (the caller degrades to correction-cold).
	r2 := NewCorrections(2)
	if err := r2.Adopt(dec); err != nil {
		t.Fatal(err)
	}
	if r2.Factor(1) != c.Factor(1) {
		t.Fatal("Adopt did not take the factors")
	}
	if err := NewCorrections(5).Adopt(dec); err == nil {
		t.Fatal("shape mismatch restored without error")
	}
	// Adopting nothing (a state without the section) resets warm state to
	// cold.
	if err := r2.Adopt(nil); err != nil {
		t.Fatal(err)
	}
	if r2.Factor(1) != 1 || r2.Epoch() != 0 {
		t.Fatal("adopting no section did not reset to cold")
	}
}

// TestCorrectionsRefuseNonFiniteState holds what comes from outside the
// process to the state Apply can produce: a decoded section whose
// configuration slots are not this learner's constants, or with a
// non-finite site, is an error (the template restores correction-cold),
// and installing a replayed site with non-finite state is refused.
func TestCorrectionsRefuseNonFiniteState(t *testing.T) {
	c := NewCorrections(2)
	for i := 0; i < 4; i++ {
		c.Apply([]Obs{{Site: 1, LogQ: math.Log(3)}, {Site: 2, LogQ: -1}})
	}
	body := c.Encode(nil)
	patch := func(off int, v float64) []byte {
		b := append([]byte(nil), body...)
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
		return b
	}
	const site1 = 4 + 5*8 + 8 // first site's logc; ref is 16 bytes on
	for name, bad := range map[string][]byte{
		"alpha 0":           patch(4, 0),
		"alpha 0.5":         patch(4, 0.5),
		"alpha above 1":     patch(4, 1.5),
		"alpha NaN":         patch(4, math.NaN()),
		"clamp min 0":       patch(12, 0),
		"clamp min 1/4":     patch(12, 0.25),
		"clamp min above 1": patch(12, 2),
		"clamp max below 1": patch(20, 0.5),
		"clamp max 16":      patch(20, 16),
		"clamp max +Inf":    patch(20, math.Inf(1)),
		"MinObs 0":          patch(28, 0),
		"MinObs 1":          patch(28, 1),
		"MinObs 2.5":        patch(28, 2.5),
		"MinObs NaN":        patch(28, math.NaN()),
		"MinObs 1e300":      patch(28, 1e300),
		"epoch delta 0":     patch(36, 0),
		"epoch delta ln 2":  patch(36, math.Log(2)),
		"epoch delta NaN":   patch(36, math.NaN()),
		"logc NaN":          patch(site1, math.NaN()),
		"logc +Inf":         patch(site1, math.Inf(1)),
		"ref -Inf":          patch(site1+16, math.Inf(-1)),
	} {
		if _, err := DecodeCorrections(bad); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := DecodeCorrections(patch(28, 3)); err != nil {
		t.Fatalf("the section's own MinObs rejected: %v", err)
	}

	// Installing a site's state — what replay does with a correction
	// record — refuses state that is not finite, or a site beyond the
	// shape, and leaves the state as it was.
	epoch, want := c.State()
	for i, bad := range []struct {
		site int
		s    SiteState
	}{
		{1, SiteState{LogC: math.NaN(), N: 9}},
		{2, SiteState{LogC: 0.5, N: 9, Ref: math.Inf(1)}},
		{3, SiteState{LogC: 0.5, N: 9}},
		{0, SiteState{LogC: 0.5, N: 9}},
	} {
		if c.Install(bad.site, bad.s, epoch+1) {
			t.Fatalf("install %d (site %d, %+v) applied", i, bad.site, bad.s)
		}
	}
	if got, sites := c.State(); got != epoch || sites[0] != want[0] || sites[1] != want[1] {
		t.Fatalf("after refused installs: epoch %d (want %d), sites %+v (want %+v)", got, epoch, sites, want)
	}
}

func TestLogQAndQError(t *testing.T) {
	if got := LogQ(10, 40); math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("LogQ(10, 40) = %v, want ln 4", got)
	}
	if got := QError(10, 40); math.Abs(got-4) > 1e-12 {
		t.Fatalf("QError(10, 40) = %v, want 4", got)
	}
	if got := QError(40, 10); math.Abs(got-4) > 1e-12 {
		t.Fatalf("QError is not symmetric: %v", got)
	}
	if got := QError(5, 5); got != 1 {
		t.Fatalf("QError of exact estimate = %v, want 1", got)
	}
	// Zero observed rows stay finite via the floor.
	if got := LogQ(10, 0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("LogQ with zero observed not finite: %v", got)
	}
}
