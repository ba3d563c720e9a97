package core

// Fuzz coverage for the optional state-tail sections — the retune ("RTPC")
// and corrections ("CPPC") decoders that read crash-shaped bytes during
// recovery and replica snapshot install. The invariant is the recovery
// contract: decodeStateTail either returns decoded sections or an error; it
// never panics, never over-allocates on a corrupt declared length, and a
// section that round-trips through encodeRetune restores bit-identically.

import (
	"bytes"
	"math/rand"
	"testing"
)

// validRetuneTail encodes the tunable-LSH section of a trained, re-tuned
// predictor — a realistic seed whose mutations explore the deep decode
// paths (warp knots, tuner counts, reservoir samples) rather than dying at
// the magic check.
func validRetuneTail(tb testing.TB) []byte {
	tb.Helper()
	cfg := Config{
		Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5, NoiseElimination: true,
		RetuneEvery: 50, RetuneReservoir: 128,
	}
	p := MustNewApproxLSHHist(cfg)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64() * 0.4, rng.Float64() * 0.4}
		p.Insert(Sample{Point: x, Plan: i % 4, Cost: float64(i%10 + 1)})
	}
	p.ApplyRetune(1, p.PrepareRetune())
	var buf bytes.Buffer
	if err := p.encodeRetune(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzStateTailDecode(f *testing.F) {
	tail := validRetuneTail(f)
	f.Add(tail)
	f.Add(tail[:len(tail)/2]) // truncated mid-section
	f.Add(tail[:4])           // magic only
	f.Add([]byte{})           // clean EOF: no sections
	f.Add([]byte("RTPCgarbage"))
	f.Add(append(append([]byte(nil), tail...), tail...)) // duplicate section
	flipped := append([]byte(nil), tail...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		corr, ret, err := decodeStateTail(bytes.NewReader(data))
		if err != nil {
			return
		}
		if ret == nil {
			return
		}
		// A section the decoder accepted must adopt cleanly into a
		// shape-compatible predictor (restoreRetune may still reject a
		// shape mismatch, but must not panic) and re-encode decodably.
		if ret.transforms != 0 {
			_ = corr
			p := MustNewApproxLSHHist(Config{
				Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5, NoiseElimination: true,
				RetuneEvery: 50, RetuneReservoir: 128,
			})
			if err := p.restoreRetune(ret); err != nil {
				return
			}
			var buf bytes.Buffer
			if err := p.encodeRetune(&buf); err != nil {
				t.Fatalf("re-encode of accepted section failed: %v", err)
			}
			if _, ret2, err := decodeStateTail(bytes.NewReader(buf.Bytes())); err != nil || ret2 == nil {
				t.Fatalf("re-encoded section did not decode: %v", err)
			}
		}
	})
}

// TestRetuneTailRoundTrip pins the exactness half of the fuzz invariant on
// the canonical seed: encode -> decode -> restore -> encode must be
// byte-identical (bit-identical warps, counts, reservoir and cursor).
func TestRetuneTailRoundTrip(t *testing.T) {
	tail := validRetuneTail(t)
	_, ret, err := decodeStateTail(bytes.NewReader(tail))
	if err != nil {
		t.Fatal(err)
	}
	if ret == nil {
		t.Fatal("no retune section decoded")
	}
	p := MustNewApproxLSHHist(Config{
		Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5, NoiseElimination: true,
		RetuneEvery: 50, RetuneReservoir: 128,
	})
	if err := p.restoreRetune(ret); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.encodeRetune(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, buf.Bytes()) {
		t.Fatalf("retune section round trip not byte-identical: %d vs %d bytes", len(tail), len(buf.Bytes()))
	}
}
