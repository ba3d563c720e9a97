package histogram

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameFloat is == that also accepts NaN for NaN: the probes are held to the
// scans' answers to the last bit.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

func ulpUp(v float64) float64   { return math.Nextafter(v, math.Inf(1)) }
func ulpDown(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }

// checkProbes holds h's three probes to the reference scans at every value
// of probes: FractionLE; RangeCount from each of los and from at, one ulp
// below, one ulp above and far below the domain's lower edge and from
// mid-domain; Quantile at each FractionLE answer and at each of ps. It also
// checks that Quantile(FractionLE(v)) does not leave v's bucket (but for
// one rounding, see below).
func checkProbes(t testing.TB, h *Histogram, los, probes, ps []float64) {
	t.Helper()
	dlo, dhi := h.Domain()
	los = append(append([]float64(nil), los...), dlo, ulpDown(dlo), ulpUp(dlo), math.Inf(-1), dlo+(dhi-dlo)/2)
	quantile := func(p float64) float64 {
		q, want := h.Quantile(p), refQuantile(h, p)
		if !sameFloat(q, want) {
			t.Fatalf("Quantile(%v) = %v, scan says %v (buckets %v)", p, q, want, h.buckets)
		}
		return q
	}
	for _, p := range ps {
		quantile(p)
	}
	for _, v := range probes {
		p, want := h.FractionLE(v), refFractionLE(h, v)
		if !sameFloat(p, want) {
			t.Fatalf("FractionLE(%v) = %v, scan says %v (buckets %v)", v, p, want, h.buckets)
		}
		for _, lo := range los {
			if got, want := h.RangeCount(lo, v), refRangeCount(h, lo, v); !sameFloat(got, want) {
				t.Fatalf("RangeCount(%v, %v) = %v, scan says %v (buckets %v)", lo, v, got, want, h.buckets)
			}
		}
		q := quantile(p)
		if v < dlo || v > dhi || !(p > 0 && p < 1) {
			continue
		}
		// [dlo, v]'s count ends in bucket k, so the running count reaches
		// p·total there or earlier and the inverse lands in a bucket j <= k —
		// or, when (c/total)·total rounds up past c = cum[k+1], at the very
		// bottom of the next bucket that holds anything.
		k := bucketSearch(h.buckets, ulpUp(v))
		target, j := p*h.total, 0
		for j < len(h.buckets)-1 && !(h.cum[j+1] >= target) {
			j++
		}
		b := h.buckets[j]
		slack := 1e-9 * b.Width() // Lo + frac·Width rounds
		if q < b.Lo-slack || q > b.Hi+slack || (j > k && target-h.cum[j] > 1e-9*h.total) {
			t.Fatalf("Quantile(FractionLE(%v)=%v) = %v in bucket %d, [%v, %v] ends in bucket %d (buckets %v)",
				v, p, q, j, dlo, v, k, h.buckets)
		}
	}
}

// probesAround returns every value with its two ulp neighbours.
func probesAround(values []float64) []float64 {
	out := make([]float64, 0, 3*len(values))
	for _, v := range values {
		out = append(out, v, ulpDown(v), ulpUp(v))
	}
	return out
}

// TestProbesMatchScan: 200 seeded equi-depth histograms (duplicates heavy
// enough to make one-ulp buckets) × 300 random probes each, plus every
// value and its ulp neighbours.
func TestProbesMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		distinct := 1 + rng.Intn(n)
		values := make([]float64, n)
		for i := range values {
			values[i] = math.Floor(rng.Float64()*float64(distinct)) * 0.37
		}
		slices.Sort(values)
		h, err := BuildEquiDepth(values, 1+rng.Intn(64))
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := h.Domain()
		probes := probesAround(values)
		ps := make([]float64, 0, 300)
		for i := 0; i < 300; i++ {
			probes = append(probes, lo+(hi-lo)*(rng.Float64()*1.2-0.1))
			ps = append(ps, rng.Float64())
		}
		checkProbes(t, h, nil, probes, ps)
	}
}

// fuzzLimit bounds the magnitude of a fuzzed value so that no bucket's
// width overflows: a histogram's domain has finite width.
const fuzzLimit = math.MaxFloat64 / 4

// fuzzValues decodes 9-byte records: a float64 and a count of one-ulp steps
// (signed) that appends that neighbour as well — the fuzzer reaches
// duplicates by repeating a record and one-ulp buckets by stepping.
func fuzzValues(data []byte) []float64 {
	var values []float64
	for ; len(data) >= 9 && len(values) < 256; data = data[9:] {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		if v != v {
			continue
		}
		v = math.Max(-fuzzLimit, math.Min(fuzzLimit, v))
		values = append(values, v)
		w := v
		for step := int8(data[8]); step != 0; {
			if step > 0 {
				w, step = ulpUp(w), step-1
			} else {
				w, step = ulpDown(w), step+1
			}
		}
		if w != v {
			values = append(values, w)
		}
	}
	return values
}

func fuzzRecord(v float64, step int8) []byte {
	var rec [9]byte
	binary.LittleEndian.PutUint64(rec[:], math.Float64bits(v))
	rec[8] = byte(step)
	return rec[:]
}

// FuzzProbeMatchesScan holds FractionLE, RangeCount and Quantile to the
// reference scans, with ==, on histograms of fuzzer-chosen values
// (duplicates, one-ulp neighbours, values next to the largest finite float,
// a single distinct value) and bucket count, at every value, its ulp
// neighbours and a fuzzer-chosen probe and quantile. The second argument
// chose among four builders while the catalog had four; it is ignored, and
// stays in the signature so that corpus entries written then still decode.
func FuzzProbeMatchesScan(f *testing.F) {
	join := func(recs ...[]byte) []byte {
		var out []byte
		for _, r := range recs {
			out = append(out, r...)
		}
		return out
	}
	f.Add(join(fuzzRecord(1, 0), fuzzRecord(1, 0), fuzzRecord(1, 0)), uint8(0), uint8(3), 1.0, 0.5)
	f.Add(join(fuzzRecord(2, 1), fuzzRecord(2, -1), fuzzRecord(5, 0), fuzzRecord(5, 0), fuzzRecord(9, 3)), uint8(1), uint8(4), 5.0, 0.3)
	f.Add(join(fuzzRecord(fuzzLimit, -1), fuzzRecord(-fuzzLimit, 1), fuzzRecord(0, 0)), uint8(2), uint8(2), 0.0, 0.9)
	f.Add(join(fuzzRecord(0, 1), fuzzRecord(0, -1), fuzzRecord(math.SmallestNonzeroFloat64, 0)), uint8(3), uint8(64), 0.0, 0.1)
	f.Add(join(fuzzRecord(3, 0), fuzzRecord(1, 0), fuzzRecord(2, 0), fuzzRecord(2, 0), fuzzRecord(7, 0), fuzzRecord(7, 1)), uint8(0), uint8(2), 2.5, 0.75)
	// Found by the fuzzer (under the equi-width builder, since deleted): a
	// domain a few denormal ulps wide, and a bucket whose Lo + 1·Width rounds
	// past Hi.
	f.Add([]byte("a\x00\x00\x00\x00\x00\x00\x0000\x00\x00\x00\x00\x00\x00\x0000\x00\x00\x00\x00\x00\x00\x000"), uint8(3), uint8('Y'), 0.0, 0.1)
	f.Add([]byte("0000000\xb600000000\x900000000000"), uint8('4'), uint8('A'), -92.0, 80.9)
	f.Fuzz(func(t *testing.T, data []byte, _, nbuckets uint8, probe, p float64) {
		values := fuzzValues(data)
		if len(values) == 0 {
			return
		}
		slices.Sort(values)
		h, err := BuildEquiDepth(values, 1+int(nbuckets%64))
		if err != nil {
			t.Fatal(err)
		}
		checkProbes(t, h, []float64{probe}, append(probesAround(values), probe), []float64{p})
	})
}
