package histogram

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary encoding of histograms, used to persist the plan cache's learned
// synopses across restarts. The format is versioned and self-delimiting:
//
//	u8  version
//	u32 maxBuckets, f64 lo, f64 hi, f64 total
//	u32 bucket count, then per bucket: f64 lo, hi, count, costSum
const encodeVersion = 1

// Encode writes the dynamic histogram's state to w.
func (d *Dynamic) Encode(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, uint8(encodeVersion)); err != nil {
		return err
	}
	hdr := []any{uint32(d.maxBuckets), d.lo, d.hi, d.total, uint32(len(d.buckets))}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, b := range d.buckets {
		for _, v := range []float64{b.Lo, b.Hi, b.Count, b.CostSum} {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeDynamic reads a histogram previously written by Encode.
func DecodeDynamic(r io.Reader) (*Dynamic, error) {
	var version uint8
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("histogram: decode: %w", err)
	}
	if version != encodeVersion {
		return nil, fmt.Errorf("histogram: unsupported encoding version %d", version)
	}
	var maxBuckets, nBuckets uint32
	var lo, hi, total float64
	if err := binary.Read(r, binary.LittleEndian, &maxBuckets); err != nil {
		return nil, err
	}
	for _, p := range []*float64{&lo, &hi, &total} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if err := binary.Read(r, binary.LittleEndian, &nBuckets); err != nil {
		return nil, err
	}
	d, err := NewDynamic(int(maxBuckets), lo, hi)
	if err != nil {
		return nil, err
	}
	if nBuckets > maxBuckets || nBuckets == 0 {
		return nil, fmt.Errorf("histogram: corrupt bucket count %d (max %d)", nBuckets, maxBuckets)
	}
	buckets := make([]Bucket, nBuckets)
	var checked float64
	for i := range buckets {
		for _, p := range []*float64{&buckets[i].Lo, &buckets[i].Hi, &buckets[i].Count, &buckets[i].CostSum} {
			if err := binary.Read(r, binary.LittleEndian, p); err != nil {
				return nil, err
			}
		}
		if !(buckets[i].Count >= 0) || math.IsInf(buckets[i].Count, 1) {
			return nil, fmt.Errorf("histogram: corrupt bucket %d count %v", i, buckets[i].Count)
		}
		// The buckets tile [lo, hi) with positive widths — what Insert
		// maintains and what the range queries (Frozen above all) rely on.
		prevHi := lo
		if i > 0 {
			prevHi = buckets[i-1].Hi
		}
		if buckets[i].Lo != prevHi || !(buckets[i].Hi > buckets[i].Lo) {
			return nil, fmt.Errorf("histogram: corrupt bucket chain at %d", i)
		}
		checked += buckets[i].Count
	}
	if buckets[nBuckets-1].Hi != hi {
		return nil, fmt.Errorf("histogram: bucket chain ends at %v, domain at %v", buckets[nBuckets-1].Hi, hi)
	}
	if math.Abs(checked-total) > 1e-6*math.Max(1, total) {
		return nil, fmt.Errorf("histogram: bucket counts (%v) disagree with total (%v)", checked, total)
	}
	d.buckets = buckets
	d.total = total
	return d, nil
}
