package histogram

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding of histograms, used to persist the plan cache's learned
// synopses across restarts. The format is versioned and self-delimiting:
//
//	u8  version
//	u32 maxBuckets, f64 lo, f64 hi, f64 total
//	u32 bucket count, then per bucket: f64 lo, hi, count, costSum
const (
	encodeVersion = 1
	headerBytes   = 1 + 4 + 3*8 + 4
	bucketBytes   = 4 * 8
	// MinEncodedBytes is the shortest encoding, a histogram of one bucket:
	// what a decoder of several histograms can check their declared count
	// against before it sizes anything by it.
	MinEncodedBytes = headerBytes + bucketBytes
)

// Encode appends the dynamic histogram's state to dst.
func (d *Dynamic) Encode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(append(dst, encodeVersion), uint32(d.maxBuckets))
	dst = appendF64s(dst, d.lo, d.hi, d.total)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(d.buckets)))
	for _, b := range d.buckets {
		dst = appendF64s(dst, b.Lo, b.Hi, b.Count, b.CostSum)
	}
	return dst
}

func appendF64s(dst []byte, vs ...float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeDynamic decodes a histogram written by Encode from the front of b
// and returns it with the number of bytes it read. The bucket count is
// checked against the bytes present before the buckets are allocated.
func DecodeDynamic(b []byte) (*Dynamic, int, error) {
	le := binary.LittleEndian
	if len(b) < headerBytes {
		return nil, 0, fmt.Errorf("histogram: truncated header (%d of %d bytes)", len(b), headerBytes)
	}
	if b[0] != encodeVersion {
		return nil, 0, fmt.Errorf("histogram: unsupported encoding version %d", b[0])
	}
	f64 := func(off int) float64 { return math.Float64frombits(le.Uint64(b[off:])) }
	maxBuckets, lo, hi, total, nBuckets := le.Uint32(b[1:]), f64(5), f64(13), f64(21), le.Uint32(b[29:])
	d, err := NewDynamic(int(maxBuckets), lo, hi)
	if err != nil {
		return nil, 0, err
	}
	if nBuckets > maxBuckets || nBuckets == 0 {
		return nil, 0, fmt.Errorf("histogram: corrupt bucket count %d (max %d)", nBuckets, maxBuckets)
	}
	if uint64(len(b)-headerBytes) < uint64(nBuckets)*bucketBytes {
		return nil, 0, fmt.Errorf("histogram: %d buckets declared in %d bytes", nBuckets, len(b)-headerBytes)
	}
	buckets := make([]Bucket, nBuckets)
	var checked float64
	for i := range buckets {
		off := headerBytes + bucketBytes*i
		buckets[i] = Bucket{Lo: f64(off), Hi: f64(off + 8), Count: f64(off + 16), CostSum: f64(off + 24)}
		if !(buckets[i].Count >= 0) || math.IsInf(buckets[i].Count, 1) {
			return nil, 0, fmt.Errorf("histogram: corrupt bucket %d count %v", i, buckets[i].Count)
		}
		// The buckets tile [lo, hi) with positive widths — what Insert
		// maintains and what the range queries (Frozen above all) rely on.
		prevHi := lo
		if i > 0 {
			prevHi = buckets[i-1].Hi
		}
		if buckets[i].Lo != prevHi || !(buckets[i].Hi > buckets[i].Lo) {
			return nil, 0, fmt.Errorf("histogram: corrupt bucket chain at %d", i)
		}
		checked += buckets[i].Count
	}
	if buckets[nBuckets-1].Hi != hi {
		return nil, 0, fmt.Errorf("histogram: bucket chain ends at %v, domain at %v", buckets[nBuckets-1].Hi, hi)
	}
	if math.Abs(checked-total) > 1e-6*math.Max(1, total) {
		return nil, 0, fmt.Errorf("histogram: bucket counts (%v) disagree with total (%v)", checked, total)
	}
	d.buckets = buckets
	d.total = total
	return d, headerBytes + bucketBytes*int(nBuckets), nil
}
