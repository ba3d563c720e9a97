package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/histogram"
)

// Persistence of the learned synopses (Section IV-C histograms): a plan
// cache that survives restarts keeps not only the plan trees but the plan
// space knowledge that selects among them. The format stores the
// predictor's configuration (the randomized transformations are
// reconstructed deterministically from the seed) followed by every
// (transform, plan) histogram and the per-transform marginals.
//
// Layout (little endian):
//
//	u8  version (2)
//	u64 body length, u32 CRC-32C of body
//	body:
//	  config: i64 dims, outDims, transforms, histBuckets; f64 radius, gamma,
//	          |noiseFraction|; u8 noiseElim (1 when the fraction is
//	          positive); i64 minSamples, seed
//	  i64 total points
//	  u32 transform count; per transform:
//	    marginal histogram
//	    u32 plan count; per plan: i64 plan id, histogram
//
// Version 2 frames the body with its length and a CRC-32C checksum so a
// truncated or bit-flipped synopsis is detected at load instead of being
// deserialized into garbage histograms. It is the only version read: the
// unframed version 1 had no checksum to verify and no build in this
// history writes it.
const (
	persistVersion = 2
	// frameBytes is the version, body length and checksum ahead of the body.
	frameBytes = 1 + 8 + 4
	// bodyFixedBytes is the body's block ahead of its first histogram: the
	// config, the total and the transform count.
	bodyFixedBytes = 4*8 + 3*8 + 1 + 3*8 + 4
	// minTransformBytes is the least one transform takes in the body: its
	// marginal histogram and its plan count.
	minTransformBytes = histogram.MinEncodedBytes + 4
)

var persistCRC = crc32.MakeTable(crc32.Castagnoli)

// Encode appends the predictor's full state to dst, framed with a length
// and CRC-32C checksum.
func (p *ApproxLSHHist) Encode(dst []byte) []byte {
	le := binary.LittleEndian
	start := len(dst)
	dst = p.encodeBody(le.AppendUint32(le.AppendUint64(append(dst, persistVersion), 0), 0))
	body := dst[start+frameBytes:]
	le.PutUint64(dst[start+1:], uint64(len(body)))
	le.PutUint32(dst[start+9:], crc32.Checksum(body, persistCRC))
	return dst
}

// encodeBody appends the unframed predictor state to dst.
func (p *ApproxLSHHist) encodeBody(dst []byte) []byte {
	le := binary.LittleEndian
	// The noise flag byte carries the fraction's sign and the fraction field
	// its magnitude, so a disabled check writes the bytes it always has.
	noise := uint8(0)
	if p.cfg.NoiseFraction > 0 {
		noise = 1
	}
	for _, v := range [...]int{p.cfg.Dims, p.cfg.OutDims, p.cfg.Transforms, p.cfg.HistBuckets} {
		dst = le.AppendUint64(dst, uint64(v))
	}
	for _, v := range [...]float64{p.cfg.Radius, p.cfg.Gamma, math.Abs(p.cfg.NoiseFraction)} {
		dst = le.AppendUint64(dst, math.Float64bits(v))
	}
	dst = append(dst, noise)
	for _, v := range [...]int64{int64(p.cfg.MinSamples), p.cfg.Seed, int64(p.total)} {
		dst = le.AppendUint64(dst, uint64(v))
	}
	dst = le.AppendUint32(dst, uint32(len(p.hists)))
	for i := range p.hists {
		dst = p.marginals[i].Encode(dst)
		plans := make([]int, 0, len(p.hists[i]))
		for plan := range p.hists[i] {
			plans = append(plans, plan)
		}
		sort.Ints(plans)
		dst = le.AppendUint32(dst, uint32(len(plans)))
		for _, plan := range plans {
			dst = p.hists[i][plan].Encode(le.AppendUint64(dst, uint64(plan)))
		}
	}
	return dst
}

// DecodeApproxLSHHist decodes a predictor written by Encode from the front
// of b, verifying the frame's length and checksum first, and returns it
// with the number of bytes it read. The randomized transformations are
// regenerated from the stored seed, so predictions after a round trip are
// bit-identical.
func DecodeApproxLSHHist(b []byte) (*ApproxLSHHist, int, error) {
	le := binary.LittleEndian
	if len(b) < frameBytes {
		return nil, 0, fmt.Errorf("core: truncated synopsis frame header (%d of %d bytes)", len(b), frameBytes)
	}
	if b[0] != persistVersion {
		return nil, 0, fmt.Errorf("core: unsupported persistence version %d", b[0])
	}
	length, sum := le.Uint64(b[1:]), le.Uint32(b[9:])
	if length > uint64(len(b)-frameBytes) {
		return nil, 0, fmt.Errorf("core: truncated synopsis frame (%d of %d body bytes)", len(b)-frameBytes, length)
	}
	body := b[frameBytes : frameBytes+int(length)]
	if got := crc32.Checksum(body, persistCRC); got != sum {
		return nil, 0, fmt.Errorf("core: synopsis checksum mismatch: stored %08x, computed %08x", sum, got)
	}
	p, err := decodeBody(body)
	if err != nil {
		return nil, 0, err
	}
	return p, frameBytes + len(body), nil
}

// decodeBody reconstructs a predictor from the unframed state. Every count
// it reads is checked against the bytes left before anything is sized by
// it, and the body must end with its last histogram.
func decodeBody(b []byte) (*ApproxLSHHist, error) {
	le := binary.LittleEndian
	if len(b) < bodyFixedBytes {
		return nil, fmt.Errorf("core: truncated synopsis body (%d of %d fixed bytes)", len(b), bodyFixedBytes)
	}
	i64 := func(off int) int64 { return int64(le.Uint64(b[off:])) }
	f64 := func(off int) float64 { return math.Float64frombits(le.Uint64(b[off:])) }
	noiseFraction, total, tCount := f64(48), i64(73), le.Uint32(b[81:])
	if b[56] != 1 {
		// Noise elimination was off: restore it off, whatever magnitude the
		// stream stores (a zero would otherwise take the 0.05 default).
		noiseFraction = -math.Abs(noiseFraction)
		if noiseFraction == 0 {
			noiseFraction = -1
		}
	}
	cfg := Config{
		Dims: int(i64(0)), OutDims: int(i64(8)), Transforms: int(i64(16)),
		HistBuckets: int(i64(24)), Radius: f64(32), Gamma: f64(40),
		NoiseFraction: noiseFraction, MinSamples: int(i64(57)), Seed: i64(65),
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = -1 // preserve "disabled" through the 0-default
	}
	// WithDefaults bounds Dims by the u16 point width and the transforms'
	// projection weights, which the body does not store.
	defaulted, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	if int(tCount) != defaulted.Transforms {
		return nil, fmt.Errorf("core: transform count mismatch: stored %d, config %d", tCount, defaulted.Transforms)
	}
	rest := b[bodyFixedBytes:]
	if uint64(len(rest)) < uint64(tCount)*minTransformBytes {
		return nil, fmt.Errorf("core: %d transforms declared in %d bytes", tCount, len(rest))
	}
	p, err := NewApproxLSHHist(cfg)
	if err != nil {
		return nil, err
	}
	for i := range p.hists {
		m, n, err := histogram.DecodeDynamic(rest)
		if err != nil {
			return nil, fmt.Errorf("core: marginal %d: %w", i, err)
		}
		if !unitDomain(m) {
			return nil, fmt.Errorf("core: marginal %d does not span [0,1)", i)
		}
		p.marginals[i] = m
		rest = rest[n:]
		if len(rest) < 4 {
			return nil, fmt.Errorf("core: transform %d: truncated plan count", i)
		}
		nPlans := le.Uint32(rest)
		rest = rest[4:]
		if uint64(len(rest)) < uint64(nPlans)*(8+histogram.MinEncodedBytes) {
			return nil, fmt.Errorf("core: transform %d: %d plans declared in %d bytes", i, nPlans, len(rest))
		}
		for j := 0; j < int(nPlans); j++ {
			if len(rest) < 8 {
				return nil, fmt.Errorf("core: transform %d: truncated plan id", i)
			}
			plan := int(int64(le.Uint64(rest)))
			h, n, err := histogram.DecodeDynamic(rest[8:])
			if err != nil {
				return nil, fmt.Errorf("core: histogram (%d, plan %d): %w", i, plan, err)
			}
			if !unitDomain(h) {
				return nil, fmt.Errorf("core: histogram (%d, plan %d) does not span [0,1)", i, plan)
			}
			p.hists[i][plan] = h
			p.plans[plan] = true
			rest = rest[8+n:]
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("core: synopsis body has %d bytes past its last histogram", len(rest))
	}
	p.total = int(total)
	return p, nil
}

// unitDomain reports whether a decoded histogram spans [0,1), the range of
// the z-order curve every synopsis histogram is created over: the predict
// query ranks from 0 and clamps quantiles to 1.
func unitDomain(h *histogram.Dynamic) bool {
	b := h.Buckets()
	return b[0].Lo == 0 && b[len(b)-1].Hi == 1
}
