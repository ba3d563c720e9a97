package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
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
	// maxPersistBody bounds the declared body length so a corrupted header
	// cannot trigger a giant allocation.
	maxPersistBody = 1 << 30
)

var persistCRC = crc32.MakeTable(crc32.Castagnoli)

// Encode writes the predictor's full state to w, framed with a length and
// CRC-32C checksum.
func (p *ApproxLSHHist) Encode(w io.Writer) error {
	le := binary.LittleEndian
	var body bytes.Buffer
	if err := p.encodeBody(&body); err != nil {
		return err
	}
	if err := binary.Write(w, le, uint8(persistVersion)); err != nil {
		return err
	}
	if err := binary.Write(w, le, uint64(body.Len())); err != nil {
		return err
	}
	if err := binary.Write(w, le, crc32.Checksum(body.Bytes(), persistCRC)); err != nil {
		return err
	}
	_, err := w.Write(body.Bytes())
	return err
}

// encodeBody writes the unframed predictor state.
func (p *ApproxLSHHist) encodeBody(w io.Writer) error {
	le := binary.LittleEndian
	// The noise flag byte carries the fraction's sign and the fraction field
	// its magnitude, so a disabled check writes the bytes it always has.
	noise := uint8(0)
	if p.cfg.NoiseFraction > 0 {
		noise = 1
	}
	fields := []any{
		int64(p.cfg.Dims), int64(p.cfg.OutDims), int64(p.cfg.Transforms), int64(p.cfg.HistBuckets),
		p.cfg.Radius, p.cfg.Gamma, math.Abs(p.cfg.NoiseFraction), noise,
		int64(p.cfg.MinSamples), p.cfg.Seed,
		int64(p.total), uint32(len(p.hists)),
	}
	for _, f := range fields {
		if err := binary.Write(w, le, f); err != nil {
			return err
		}
	}
	for i := range p.hists {
		if err := p.marginals[i].Encode(w); err != nil {
			return err
		}
		plans := make([]int, 0, len(p.hists[i]))
		for plan := range p.hists[i] {
			plans = append(plans, plan)
		}
		sort.Ints(plans)
		if err := binary.Write(w, le, uint32(len(plans))); err != nil {
			return err
		}
		for _, plan := range plans {
			if err := binary.Write(w, le, int64(plan)); err != nil {
				return err
			}
			if err := p.hists[i][plan].Encode(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// DecodeApproxLSHHist reconstructs a predictor previously written by
// Encode, verifying the frame's length and checksum first. The randomized
// transformations are regenerated from the stored seed, so predictions
// after a round trip are bit-identical.
func DecodeApproxLSHHist(r io.Reader) (*ApproxLSHHist, error) {
	le := binary.LittleEndian
	var version uint8
	if err := binary.Read(r, le, &version); err != nil {
		return nil, fmt.Errorf("core: decode: %w", err)
	}
	if version != persistVersion {
		return nil, fmt.Errorf("core: unsupported persistence version %d", version)
	}
	var length uint64
	if err := binary.Read(r, le, &length); err != nil {
		return nil, fmt.Errorf("core: decode frame length: %w", err)
	}
	if length > maxPersistBody {
		return nil, fmt.Errorf("core: frame length %d exceeds limit", length)
	}
	var sum uint32
	if err := binary.Read(r, le, &sum); err != nil {
		return nil, fmt.Errorf("core: decode frame checksum: %w", err)
	}
	// Read what arrives rather than allocate what the header declares: a
	// damaged length costs the bytes the stream holds, not a gigabyte.
	body, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err == nil && uint64(len(body)) != length {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("core: truncated synopsis frame: %w", err)
	}
	if got := crc32.Checksum(body, persistCRC); got != sum {
		return nil, fmt.Errorf("core: synopsis checksum mismatch: stored %08x, computed %08x", sum, got)
	}
	return decodeBody(bytes.NewReader(body))
}

// decodeBody reconstructs a predictor from the unframed state stream.
func decodeBody(r io.Reader) (*ApproxLSHHist, error) {
	le := binary.LittleEndian
	var dims, outDims, transforms, histBuckets, minSamples, seed, total int64
	var radius, gamma, noiseFraction float64
	var noise uint8
	var tCount uint32
	for _, p := range []any{&dims, &outDims, &transforms, &histBuckets,
		&radius, &gamma, &noiseFraction, &noise, &minSamples, &seed, &total, &tCount} {
		if err := binary.Read(r, le, p); err != nil {
			return nil, err
		}
	}
	if noise != 1 {
		// Noise elimination was off: restore it off, whatever magnitude the
		// stream stores (a zero would otherwise take the 0.05 default).
		noiseFraction = -math.Abs(noiseFraction)
		if noiseFraction == 0 {
			noiseFraction = -1
		}
	}
	cfg := Config{
		Dims: int(dims), OutDims: int(outDims), Transforms: int(transforms),
		HistBuckets: int(histBuckets), Radius: radius, Gamma: gamma,
		NoiseFraction: noiseFraction, MinSamples: int(minSamples), Seed: seed,
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = -1 // preserve "disabled" through the 0-default
	}
	p, err := NewApproxLSHHist(cfg)
	if err != nil {
		return nil, err
	}
	if int(tCount) != len(p.hists) {
		return nil, fmt.Errorf("core: transform count mismatch: stored %d, config %d", tCount, len(p.hists))
	}
	for i := 0; i < int(tCount); i++ {
		m, err := histogram.DecodeDynamic(r)
		if err != nil {
			return nil, fmt.Errorf("core: marginal %d: %w", i, err)
		}
		if !unitDomain(m) {
			return nil, fmt.Errorf("core: marginal %d does not span [0,1)", i)
		}
		p.marginals[i] = m
		var nPlans uint32
		if err := binary.Read(r, le, &nPlans); err != nil {
			return nil, err
		}
		for j := 0; j < int(nPlans); j++ {
			var plan int64
			if err := binary.Read(r, le, &plan); err != nil {
				return nil, err
			}
			h, err := histogram.DecodeDynamic(r)
			if err != nil {
				return nil, fmt.Errorf("core: histogram (%d, plan %d): %w", i, plan, err)
			}
			if !unitDomain(h) {
				return nil, fmt.Errorf("core: histogram (%d, plan %d) does not span [0,1)", i, plan)
			}
			p.hists[i][int(plan)] = h
			p.plans[int(plan)] = true
		}
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
