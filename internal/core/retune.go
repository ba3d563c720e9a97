package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/lsh"
)

// Tunable-LSH persistence: the re-tune state — active warps, harvested
// pre-warp coordinate counts, and the sample reservoir — is the body of an
// Online state stream's retune section (see stateSections), present exactly
// when tunable LSH is (or was) active on the template.
//
// Layout (little endian):
//
//	u64 retuneEpoch
//	i64 retuneEvery, sinceRetune, resCap
//	u16 transforms, axes, bins
//	u8  hasWarps;  if 1: f64 × transforms·axes·(bins+1) knots
//	u8  hasTuner;  if 1: u64 observed; f64 × transforms·axes·bins counts
//	u32 reservoir length; u16 dims
//	per sample: i64 plan, f64 cost, f64 × dims point
//	i64 resNext
//
// Decay and smoothing are package constants of the tuner, not persisted.

// maxRetuneReservoir caps the declared reservoir capacity so a corrupted
// section cannot arm a huge reservoir.
const maxRetuneReservoir = 1 << 20

// retuneState is the decoded form of the section, adopted into a predictor
// by restoreRetune.
type retuneState struct {
	retuneEpoch uint64
	retuneEvery int
	sinceRetune int
	resCap      int
	warps       [][]*lsh.Warp // nil when the base mapping was active
	tunerCounts []float64     // nil when tuning was disabled
	observed    uint64
	transforms  int
	axes        int
	reservoir   []Sample
	resNext     int
}

// hasTuningState reports whether the predictor carries any tunable-LSH
// state worth a section.
func (p *ApproxLSHHist) hasTuningState() bool {
	return p.tuner != nil || p.warps != nil
}

// encodeRetune writes the predictor's tunable-LSH section body to buf.
func (p *ApproxLSHHist) encodeRetune(buf *bytes.Buffer) error {
	var err error
	w := func(vs ...any) {
		for _, v := range vs {
			if err == nil {
				err = binary.Write(buf, binary.LittleEndian, v)
			}
		}
	}
	w(p.retuneEpoch, int64(p.retuneEvery), int64(p.sinceRetune), int64(p.resCap),
		uint16(p.cfg.Transforms), uint16(p.cfg.OutDims), uint16(lsh.WarpBins), flag(p.warps != nil))
	for _, row := range p.warps {
		for _, wp := range row {
			w(wp.Knots())
		}
	}
	w(flag(p.tuner != nil))
	if p.tuner != nil {
		w(p.tuner.Observed(), p.tuner.Counts())
	}
	w(uint32(len(p.reservoir)), uint16(p.cfg.Dims))
	// Stored in slot order (not ring order): resNext reconstructs the ring.
	for _, s := range p.reservoir {
		w(int64(s.Plan), s.Cost, s.Point)
	}
	w(int64(p.resNext))
	return err
}

func flag(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// decodeRetune decodes a retune section body written by encodeRetune.
func decodeRetune(b []byte) (*retuneState, error) {
	r := bytes.NewReader(b)
	var err error
	rd := func(vs ...any) {
		for _, v := range vs {
			if err == nil {
				err = binary.Read(r, binary.LittleEndian, v)
			}
		}
	}
	st := &retuneState{}
	var every, since, cap64 int64
	var transforms, axes, bins uint16
	var hasWarps, hasTuner uint8
	rd(&st.retuneEpoch, &every, &since, &cap64, &transforms, &axes, &bins, &hasWarps)
	switch {
	case err != nil:
		return nil, fmt.Errorf("core: retune section header: %w", err)
	case bins != lsh.WarpBins:
		return nil, fmt.Errorf("core: retune section has %d warp bins, this build uses %d", bins, lsh.WarpBins)
	case every < 0 || since < 0 || cap64 < 0 || cap64 > maxRetuneReservoir:
		return nil, fmt.Errorf("core: implausible retune counters (every=%d since=%d cap=%d)", every, since, cap64)
	// A section carries warps or tuner counts (else it is not written), and
	// either holds transforms·axes·bins floats: a shape larger than the
	// section cannot drive an allocation.
	case transforms == 0 || axes == 0 || int(transforms)*int(axes)*lsh.WarpBins*8 > r.Len():
		return nil, fmt.Errorf("core: retune section shape %dx%d in %d bytes", transforms, axes, r.Len())
	case hasWarps > 1:
		return nil, fmt.Errorf("core: bad retune warps flag %d", hasWarps)
	}
	st.retuneEvery, st.sinceRetune, st.resCap = int(every), int(since), int(cap64)
	st.transforms, st.axes = int(transforms), int(axes)

	if hasWarps == 1 {
		st.warps = make([][]*lsh.Warp, st.transforms)
		knots := make([]float64, lsh.WarpBins+1)
		for i := range st.warps {
			st.warps[i] = make([]*lsh.Warp, st.axes)
			for a := range st.warps[i] {
				if rd(knots); err != nil {
					return nil, fmt.Errorf("core: retune warp knots: %w", err)
				}
				if st.warps[i][a], err = lsh.WarpFromKnots(knots); err != nil {
					return nil, fmt.Errorf("core: retune warp [%d][%d]: %w", i, a, err)
				}
			}
		}
	}
	if rd(&hasTuner); hasTuner == 1 {
		st.tunerCounts = make([]float64, st.transforms*st.axes*lsh.WarpBins)
		rd(&st.observed, st.tunerCounts)
		for _, c := range st.tunerCounts {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				return nil, fmt.Errorf("core: invalid retune tuner count %v", c)
			}
		}
	} else if hasTuner > 1 {
		return nil, fmt.Errorf("core: bad retune tuner flag %d", hasTuner)
	}

	var resLen uint32
	var dims uint16
	rd(&resLen, &dims)
	if err == nil && (int(resLen) > st.resCap || int(resLen)*(16+8*int(dims)) > r.Len()) {
		return nil, fmt.Errorf("core: implausible retune reservoir length %d (cap %d)", resLen, st.resCap)
	}
	for i := 0; i < int(resLen) && err == nil; i++ {
		var plan int64
		s := Sample{Point: make([]float64, dims)}
		rd(&plan, &s.Cost, s.Point)
		s.Plan = int(plan)
		st.reservoir = append(st.reservoir, s)
	}
	var next int64
	switch rd(&next); {
	case err != nil:
		return nil, fmt.Errorf("core: retune section: %w", err)
	case next < 0 || (len(st.reservoir) > 0 && int(next) >= st.resCap):
		return nil, fmt.Errorf("core: implausible retune reservoir cursor %d", next)
	case r.Len() != 0:
		return nil, fmt.Errorf("core: %d trailing retune section bytes", r.Len())
	}
	st.resNext = int(next)
	return st, nil
}

// restoreRetune adopts a decoded retune section into the predictor,
// validating shape against the predictor's configuration. The histograms
// themselves were encoded post-warp, so no rebuild is needed — only the
// mapping and harvest state come back.
func (p *ApproxLSHHist) restoreRetune(st *retuneState) error {
	if st.transforms != p.cfg.Transforms || st.axes != p.cfg.OutDims {
		return fmt.Errorf("core: retune shape %dx%d, predictor %dx%d",
			st.transforms, st.axes, p.cfg.Transforms, p.cfg.OutDims)
	}
	for _, s := range st.reservoir {
		if len(s.Point) != p.cfg.Dims {
			return fmt.Errorf("core: retune sample has %d dims, predictor %d", len(s.Point), p.cfg.Dims)
		}
	}
	p.retuneEpoch = st.retuneEpoch
	p.retuneEvery = st.retuneEvery
	p.sinceRetune = st.sinceRetune
	p.resCap = st.resCap
	p.warps = st.warps
	p.reservoir = st.reservoir
	p.resNext = st.resNext
	if st.tunerCounts != nil {
		p.tuner = lsh.NewTuner(st.transforms, st.axes)
		if err := p.tuner.SetCounts(st.tunerCounts, st.observed); err != nil {
			return err
		}
	} else {
		p.tuner = nil
	}
	p.gen++
	return nil
}
