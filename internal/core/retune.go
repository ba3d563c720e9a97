package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/lsh"
	"repro/internal/stats"
)

// Tunable-LSH persistence: the re-tune state — active warps, harvested
// pre-warp coordinate counts, and the sample reservoir — travels in an
// optional section appended after the corrections section of an Online
// state stream. Like the corrections section, it is additive: old decoders
// stop before it (restoring a tuning-cold predictor), and new decoders
// treat EOF at the section start as "no retune state".
//
// Layout (little endian):
//
//	u32 magic "RTPC"
//	u16 version (1)
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
const (
	retuneMagic   = uint32(0x43505452) // "RTPC"
	retuneVersion = uint16(1)
	// maxRetuneReservoir caps the declared reservoir length so a corrupted
	// stream cannot drive a huge allocation.
	maxRetuneReservoir = 1 << 20
)

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

// encodeRetune writes the predictor's tunable-LSH section.
func (p *ApproxLSHHist) encodeRetune(w io.Writer) error {
	le := binary.LittleEndian
	var buf bytes.Buffer
	for _, f := range []any{retuneMagic, retuneVersion, p.retuneEpoch,
		int64(p.retuneEvery), int64(p.sinceRetune), int64(p.resCap),
		uint16(p.cfg.Transforms), uint16(p.cfg.OutDims), uint16(lsh.WarpBins)} {
		if err := binary.Write(&buf, le, f); err != nil {
			return err
		}
	}
	hasWarps := uint8(0)
	if p.warps != nil {
		hasWarps = 1
	}
	if err := binary.Write(&buf, le, hasWarps); err != nil {
		return err
	}
	if p.warps != nil {
		for _, row := range p.warps {
			for _, wp := range row {
				if err := binary.Write(&buf, le, wp.Knots()); err != nil {
					return err
				}
			}
		}
	}
	hasTuner := uint8(0)
	if p.tuner != nil {
		hasTuner = 1
	}
	if err := binary.Write(&buf, le, hasTuner); err != nil {
		return err
	}
	if p.tuner != nil {
		if err := binary.Write(&buf, le, p.tuner.Observed()); err != nil {
			return err
		}
		if err := binary.Write(&buf, le, p.tuner.Counts()); err != nil {
			return err
		}
	}
	if err := binary.Write(&buf, le, uint32(len(p.reservoir))); err != nil {
		return err
	}
	if err := binary.Write(&buf, le, uint16(p.cfg.Dims)); err != nil {
		return err
	}
	// Stored in slot order (not ring order): resNext reconstructs the ring.
	for _, s := range p.reservoir {
		if err := binary.Write(&buf, le, int64(s.Plan)); err != nil {
			return err
		}
		if err := binary.Write(&buf, le, s.Cost); err != nil {
			return err
		}
		if err := binary.Write(&buf, le, s.Point); err != nil {
			return err
		}
	}
	if err := binary.Write(&buf, le, int64(p.resNext)); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// decodeRetuneBody reads the section after its magic has been consumed.
func decodeRetuneBody(r io.Reader) (*retuneState, error) {
	le := binary.LittleEndian
	var version uint16
	if err := binary.Read(r, le, &version); err != nil {
		return nil, fmt.Errorf("core: retune section version: %w", err)
	}
	if version != retuneVersion {
		return nil, fmt.Errorf("core: unsupported retune section version %d", version)
	}
	st := &retuneState{}
	var every, since, cap64 int64
	var transforms, axes, bins uint16
	for _, p := range []any{&st.retuneEpoch, &every, &since, &cap64, &transforms, &axes, &bins} {
		if err := binary.Read(r, le, p); err != nil {
			return nil, fmt.Errorf("core: retune section header: %w", err)
		}
	}
	if bins != lsh.WarpBins {
		return nil, fmt.Errorf("core: retune section has %d warp bins, this build uses %d", bins, lsh.WarpBins)
	}
	if every < 0 || since < 0 || cap64 < 0 || cap64 > maxRetuneReservoir {
		return nil, fmt.Errorf("core: implausible retune counters (every=%d since=%d cap=%d)", every, since, cap64)
	}
	if transforms == 0 || axes == 0 {
		return nil, fmt.Errorf("core: retune section shape %dx%d", transforms, axes)
	}
	st.retuneEvery, st.sinceRetune, st.resCap = int(every), int(since), int(cap64)
	st.transforms, st.axes = int(transforms), int(axes)

	var hasWarps uint8
	if err := binary.Read(r, le, &hasWarps); err != nil {
		return nil, fmt.Errorf("core: retune warps flag: %w", err)
	}
	if hasWarps == 1 {
		st.warps = make([][]*lsh.Warp, st.transforms)
		knots := make([]float64, lsh.WarpBins+1)
		for i := range st.warps {
			st.warps[i] = make([]*lsh.Warp, st.axes)
			for a := range st.warps[i] {
				if err := binary.Read(r, le, knots); err != nil {
					return nil, fmt.Errorf("core: retune warp knots: %w", err)
				}
				wp, err := lsh.WarpFromKnots(knots)
				if err != nil {
					return nil, fmt.Errorf("core: retune warp [%d][%d]: %w", i, a, err)
				}
				st.warps[i][a] = wp
			}
		}
	} else if hasWarps != 0 {
		return nil, fmt.Errorf("core: bad retune warps flag %d", hasWarps)
	}

	var hasTuner uint8
	if err := binary.Read(r, le, &hasTuner); err != nil {
		return nil, fmt.Errorf("core: retune tuner flag: %w", err)
	}
	if hasTuner == 1 {
		if err := binary.Read(r, le, &st.observed); err != nil {
			return nil, fmt.Errorf("core: retune tuner observed: %w", err)
		}
		st.tunerCounts = make([]float64, st.transforms*st.axes*lsh.WarpBins)
		if err := binary.Read(r, le, st.tunerCounts); err != nil {
			return nil, fmt.Errorf("core: retune tuner counts: %w", err)
		}
		for _, c := range st.tunerCounts {
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				return nil, fmt.Errorf("core: invalid retune tuner count %v", c)
			}
		}
	} else if hasTuner != 0 {
		return nil, fmt.Errorf("core: bad retune tuner flag %d", hasTuner)
	}

	var resLen uint32
	var dims uint16
	if err := binary.Read(r, le, &resLen); err != nil {
		return nil, fmt.Errorf("core: retune reservoir length: %w", err)
	}
	if err := binary.Read(r, le, &dims); err != nil {
		return nil, fmt.Errorf("core: retune reservoir dims: %w", err)
	}
	if resLen > maxRetuneReservoir || int(resLen) > st.resCap {
		return nil, fmt.Errorf("core: implausible retune reservoir length %d (cap %d)", resLen, st.resCap)
	}
	st.reservoir = make([]Sample, 0, resLen)
	for i := 0; i < int(resLen); i++ {
		var plan int64
		var cost float64
		if err := binary.Read(r, le, &plan); err != nil {
			return nil, fmt.Errorf("core: retune sample %d: %w", i, err)
		}
		if err := binary.Read(r, le, &cost); err != nil {
			return nil, fmt.Errorf("core: retune sample %d cost: %w", i, err)
		}
		pt := make([]float64, dims)
		if err := binary.Read(r, le, pt); err != nil {
			return nil, fmt.Errorf("core: retune sample %d point: %w", i, err)
		}
		st.reservoir = append(st.reservoir, Sample{Point: pt, Plan: int(plan), Cost: cost})
	}
	var next int64
	if err := binary.Read(r, le, &next); err != nil {
		return nil, fmt.Errorf("core: retune reservoir cursor: %w", err)
	}
	if next < 0 || (len(st.reservoir) > 0 && int(next) >= st.resCap) {
		return nil, fmt.Errorf("core: implausible retune reservoir cursor %d", next)
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

// decodeStateTail demultiplexes the optional sections that follow an Online
// state's counter trailer: a corrections section ("CPPC"), then a retune
// section ("RTPC"). Either, both, or neither may be present; clean EOF ends
// the tail. Sections must appear at most once, in that order.
func decodeStateTail(r io.Reader) (*stats.Corrections, *retuneState, error) {
	le := binary.LittleEndian
	var corr *stats.Corrections
	var ret *retuneState
	for {
		var magic [4]byte
		if _, err := io.ReadFull(r, magic[:]); err != nil {
			if err == io.EOF {
				return corr, ret, nil
			}
			return nil, nil, fmt.Errorf("core: state tail: %w", err)
		}
		switch le.Uint32(magic[:]) {
		case stats.CorrectionsMagic:
			if corr != nil || ret != nil {
				return nil, nil, fmt.Errorf("core: corrections section out of order")
			}
			// DecodeCorrections expects the magic; hand it back.
			dec, err := stats.DecodeCorrections(io.MultiReader(bytes.NewReader(magic[:]), r))
			if err != nil {
				return nil, nil, err
			}
			corr = dec
		case retuneMagic:
			if ret != nil {
				return nil, nil, fmt.Errorf("core: duplicate retune section")
			}
			dec, err := decodeRetuneBody(r)
			if err != nil {
				return nil, nil, err
			}
			ret = dec
		default:
			return nil, nil, fmt.Errorf("core: unknown state section magic %08x", le.Uint32(magic[:]))
		}
	}
}
