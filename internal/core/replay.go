package core

import (
	"math"

	"repro/internal/lsh"
	"repro/internal/wal"
)

// A durable learner event is a wal.Record. Each kind's constructor — what
// the live write path logs before it applies the event — sits here beside
// its arm of the one replay switch, which is what recovery and replicas do
// with the record afterwards. (The correction kind's constructor is in
// stats.Corrections.Apply, next to Corrections.Replay: core imports stats,
// not the reverse.)

// feedbackRecord is the durable form of one labeled point on its way into
// the synopsis. The epoch makes replay reproduce reset semantics: a stale
// point is dropped, a point from a newer epoch implies the resets between.
func feedbackRecord(fb Feedback) wal.Record {
	return wal.Record{
		Kind: wal.RecordFeedback, Epoch: fb.Epoch,
		Plan: int64(fb.Plan), Cost: fb.Cost, SelfLabeled: fb.SelfLabeled, Point: fb.Point,
	}
}

// retuneRecord is the durable form of one tunable-LSH switch: the epoch
// after it and the absolute warp grid, row-major over transforms, then
// axes, then knots — so replay rebuilds the identical mapping without the
// harvested counts it was derived from.
func retuneRecord(epoch uint64, warps [][]*lsh.Warp) wal.Record {
	rec := wal.Record{
		Kind: wal.RecordRetune, RetuneEpoch: epoch,
		WarpT: uint16(len(warps)), WarpK: lsh.WarpBins + 1,
	}
	for _, row := range warps {
		rec.WarpS = uint16(len(row))
		for _, w := range row {
			k := w.Knots()
			rec.Warps = append(rec.Warps, k[:]...)
		}
	}
	return rec
}

// retuneWarps is retuneRecord's inverse for a learner of transforms × axes
// warps: the record's grid, bit-identical to the logged one, or nil when the
// record does not fit — another shape, another build's knot count, or knots
// that are not a warp (monotone, endpoint-anchored).
func retuneWarps(r *wal.Record, transforms, axes int) [][]*lsh.Warp {
	const knots = lsh.WarpBins + 1
	if int(r.WarpT) != transforms || int(r.WarpS) != axes || r.WarpK != knots ||
		len(r.Warps) != transforms*axes*knots {
		return nil
	}
	warps := make([][]*lsh.Warp, transforms)
	flat := r.Warps
	for i := range warps {
		warps[i] = make([]*lsh.Warp, axes)
		for a := range warps[i] {
			w, err := lsh.WarpFromKnots(flat[:knots])
			if err != nil {
				return nil
			}
			warps[i][a], flat = w, flat[knots:]
		}
	}
	return warps
}

// ReplayRecords replays one template's WAL records, in log order, into the
// learner and its attached correction state. It is the one replay loop
// behind leader crash recovery, registration-time replay of held records,
// and replica streaming, so all three rebuild the same state by
// construction. Records are not re-logged (they are already on disk), and
// at most one snapshot is published, at the end.
//
// Every arm first asks whether the record fits this learner — the point's
// dimensionality, the warp grid's shape, the site's index. One that does
// not is stale: the template changed shape after the record was logged, and
// a learned component must never leave the system worse off than a cold one
// (on a replica the next snapshot reconciles). A record that fits is then
// idempotent through the applied-sequence watermark: one at or below it is
// already in the checkpoint — skipped, never double-applied — and the
// watermark advances over stale-by-epoch records too, so a second replay of
// the same log is a no-op.
//
//   - A feedback record from a newer epoch than the learner's implies drift
//     resets happened between: they are performed first, reproducing the
//     live insert-then-reset ordering. One from an older epoch was
//     superseded by a reset before the crash: stale.
//   - A retune record rebuilds the synopsis from the reservoir under the
//     logged warps, so the feedback before it must already be in — which
//     log order under one lock gives.
//   - A correction record carries absolute post-update state and is
//     independent of the other two kinds.
func (o *Online) ReplayRecords(recs []wal.Record) (applied, skipped, stale int) {
	if len(recs) == 0 {
		return 0, 0, 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	shape := o.pred.cfg
	dirty := false
	for i := range recs {
		r := &recs[i]
		if r.Seq > math.MaxInt64 {
			// No log assigns such a sequence, and the state trailer keeps the
			// watermark in an int64: claiming it would make the next
			// checkpoint of this learner undecodable.
			stale++
			continue
		}
		switch r.Kind {
		case 0, wal.RecordFeedback: // a zero Kind is feedback, as it encodes
			if len(r.Point) != shape.Dims {
				stale++
				continue
			}
			if !o.claimLocked(r.Seq) {
				skipped++
				continue
			}
			if cur := o.resets.Load(); r.Epoch > cur {
				o.pred.Reset()
				o.est.Reset()
				o.resets.Store(r.Epoch)
				dirty = true
			} else if r.Epoch < cur {
				o.staleDrops.Add(1)
				stale++
				continue
			}
			o.pred.Insert(Sample{Point: r.Point, Plan: int(r.Plan), Cost: r.Cost})
			if r.SelfLabeled {
				o.selfLabeled.Add(1)
			} else {
				o.validated.Add(1)
			}
			applied++
			dirty = true
		case wal.RecordRetune:
			warps := retuneWarps(r, shape.Transforms, shape.OutDims)
			if warps == nil {
				stale++
				continue
			}
			if !o.claimLocked(r.Seq) || r.RetuneEpoch <= o.pred.RetuneEpoch() {
				skipped++
				continue
			}
			o.pred.ApplyRetune(r.RetuneEpoch, warps)
			applied++
			dirty = true
		case wal.RecordCorrection:
			if o.corr == nil || r.Site < 1 || int(r.Site) > o.corr.NSites() {
				stale++
				continue
			}
			if o.corr.Replay(r) {
				applied++
			} else {
				skipped++
			}
		default:
			stale++ // a kind this build does not declare fits no learner
		}
	}
	if dirty {
		o.publishLocked()
	}
	return applied, skipped, stale
}

// claimLocked advances the applied-sequence watermark over a replayed
// record and reports whether the record is news: false means the state
// already reflects it. Seq 0 is an unsequenced record — always news, and
// the watermark stays. Callers hold mu.
func (o *Online) claimLocked(seq uint64) bool {
	if seq == 0 {
		return true
	}
	if seq <= o.appliedSeq.Load() {
		return false
	}
	o.appliedSeq.Store(seq)
	return true
}
