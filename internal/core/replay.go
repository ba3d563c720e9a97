package core

import (
	"math"

	"repro/internal/stats"
	"repro/internal/wal"
)

// A durable learner event is a wal.Record. Each kind's constructor — what
// the live write path logs as it applies the event — sits here beside its
// arm of the one replay switch, which is what recovery and replicas do with
// the record afterwards.

// feedbackRecord is the durable form of one labeled point on its way into
// the synopsis. The epoch makes replay reproduce reset semantics: a stale
// point is dropped, a point from a newer epoch implies the resets between.
func feedbackRecord(fb Feedback) wal.Record {
	return wal.Record{
		Kind: wal.RecordFeedback, Epoch: fb.Epoch,
		Plan: int64(fb.Plan), Cost: fb.Cost, SelfLabeled: fb.SelfLabeled, Point: fb.Point,
	}
}

// correctionRecord is the durable form of one correction site after an
// apply batch folded observations into it: the site's absolute state and
// the correction epoch the batch left, so replay installs the state rather
// than folding again.
func correctionRecord(site int, s stats.SiteState, epoch uint64) wal.Record {
	return wal.Record{
		Kind: wal.RecordCorrection, CorrEpoch: epoch,
		Site: uint32(site), LogC: s.LogC, N: s.N, Ref: s.Ref,
	}
}

// ReplayRecords replays one template's WAL records, in log order, into the
// learner and its attached correction state. It is the one replay loop
// behind leader crash recovery, registration-time replay of held records,
// and replica streaming, so all three rebuild the same state by
// construction. Records are not re-logged (they are already on disk), and
// at most one snapshot is published, at the end.
//
// Every arm first asks whether the record fits this learner — the point's
// dimensionality, the site's index. One that does not is stale: the
// template changed shape after the record was logged, and a learned
// component must never leave the system worse off than a cold one (on a
// replica the next snapshot reconciles). A record that fits is then
// idempotent through the learner's one watermark, which every kind claims
// against: one at or below it is already in the checkpoint — skipped, never
// double-applied — and the watermark advances over stale-by-epoch records
// too, so a second replay of the same log is a no-op.
//
//   - A feedback record from a newer epoch than the learner's implies drift
//     resets happened between: they are performed first, reproducing the
//     live insert-then-reset ordering. One from an older epoch was
//     superseded by a reset before the crash: stale.
//   - A correction record carries a site's absolute post-batch state and is
//     independent of feedback. One whose state is not finite is skipped, the
//     watermark advanced over it.
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
		case wal.RecordCorrection:
			if o.corr == nil || r.Site < 1 || int(r.Site) > o.corr.NSites() {
				stale++
				continue
			}
			if !o.claimLocked(r.Seq) ||
				!o.corr.Install(int(r.Site), stats.SiteState{LogC: r.LogC, N: r.N, Ref: r.Ref}, r.CorrEpoch) {
				skipped++
				continue
			}
			applied++
		}
	}
	if dirty {
		o.publishLocked()
	}
	return applied, skipped, stale
}

// claimLocked advances the learner's watermark over a replayed record and
// reports whether the record is news: false means the state already
// reflects it. Seq 0 is an unsequenced record — always news, and the
// watermark stays. Callers hold mu.
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
