package core

import (
	"repro/internal/stats"
	"repro/internal/wal"
)

// ReplayRecords replays one template's WAL records, in log order, into the
// learner and its attached correction state. It is the one replay loop
// behind leader crash recovery, registration-time replay of held records,
// and replica streaming, so all three rebuild the same state by
// construction.
//
//   - Feedback records accumulate into one ReplayBatch (one snapshot
//     publication), flushed at each retune record and at the end. A point
//     whose dimensionality is not the learner's is stale: the template
//     changed shape after the record was logged.
//   - A retune record is a barrier: it rebuilds the synopsis from the
//     reservoir under the logged warps, so a point applied on the wrong
//     side of it would land in the wrong mapping. A malformed warp payload
//     is stale.
//   - A correction record carries absolute post-update state and is
//     independent of the other two kinds; it is skipped when the learner
//     has no correction state attached.
func (o *Online) ReplayRecords(recs []wal.Record) (applied, skipped, stale int) {
	corr := o.Corrections()
	batch := make([]Feedback, 0, len(recs))
	flush := func() {
		a, sk, st := o.ReplayBatch(batch)
		applied, skipped, stale = applied+a, skipped+sk, stale+st
		batch = batch[:0]
	}
	count := func(ok bool) {
		if ok {
			applied++
		} else {
			skipped++
		}
	}
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case wal.RecordRetune:
			flush()
			warps, err := WarpsFromFlat(int(r.WarpT), int(r.WarpS), int(r.WarpK), r.Warps)
			if err != nil {
				stale++
				continue
			}
			count(o.ReplayRetune(r.Seq, r.RetuneEpoch, warps))
		case wal.RecordCorrection:
			count(corr != nil && corr.Replay(stats.CorrRecord{
				Seq: r.Seq, Epoch: r.CorrEpoch, Site: int(r.Site), LogC: r.LogC, N: r.N, Ref: r.Ref,
			}))
		default:
			if len(r.Point) != o.Dims() {
				stale++
				continue
			}
			batch = append(batch, Feedback{
				Point: r.Point, Plan: int(r.Plan), Cost: r.Cost,
				SelfLabeled: r.SelfLabeled, Epoch: r.Epoch, Seq: r.Seq,
			})
		}
	}
	flush()
	return applied, skipped, stale
}
