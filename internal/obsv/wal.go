package obsv

import (
	"sync/atomic"
	"time"
)

// WALObs holds the durability layer's process-wide metrics: append and
// fsync traffic on the shared write-ahead log, plus the background
// checkpointer's outcomes. Like every obsv type it is a lock-free leaf —
// single atomic operations only — so the log may call it while holding its
// own mutex, and the learner while holding the template write lock. Its
// method set satisfies the wal package's Observer interface structurally
// (obsv cannot import wal: the facade wires the two together).
type WALObs struct {
	appends      atomic.Uint64
	appendBytes  atomic.Uint64
	appendErrors atomic.Uint64
	syncs        atomic.Uint64
	syncErrors   atomic.Uint64
	rotations    atomic.Uint64
	compacted    atomic.Uint64
	tearDrops    atomic.Uint64

	checkpoints       atomic.Uint64
	checkpointErrors  atomic.Uint64
	lastCheckpointSeq atomic.Uint64

	fsync      Hist
	checkpoint Hist
}

// WALAppend records one appended record and its framed size.
func (w *WALObs) WALAppend(bytes int) {
	w.appends.Add(1)
	w.appendBytes.Add(uint64(bytes))
}

// WALAppendError records a failed append (the record is not durable).
func (w *WALObs) WALAppendError() { w.appendErrors.Add(1) }

// WALSync records one fsync and its latency.
func (w *WALObs) WALSync(d time.Duration) {
	w.syncs.Add(1)
	w.fsync.Record(d)
}

// WALSyncError records a failed fsync.
func (w *WALObs) WALSyncError() { w.syncErrors.Add(1) }

// WALRotate records a segment rotation.
func (w *WALObs) WALRotate() { w.rotations.Add(1) }

// WALCompact records n segments deleted by checkpoint compaction.
func (w *WALObs) WALCompact(n int) { w.compacted.Add(uint64(n)) }

// WALTearDropped records a record lost to an injected torn tail.
func (w *WALObs) WALTearDropped() { w.tearDrops.Add(1) }

// RecordCheckpoint records one completed checkpoint: its latency and the
// WAL watermark it covers (records at or below seq are now redundant).
func (w *WALObs) RecordCheckpoint(d time.Duration, seq uint64) {
	w.checkpoints.Add(1)
	w.checkpoint.Record(d)
	w.lastCheckpointSeq.Store(seq)
}

// CountCheckpointError records a failed checkpoint attempt.
func (w *WALObs) CountCheckpointError() { w.checkpointErrors.Add(1) }

// WALSnapshot is the JSON form of the durability metrics (part of the
// metrics snapshot).
type WALSnapshot struct {
	Appends      uint64 `json:"appends"`
	AppendBytes  uint64 `json:"append_bytes"`
	AppendErrors uint64 `json:"append_errors"`
	Syncs        uint64 `json:"syncs"`
	SyncErrors   uint64 `json:"sync_errors"`
	Rotations    uint64 `json:"rotations"`
	// CompactedSegments counts segment files deleted by checkpoints.
	CompactedSegments uint64 `json:"compacted_segments"`
	// TearDrops counts records lost to an injected torn tail (fault
	// injection only; production appends never silently drop).
	TearDrops uint64 `json:"tear_drops"`

	Checkpoints       uint64 `json:"checkpoints"`
	CheckpointErrors  uint64 `json:"checkpoint_errors"`
	LastCheckpointSeq uint64 `json:"last_checkpoint_seq"`

	FsyncLatency      HistSnapshot `json:"fsync_latency"`
	CheckpointLatency HistSnapshot `json:"checkpoint_latency"`
}

// Snapshot copies the counters and histograms.
func (w *WALObs) Snapshot() WALSnapshot {
	return WALSnapshot{
		Appends:           w.appends.Load(),
		AppendBytes:       w.appendBytes.Load(),
		AppendErrors:      w.appendErrors.Load(),
		Syncs:             w.syncs.Load(),
		SyncErrors:        w.syncErrors.Load(),
		Rotations:         w.rotations.Load(),
		CompactedSegments: w.compacted.Load(),
		TearDrops:         w.tearDrops.Load(),
		Checkpoints:       w.checkpoints.Load(),
		CheckpointErrors:  w.checkpointErrors.Load(),
		LastCheckpointSeq: w.lastCheckpointSeq.Load(),
		FsyncLatency:      w.fsync.Snapshot(),
		CheckpointLatency: w.checkpoint.Snapshot(),
	}
}
