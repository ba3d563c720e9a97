package ppc

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obsv"
	"repro/internal/wal"
)

// Durability configures the crash-recovery layer: a write-ahead log of
// feedback records under Dir plus periodic checkpoints that compact it.
// The zero value (empty Dir) disables durability entirely — the System
// behaves exactly as before, learned state living only in memory until an
// explicit SaveState.
//
// Layout under Dir:
//
//	checkpoint.ppc   the latest SaveState snapshot and the leader lineage
//	                 epoch (atomically replaced)
//	wal/wal-*.log    feedback records newer than the checkpoint
//
// Recovery at Open: load the checkpoint (degrading to cold learners on
// corruption, as LoadState always has), then replay only the WAL records
// past each learner's applied-sequence watermark. Records for templates the
// checkpoint does not contain are held aside and replayed when the
// template is registered — so a corrupt checkpoint with an intact WAL
// still recovers every logged point once the application re-registers its
// templates. A recovery that lost anything starts a new lineage (see
// System.ReplicationEpoch) and checkpoints it before Open returns.
type Durability struct {
	// Dir is the durability directory; empty disables the layer.
	Dir string
	// Sync is the WAL fsync policy (default wal.SyncAlways; wal.SyncInterval
	// fsyncs at most every 100ms). Segments rotate past 4 MiB.
	Sync wal.SyncPolicy
	// CheckpointInterval is the background checkpointer's cadence (default
	// 1 minute). The checkpointer calls Checkpoint: SaveState to a temp
	// file, atomic rename, then WAL compaction. Negative turns the
	// checkpointer off; the application drives Checkpoint itself (Close
	// still takes a final one).
	CheckpointInterval time.Duration
}

// defaultCheckpointInterval is the checkpointer cadence when unset.
const defaultCheckpointInterval = time.Minute

// checkpointName is the snapshot file under the durability directory.
const checkpointName = "checkpoint.ppc"

// walSink is one template's view of the shared WAL: the wal.Appender its
// learner logs every durable event through. Append runs under the learner
// lock (core.Online.mu), which guards both the synopsis and the corrections
// the records describe, before that lock is released — so recovery and
// replicas see each record ordered exactly against the others, the order
// that makes the rebuilt state bit-identical; the log serializes on its own
// mutex below it. Commit runs once per apply batch, outside the lock.
type walSink struct {
	log      *wal.Log
	template string
}

// Append stamps the template's name on the record and logs it.
func (w *walSink) Append(rec *wal.Record) (uint64, error) {
	rec.Template = w.template
	return w.log.Append(rec)
}

// Commit is the per-batch group-commit barrier.
func (w *walSink) Commit() error { return w.log.Commit() }

// openDurable runs the recovery sequence for a freshly opened System:
// open (and repair) the WAL, load the latest checkpoint, replay the WAL
// tail, stash records for unregistered templates, and start the background
// checkpointer. Called from Open before the System is published, so no
// concurrent Runs exist yet.
func (s *System) openDurable() error {
	d := s.opts.Durability
	t0 := time.Now()
	s.walObs = s.obs.WAL()
	log, recov, err := wal.Open(wal.Options{
		Dir:          filepath.Join(d.Dir, "wal"),
		Sync:         d.Sync,
		SegmentBytes: s.opts.walSegmentBytes,
		Faults:       s.opts.Faults,
		Observer:     s.walObs,
	})
	if err != nil {
		return err
	}
	s.wal = log
	s.walPending = make(map[string][]wal.Record)

	// Load the latest checkpoint. A missing file is a first boot; an
	// unreadable or corrupt one degrades to cold learners (LoadState's
	// contract) and the WAL tail below recovers what it can.
	ckPath := filepath.Join(d.Dir, checkpointName)
	var report *LoadReport
	var epoch uint64
	if f, oerr := os.Open(ckPath); oerr == nil {
		var lerr error
		epoch, lerr = s.loadState(f)
		f.Close() //nolint:errcheck
		if lerr != nil {
			return lerr // non-degradable: wrong database, non-fresh System
		}
		report = s.LoadStateReport()
	} else {
		report = &LoadReport{}
		if !os.IsNotExist(oerr) {
			report.damaged("checkpoint: %v", oerr)
		}
		s.loadMu.Lock()
		s.lastLoad = report
		s.loadMu.Unlock()
	}
	report.WALEnabled = true
	report.WALSegments = recov.Segments
	report.WALTornBytes = recov.TornBytes
	report.WALTornSegment = recov.TornSegment
	report.WALQuarantined = recov.QuarantinedSegments
	if recov.Corrupt {
		report.damaged("wal: %s", recov.Reason)
	}

	// Replay the tail. Records are globally ordered by sequence number;
	// grouping by template preserves each learner's relative order, which
	// is the only order that matters (learners share no state). Every
	// record kind stays interleaved in a template's stream and replays
	// through core.Online.ReplayRecords, the loop replicas run too.
	for name, recs := range wal.ByTemplate(recov.Records) {
		if st, err := s.lookup(name); err == nil {
			s.replayInto(st, recs)
			continue
		}
		// The checkpoint does not know this template (first boot, or a
		// corrupt checkpoint). Hold the records until Register.
		s.walPending[name] = recs
		report.WALPending += len(recs)
	}
	// Every learner — checkpoint-restored or registered later — gets its
	// WAL sink in registerLocked (s.wal is already set when LoadState
	// re-registers the saved templates above).
	report.RecoveryDuration = time.Since(t0)

	// A recovery that kept everything continues the checkpoint's lineage.
	// Anything else — a first boot, a missing or damaged checkpoint, a
	// template left cold, a plan dropped, WAL quarantine, a checkpoint that
	// carries no epoch — is a new history that may lack records a replica
	// applied, so it starts a new lineage, made durable by a checkpoint
	// before any replica can be told of it.
	s.lineage = epoch
	if epoch == 0 || report.Corrupt {
		if s.lineage, err = mintLineage(); err != nil {
			return err
		}
		if err := s.Checkpoint(); err != nil {
			return err
		}
	}

	if every := d.CheckpointInterval; every >= 0 {
		if every == 0 {
			every = defaultCheckpointInterval
		}
		s.checkpointStop = make(chan struct{})
		s.checkpointDone = make(chan struct{})
		go s.checkpointLoop(every)
	}
	return nil
}

// replayInto replays recovered WAL records into a registered template and
// folds the outcome into the load report.
func (s *System) replayInto(st *templateState, recs []wal.Record) {
	applied, skipped, stale := st.online.ReplayRecords(recs)
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	if r := s.lastLoad; r != nil {
		r.WALReplayed += applied
		r.WALSkipped += skipped
		r.WALStale += stale
	}
}

// replayPendingLocked applies the WAL records held for a template that was
// not in the checkpoint, now that it is registered. Callers hold s.regMu.
func (s *System) replayPendingLocked(name string, st *templateState) {
	recs := s.walPending[name]
	if len(recs) == 0 {
		return
	}
	t0 := time.Now()
	delete(s.walPending, name)
	s.replayInto(st, recs)
	s.loadMu.Lock()
	if r := s.lastLoad; r != nil {
		r.WALPending -= len(recs)
		// Pending replay is recovery work deferred to registration time;
		// fold it into the recovery wall clock so the report stays honest.
		r.RecoveryDuration += time.Since(t0)
	}
	s.loadMu.Unlock()
}

// checkpointLoop is the background checkpointer: a periodic Checkpoint
// until Close stops it. Errors are counted (walObs) and retried next tick.
func (s *System) checkpointLoop(every time.Duration) {
	defer close(s.checkpointDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Checkpoint() //nolint:errcheck
		case <-s.checkpointStop:
			return
		}
	}
}

// stopCheckpointer halts the background checkpointer and waits for it.
// Idempotent; a no-op when durability (or the checkpointer) is disabled.
func (s *System) stopCheckpointer() {
	if s.checkpointStop == nil {
		return
	}
	s.checkpointOnce.Do(func() { close(s.checkpointStop) })
	<-s.checkpointDone
}

// Checkpoint writes the current learned state to the durability
// directory's snapshot and compacts the WAL segments it makes redundant.
// The snapshot lands atomically (temp file, fsync, rename) so a crash
// mid-checkpoint leaves the previous checkpoint intact. Requires
// durability to be enabled.
//
// The compaction bound is taken before the save: every template's
// applied-sequence watermark only grows, so a snapshot written afterwards
// covers at least the records below the bound.
func (s *System) Checkpoint() (err error) {
	defer capturePanic("ppc.Checkpoint", &err)
	if s.wal == nil {
		return &SnapshotError{Op: "checkpoint", Err: fmt.Errorf("durability not enabled")}
	}
	t0 := time.Now()
	defer func() {
		if err != nil {
			s.walObs.CountCheckpointError()
		}
	}()
	minSeq := s.checkpointMinSeq()

	dir := s.opts.Durability.Dir
	tmp := filepath.Join(dir, checkpointName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return &SnapshotError{Op: "checkpoint", Err: err}
	}
	if err := s.SaveState(f); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()      //nolint:errcheck
		os.Remove(tmp) //nolint:errcheck
		return &SnapshotError{Op: "checkpoint", Err: err}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return &SnapshotError{Op: "checkpoint", Err: err}
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointName)); err != nil {
		os.Remove(tmp) //nolint:errcheck
		return &SnapshotError{Op: "checkpoint", Err: err}
	}
	// Fsync the directory so the rename itself survives power loss.
	if df, derr := os.Open(dir); derr == nil {
		df.Sync()  //nolint:errcheck
		df.Close() //nolint:errcheck
	}
	if _, err := s.wal.Compact(minSeq); err != nil {
		return &SnapshotError{Op: "checkpoint", Err: err}
	}
	s.walObs.RecordCheckpoint(time.Since(t0), minSeq)
	return nil
}

// checkpointMinSeq returns the conservative WAL compaction bound: the
// smallest applied-sequence watermark across templates that have logged
// anything, held below the first record still waiting in walPending for
// its template's Register. Records at or below it are reflected in every
// learner a subsequent SaveState encodes; pending records are in none, so
// they pin compaction until their template registers and replays them.
func (s *System) checkpointMinSeq() uint64 {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	min := ^uint64(0)
	for _, st := range s.templates {
		if seq := st.online.AppliedSeq(); seq > 0 && seq < min {
			min = seq
		}
	}
	if min == ^uint64(0) {
		return 0
	}
	for _, recs := range s.walPending {
		// Held in log order: the first is the template's lowest.
		if len(recs) > 0 && recs[0].Seq <= min {
			min = recs[0].Seq - 1
		}
	}
	return min
}

// WALMetrics returns the durability layer's metrics snapshot, or nil when
// durability is disabled.
func (s *System) WALMetrics() *obsv.WALSnapshot {
	if s.wal == nil {
		return nil
	}
	snap := s.walObs.Snapshot()
	return &snap
}

// closeDurable flushes and closes the durability layer: final WAL sync,
// final checkpoint (so the next Open replays nothing), then the log
// itself. Appliers are already shut down by Close, so every acknowledged
// point is in the synopsis and on disk.
func (s *System) closeDurable() error {
	if s.wal == nil {
		return nil
	}
	var firstErr error
	if err := s.wal.Sync(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.Checkpoint(); err != nil && firstErr == nil {
		firstErr = err
	}
	if err := s.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
