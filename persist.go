package ppc

import (
	"fmt"
	"io"
	"time"

	"repro/internal/netproto"
	"repro/internal/optimizer"
)

// State persistence: a parametric plan cache is only as good as what it
// has learned, so a System can save its learned state — the per-template
// histogram synopses, the plan registry, the cached plan trees and their
// recency order — and restore it after a restart, resuming with warm
// predictions instead of a cold re-learning phase.
//
// The saved form is a netproto.Snapshot with its plans section, written as
// a checkpoint file: a header, then the CRC-framed snapshot body the replica
// ship stream carries (netproto.AppendSnapshotFile). Corruption (truncation,
// bit flips, garbage, a checksummed but inconsistent snapshot) is detected
// at load time and is NOT an error: a warm start is an optimization, so a
// damaged snapshot degrades the System to a cold learner and the damage is
// reported via LoadStateReport. Only non-recoverable mismatches — restoring
// onto the wrong database, or onto a System that has already learned — are
// hard *SnapshotError failures.
//
// The database itself is regenerated deterministically from Options.TPCH,
// so only the learned state is persisted.

// LoadReport describes what LoadState recovered from a snapshot and — when
// durability is enabled — what the WAL tail replay added on top of it.
type LoadReport struct {
	// Corrupt is true when the snapshot failed validation (bad magic,
	// truncation, checksum mismatch, undecodable payload) and the System
	// stayed (fully or partially) cold, or when the WAL carried damage
	// beyond an ordinary torn tail. A durable Open whose report is Corrupt
	// lost state, so it starts a new replication lineage.
	Corrupt bool
	// Reason explains the detected corruption, empty when Corrupt is false.
	Reason string
	// ColdTemplates lists templates whose saved learner was not restored:
	// re-registered cold because their synopsis failed to decode, or left
	// unregistered because their SQL no longer registers (their WAL records
	// wait for Register).
	ColdTemplates []string
	// Templates and Plans count what was successfully restored.
	Templates int
	Plans     int

	// WALEnabled reports whether the fields below are meaningful (the
	// System was opened with a Durability directory).
	WALEnabled bool
	// WALSegments counts the log segments scanned during recovery.
	WALSegments int
	// WALReplayed counts records applied into learners; WALSkipped the
	// records already covered by the checkpoint's watermarks; WALStale the
	// records dropped because a drift reset (or a template shape change)
	// superseded them.
	WALReplayed int
	WALSkipped  int
	WALStale    int
	// WALPending counts recovered records whose template is not registered
	// yet; they are applied when the template is registered and move into
	// the counters above.
	WALPending int
	// WALTornBytes and WALTornSegment report the torn tail Open truncated —
	// the expected artifact of a crash mid-append, not corruption.
	WALTornBytes   int64
	WALTornSegment string
	// WALQuarantined names every file in wal/ that recovery moved damage
	// to (wal.Recovery.Quarantined): the cut bytes of a segment with a bad
	// frame, and each segment renamed aside whole.
	WALQuarantined []string
	// RecoveryDuration is the wall time of the whole recovery sequence:
	// WAL scan and repair, checkpoint load, and tail replay.
	RecoveryDuration time.Duration
}

// damaged marks the report corrupt; the first reason recorded is kept.
func (r *LoadReport) damaged(format string, args ...any) {
	r.Corrupt = true
	if r.Reason == "" {
		r.Reason = fmt.Sprintf(format, args...)
	}
}

// LoadStateReport returns the report of the most recent LoadState call, or
// nil if LoadState has not been called.
func (s *System) LoadStateReport() *LoadReport {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	return s.lastLoad
}

// SaveState writes the system's learned state to w as a checkpoint file:
// the snapshot builder's output with its plans section. It fails with a
// *SnapshotError rather than write a file that could not be read back.
func (s *System) SaveState(w io.Writer) (err error) {
	defer capturePanic("ppc.SaveState", &err)
	file, err := netproto.AppendSnapshotFile(nil, s.snapshot(true))
	if err != nil {
		return &SnapshotError{Op: "save", Err: err}
	}
	// An injected bit flip after the checksum mimics on-disk corruption and
	// must be caught at load.
	if off, ok := s.opts.Faults.CorruptOffset(len(file)); ok {
		file[off] ^= 0xFF
	}
	if _, err := w.Write(file); err != nil {
		return &SnapshotError{Op: "save", Err: err}
	}
	return nil
}

// snapshot is the one builder behind SaveState, Checkpoint and
// ReplicationSnapshot; all carry the lineage epoch (0 without durability),
// and a checkpoint takes the plans section, the ship stream does not. Under
// the snapshot architecture a save of a live system is per-template
// consistent, not globally atomic. The cached plans come first,
// least recently used first — LoadState re-inserts them in this order,
// which reproduces the recency — so every plan's template is registered by
// the time the templates are listed. Then every template in name order:
// its mailbox flushed, so every point Run has acknowledged is in the
// synopsis, and its learner encoded under its own write lock while the
// others keep serving. The dense plan fingerprint table comes last: the
// registry is append-only, so it names every plan id a cached plan or a
// synopsis references. A referenced id whose tree is not in the cache
// re-optimizes on demand after restore, exactly like an evicted plan.
func (s *System) snapshot(plans bool) *netproto.Snapshot {
	snap := &netproto.Snapshot{Epoch: s.lineage, DBScale: s.opts.TPCH.Scale, DBSeed: s.opts.TPCH.Seed}
	if plans {
		s.cacheMu.RLock()
		s.cache.Each(func(id int, v any) {
			entry := v.(*cachedPlan)
			snap.Plans = append(snap.Plans, netproto.PlanState{ID: id, Template: entry.owner.tmpl.Name,
				Cost: entry.plan.Cost, Tree: optimizer.AppendTree(nil, entry.plan.Root)})
		})
		s.cacheMu.RUnlock()
	}
	for _, st := range s.statesByName() {
		st.flush()
		snap.Templates = append(snap.Templates, netproto.TemplateState{Name: st.tmpl.Name, SQL: st.tmpl.SQL, State: st.online.EncodeState(nil)})
	}
	for id := 0; s.reg.Fingerprint(id) != ""; id++ {
		snap.Fingerprints = append(snap.Fingerprints, s.reg.Fingerprint(id))
	}
	return snap
}

// LoadState restores state written by SaveState into a freshly opened
// System (no templates registered, nothing run yet). The System must have
// been opened with the same database configuration.
//
// A snapshot that fails validation — wrong magic, a version-1 (gob) file,
// truncated stream, checksum mismatch, a body netproto.DecodeSnapshot
// rejects — is NOT an error: LoadState returns nil, leaves the System cold,
// and records the damage in LoadStateReport. A template whose SQL no longer
// registers, or whose learner synopsis fails to decode, is left cold (see
// LoadReport.ColdTemplates) while the rest of the snapshot is still used.
// Hard *SnapshotError failures are reserved for states no amount of
// degrading can fix: a snapshot from a different database, or a System that
// is not fresh or is durable. A durable System restores only its own
// checkpoint, at Open: state loaded into it would enter no WAL record —
// replicas already attached would never receive it — and its watermarks
// would name another log's records.
func (s *System) LoadState(r io.Reader) error {
	if s.wal != nil {
		return &SnapshotError{Op: "load", Err: fmt.Errorf("LoadState into a durable System; it restores its own checkpoint at Open")}
	}
	_, err := s.loadState(r)
	return err
}

// loadState implements LoadState and returns the lineage epoch the snapshot
// carries (0 when it could not be read), for openDurable alone.
func (s *System) loadState(r io.Reader) (epoch uint64, err error) {
	defer capturePanic("ppc.LoadState", &err)
	s.regMu.Lock()
	defer s.regMu.Unlock()
	report := &LoadReport{}
	s.loadMu.Lock()
	s.lastLoad = report
	s.loadMu.Unlock()
	if s.reg.Count() != 0 || len(s.templates) != 0 {
		return 0, &SnapshotError{Op: "load", Err: fmt.Errorf("LoadState requires a fresh System")}
	}

	in, derr := netproto.ReadSnapshotFile(r)
	if derr != nil {
		report.damaged("%v", derr)
		return 0, nil // degrade to cold
	}
	if in.DBScale != s.opts.TPCH.Scale || in.DBSeed != s.opts.TPCH.Seed {
		return 0, &SnapshotError{Op: "load", Err: fmt.Errorf(
			"state was learned on database scale=%d seed=%d, this system has scale=%d seed=%d",
			in.DBScale, in.DBSeed, s.opts.TPCH.Scale, s.opts.TPCH.Seed)}
	}
	// Rebuild the registry with identical dense ids: it is empty, and the
	// decoder holds the fingerprints unique and non-empty.
	for _, fp := range in.Fingerprints {
		s.reg.ID(fp)
	}
	// Re-register templates and restore their learners. A template that does
	// not register, or whose synopsis fails to decode, stays cold rather than
	// failing the whole restore.
	for _, t := range in.Templates {
		if err := s.registerLocked(t.Name, t.SQL); err != nil {
			report.damaged("template %s: %v", t.Name, err)
			report.ColdTemplates = append(report.ColdTemplates, t.Name)
			continue
		}
		// DecodeState decodes the whole state before it installs any of it,
		// so a learner it rejects is still the cold one Register made.
		if derr := s.templates[t.Name].online.DecodeState(t.State); derr != nil {
			report.damaged("template %s synopsis: %v", t.Name, derr)
			report.ColdTemplates = append(report.ColdTemplates, t.Name)
			continue
		}
		report.Templates++
	}
	// Restore the cached plans through cachePlan, least recently used first:
	// the restored cache has the saver's recency order, and a snapshot taken
	// under a larger CacheCapacity keeps its most recent plans within this
	// System's bound — the cache is the only plan index, so nothing can be
	// served from outside it. Every restored tree is recompiled through
	// newCachedPlan, so a restored plan serves exactly like a freshly
	// optimized one. A plan whose template stayed unregistered is skipped; one
	// whose tree does not decode or no longer compiles is dropped and
	// reported (Run re-optimizes on demand). Compilation runs outside
	// cacheMu, like everywhere else (regMu > cacheMu).
	for _, p := range in.Plans {
		owner := s.templates[p.Template]
		if owner == nil {
			continue
		}
		root, err := optimizer.DecodeTree(p.Tree)
		if err == nil {
			var entry *cachedPlan
			entry, err = s.newCachedPlan(owner, p.ID, &optimizer.Plan{Root: root, Cost: p.Cost, Fingerprint: in.Fingerprints[p.ID]})
			if err == nil {
				s.cachePlan(entry)
				report.Plans++
				continue
			}
		}
		report.damaged("plan %d: %v", p.ID, err)
	}
	return in.Epoch, nil
}
