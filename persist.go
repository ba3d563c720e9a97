package ppc

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/optimizer"
)

// State persistence: a parametric plan cache is only as good as what it
// has learned, so a System can save its learned state — the per-template
// histogram synopses, the plan registry, the cached plan trees and their
// recency order — and restore it after a restart, resuming with warm
// predictions instead of a cold re-learning phase.
//
// Snapshots are framed with a magic string, a version, a payload length
// and a CRC-32C checksum. Corruption (truncation, bit flips, garbage) is
// detected at load time and is NOT an error: a warm start is an
// optimization, so a damaged snapshot degrades the System to a cold
// learner and the damage is reported via LoadStateReport. Only
// non-recoverable mismatches — restoring onto the wrong database, or onto
// a System that has already learned — are hard *SnapshotError failures.
//
// The database itself is regenerated deterministically from Options.TPCH,
// so only the learned state is persisted.

const (
	// snapMagic opens every snapshot stream.
	snapMagic = "PPCSNAP\x00"
	// snapVersion is the current envelope version.
	snapVersion = 1
	// maxSnapBody caps the declared payload length so a corrupted length
	// field cannot drive a huge allocation.
	maxSnapBody = 1 << 30
)

// snapCRC is the Castagnoli polynomial table (same family as the synopsis
// streams in internal/core).
var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// savedSystem is the gob-encoded persistent form.
type savedSystem struct {
	// DBScale and DBSeed fingerprint the database the state was learned on.
	DBScale int
	DBSeed  int64
	// Fingerprints maps dense plan id -> fingerprint, in id order.
	Fingerprints []string
	// Templates carries each template's SQL and learner state.
	Templates []savedTemplate
	// Plans carries the cached plan trees.
	Plans []savedPlan
	// CacheMRU lists cached plan ids from least to most recently used.
	CacheMRU []int
}

type savedTemplate struct {
	Name    string
	SQL     string
	Learner []byte
}

type savedPlan struct {
	ID       int
	Template string
	Root     *optimizer.Node
	Cost     float64
	Print    string
}

// LoadReport describes what LoadState recovered from a snapshot and — when
// durability is enabled — what the WAL tail replay added on top of it.
type LoadReport struct {
	// Corrupt is true when the snapshot failed validation (bad magic,
	// truncation, checksum mismatch, undecodable payload) and the System
	// stayed (fully or partially) cold, or when the WAL carried damage
	// beyond an ordinary torn tail.
	Corrupt bool
	// Reason explains the detected corruption, empty when Corrupt is false.
	Reason string
	// ColdTemplates lists templates that were re-registered with a cold
	// learner because their saved synopsis failed to decode.
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
	// WALQuarantined lists segments moved aside because mid-log damage made
	// their ordering untrustworthy.
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

// SaveState writes the system's learned state to w in the framed,
// checksummed snapshot format.
//
// Under the snapshot architecture a save of a live system is per-template
// consistent, not globally atomic: each template's feedback mailbox is
// flushed — so every point already acknowledged by Run is in the synopsis —
// and its learner is then encoded under the learner's write lock while
// other templates keep serving. The plan registry is append-only with dense
// ids, so collecting its fingerprints AFTER the learners guarantees every
// plan id referenced by a synopsis is present in the saved registry; a plan
// id whose tree is missing from the saved cache simply re-optimizes on
// demand after restore, exactly like an evicted plan.
func (s *System) SaveState(w io.Writer) (err error) {
	defer capturePanic("ppc.SaveState", &err)
	out := savedSystem{DBScale: s.opts.TPCH.Scale, DBSeed: s.opts.TPCH.Seed}
	out.Fingerprints, err = s.encodeLearners(func(st *templateState, learner []byte) {
		out.Templates = append(out.Templates, savedTemplate{Name: st.tmpl.Name, SQL: st.tmpl.SQL, Learner: learner})
	})
	if err != nil {
		return &SnapshotError{Op: "save", Err: err}
	}
	// The cached plans, least recently used first: LoadState re-inserts them
	// in this order, which reproduces the recency.
	s.cacheMu.RLock()
	s.cache.Each(func(id int, v any) {
		entry := v.(*cachedPlan)
		out.Plans = append(out.Plans, savedPlan{
			ID: id, Template: entry.owner.tmpl.Name,
			Root: entry.plan.Root, Cost: entry.plan.Cost, Print: entry.plan.Fingerprint,
		})
		out.CacheMRU = append(out.CacheMRU, id)
	})
	s.cacheMu.RUnlock()

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&out); err != nil {
		return &SnapshotError{Op: "save", Err: err}
	}
	body := payload.Bytes()
	// The checksum is computed over the intact payload; an injected bit
	// flip afterwards mimics on-disk corruption and must be caught at load.
	sum := crc32.Checksum(body, snapCRC)
	if off, ok := s.opts.Faults.CorruptOffset(len(body)); ok {
		body[off] ^= 0xFF
	}

	var header bytes.Buffer
	header.WriteString(snapMagic)
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], snapVersion)
	header.Write(u16[:])
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(len(body)))
	header.Write(u64[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], sum)
	header.Write(u32[:])
	if _, err := w.Write(header.Bytes()); err != nil {
		return &SnapshotError{Op: "save", Err: err}
	}
	if _, err := w.Write(body); err != nil {
		return &SnapshotError{Op: "save", Err: err}
	}
	return nil
}

// LoadState restores state written by SaveState into a freshly opened
// System (no templates registered, nothing run yet). The System must have
// been opened with the same database configuration.
//
// A snapshot that fails validation — wrong magic, truncated stream,
// checksum mismatch, undecodable payload — is NOT an error: LoadState
// returns nil, leaves the System cold, and records the damage in
// LoadStateReport. A template whose learner synopsis fails to decode is
// re-registered cold while the rest of the snapshot is still used. Hard
// *SnapshotError failures are reserved for states no amount of degrading
// can fix: a snapshot from a different database, or a System that is not
// fresh.
func (s *System) LoadState(r io.Reader) (err error) {
	defer capturePanic("ppc.LoadState", &err)
	s.regMu.Lock()
	defer s.regMu.Unlock()
	report := &LoadReport{}
	s.loadMu.Lock()
	s.lastLoad = report
	s.loadMu.Unlock()
	if s.reg.Count() != 0 || len(s.templates) != 0 {
		return &SnapshotError{Op: "load", Err: fmt.Errorf("LoadState requires a fresh System")}
	}

	in, reason := decodeSnapshot(r)
	if reason != "" {
		report.damaged("%s", reason)
		return nil // degrade to cold
	}
	if in.DBScale != s.opts.TPCH.Scale || in.DBSeed != s.opts.TPCH.Seed {
		return &SnapshotError{Op: "load", Err: fmt.Errorf(
			"state was learned on database scale=%d seed=%d, this system has scale=%d seed=%d",
			in.DBScale, in.DBSeed, s.opts.TPCH.Scale, s.opts.TPCH.Seed)}
	}
	// Rebuild the registry with identical dense ids.
	for want, fp := range in.Fingerprints {
		if got := s.reg.ID(fp); got != want {
			return &SnapshotError{Op: "load", Err: fmt.Errorf(
				"registry rebuild mismatch: %q -> %d, want %d", fp, got, want)}
		}
	}
	// Re-register templates and restore their learners. A synopsis that
	// fails to decode leaves that template cold rather than failing the
	// whole restore.
	for _, st := range in.Templates {
		if err := s.registerLocked(st.Name, st.SQL); err != nil {
			return err
		}
		if derr := s.templates[st.Name].online.DecodeState(bytes.NewReader(st.Learner)); derr != nil {
			report.damaged("template %s synopsis: %v", st.Name, derr)
			report.ColdTemplates = append(report.ColdTemplates, st.Name)
			// Replace the half-decoded learner with a cold one.
			if rerr := s.recreateLearnerLocked(st.Name); rerr != nil {
				return rerr
			}
			continue
		}
		report.Templates++
	}
	// Restore the cached plans through cachePlan, least recently used first
	// as CacheMRU lists them: the restored cache has the saver's recency
	// order, and a snapshot taken under a larger CacheCapacity keeps its
	// most recent plans within this System's bound — the cache is the only
	// plan index, so nothing can be served from outside it. Every restored
	// tree is recompiled through newCachedPlan, so a restored plan serves
	// exactly like a freshly optimized one. A plan without a tree, one whose
	// owning template is not in the snapshot, or one that no longer compiles
	// is dropped and reported (Run re-optimizes on demand). Compilation runs
	// outside cacheMu, like everywhere else (regMu > cacheMu).
	saved := make(map[int]*savedPlan, len(in.Plans))
	for i := range in.Plans {
		saved[in.Plans[i].ID] = &in.Plans[i]
	}
	for _, id := range in.CacheMRU {
		sp := saved[id]
		if sp == nil {
			continue
		}
		owner := s.templates[sp.Template]
		if sp.Root == nil || owner == nil {
			report.damaged("plan %d has no tree or unknown template %q", id, sp.Template)
			continue
		}
		entry, err := s.newCachedPlan(owner, id, &optimizer.Plan{Root: sp.Root, Cost: sp.Cost, Fingerprint: sp.Print})
		if err != nil {
			report.damaged("plan %d: %v", id, err)
			continue
		}
		s.cachePlan(entry)
		report.Plans++
	}
	return nil
}

// decodeSnapshot validates the envelope and decodes the payload. It
// returns a non-empty reason string when the stream is corrupt.
func decodeSnapshot(r io.Reader) (*savedSystem, string) {
	var magic [len(snapMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Sprintf("short header: %v", err)
	}
	if string(magic[:]) != snapMagic {
		return nil, "bad magic (not a PPC snapshot)"
	}
	var u16 [2]byte
	if _, err := io.ReadFull(r, u16[:]); err != nil {
		return nil, fmt.Sprintf("short version: %v", err)
	}
	if v := binary.LittleEndian.Uint16(u16[:]); v != snapVersion {
		return nil, fmt.Sprintf("unsupported snapshot version %d", v)
	}
	var u64 [8]byte
	if _, err := io.ReadFull(r, u64[:]); err != nil {
		return nil, fmt.Sprintf("short length: %v", err)
	}
	n := binary.LittleEndian.Uint64(u64[:])
	if n > maxSnapBody {
		return nil, fmt.Sprintf("implausible payload length %d", n)
	}
	var u32 [4]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return nil, fmt.Sprintf("short checksum: %v", err)
	}
	want := binary.LittleEndian.Uint32(u32[:])
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Sprintf("truncated payload: %v", err)
	}
	if got := crc32.Checksum(body, snapCRC); got != want {
		return nil, fmt.Sprintf("checksum mismatch: got %08x want %08x", got, want)
	}
	var in savedSystem
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&in); err != nil {
		return nil, fmt.Sprintf("payload decode: %v", err)
	}
	return &in, ""
}

// recreateLearnerLocked replaces a template's learner with a cold one
// (used when its saved synopsis is corrupt). The old state's background
// applier is stopped first so the re-registration cannot leak a goroutine.
// Callers hold s.regMu.
func (s *System) recreateLearnerLocked(name string) error {
	st := s.templates[name]
	tmpl := st.tmpl
	sql := tmpl.SQL
	st.shutdown()
	delete(s.templates, name)
	// Cold means cold: a half-restored correction state is dropped with the
	// learner (re-registration creates a fresh one).
	if s.stats != nil {
		s.stats.Drop(name)
	}
	return s.registerLocked(name, sql)
}

// encodeLearners is the walk SaveState and ReplicationSnapshot share: every
// registered template in name order — mailbox flushed, so every point Run
// has acknowledged is in the synopsis, then the learner encoded under its
// own write lock — handed to visit, and afterwards the dense plan
// fingerprint table. The registry is append-only, so collecting it AFTER
// the learners guarantees it names every plan id a synopsis references.
func (s *System) encodeLearners(visit func(st *templateState, learner []byte)) ([]string, error) {
	for _, st := range s.statesByName() {
		st.flush()
		var buf bytes.Buffer
		if err := st.online.EncodeState(&buf); err != nil {
			return nil, fmt.Errorf("template %s: %w", st.tmpl.Name, err)
		}
		visit(st, buf.Bytes())
	}
	var fingerprints []string
	for id := 0; ; id++ {
		fp := s.reg.Fingerprint(id)
		if fp == "" {
			return fingerprints, nil
		}
		fingerprints = append(fingerprints, fp)
	}
}
