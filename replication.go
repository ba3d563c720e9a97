package ppc

// Leader-side replication support: the System methods the ship server
// (internal/replica.Server) drives. A leader is simply a durable System —
// the WAL segments under the durability directory are the replication
// stream, and ReplicationSnapshot is the snapshot a checkpoint writes,
// minus its plans. Nothing here runs on the serving path.

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/netproto"
	"repro/internal/obsv"
	"repro/internal/wal"
)

// ReplicationEpoch returns the leader lineage epoch: a random 64-bit value
// fixed at Open and carried by every checkpoint. A leader that recovers
// everything its log acknowledged (a clean restart, or a crash that left only
// a torn tail) keeps its epoch, so replicas may resume. Any other Open — a
// first boot, a missing or damaged checkpoint, a template left cold, WAL
// quarantine — starts a new lineage: its history may lack what replicas
// applied, so every replica that reconnects discards its fenced-out state
// and installs a snapshot. Requires durability.
func (s *System) ReplicationEpoch() (uint64, error) {
	if s.wal == nil {
		return 0, errNoReplication
	}
	return s.lineage, nil
}

// errNoReplication reports a replication call on a System without a WAL.
var errNoReplication = errors.New("ppc: replication requires durability (Options.Durability.Dir)")

// mintLineage returns a fresh random lineage epoch. Zero is the protocol's
// "no epoch" sentinel; it is re-rolled (p = 2^-64).
func mintLineage() (uint64, error) {
	var buf [8]byte
	for {
		if _, err := rand.Read(buf[:]); err != nil {
			return 0, fmt.Errorf("ppc: mint lineage epoch: %w", err)
		}
		if e := binary.LittleEndian.Uint64(buf[:]); e != 0 {
			return e, nil
		}
	}
}

// ReplicationSnapshot assembles a full state transfer for a connecting
// replica: the snapshot a checkpoint writes, lineage epoch included, without
// its plans section, stamped with the WAL floor it covers. The floor is
// taken BEFORE the learners are encoded — applied-sequence watermarks only
// grow, so the encoded state reflects at least every record below it and
// the overlap with the shipped tail is deduplicated by per-template
// watermark replay on the replica.
func (s *System) ReplicationSnapshot() (*netproto.Snapshot, error) {
	if s.wal == nil {
		return nil, errNoReplication
	}
	baseSeq := s.checkpointMinSeq()
	snap := s.snapshot(false)
	snap.BaseSeq = baseSeq
	return snap, nil
}

// PredictRPC serves one wire predict request against the published model
// snapshots — the same lock-free path Run's learner decision uses, so a
// leader's RPC answer and its serving-path decision for the same point are
// the same prediction. Never invokes the optimizer and never feeds the
// learner: an RPC is a read.
func (s *System) PredictRPC(req netproto.PredictRequest) netproto.PredictResult {
	st, err := s.lookup(req.Template)
	if err != nil {
		return netproto.PredictResult{ID: req.ID, Status: netproto.StatusUnknownTemplate, ErrMsg: req.Template}
	}
	return st.online.AnswerPredict(req, s.reg.Fingerprint)
}

// Follow returns a follower of the WAL delivering the records past after —
// what the in-process ship server tails — or nil when durability is
// disabled.
func (s *System) Follow(after uint64) *wal.Follower {
	if s.wal == nil {
		return nil
	}
	return s.wal.Follow(after)
}

// WALFirstSeq returns the lowest WAL sequence still on disk — the resume
// floor: a replica whose state predates it needs a snapshot.
func (s *System) WALFirstSeq() uint64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.FirstSeq()
}

// WALLastSeq returns the newest assigned WAL sequence (the leader's tail,
// shipped in heartbeats so replicas can compute lag).
func (s *System) WALLastSeq() uint64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.LastSeq()
}

// ReplObs exposes the replication metrics leaf (leader shipping gauges).
func (s *System) ReplObs() *obsv.ReplObs { return s.obs.Repl() }

// ReplMetrics returns the replication metrics snapshot, or nil when no
// replication activity has been observed and durability is disabled (the
// gauge surface would be all zeros).
func (s *System) ReplMetrics() *obsv.ReplSnapshot {
	if s.wal == nil {
		return nil
	}
	snap := s.obs.Repl().Snapshot()
	return &snap
}
