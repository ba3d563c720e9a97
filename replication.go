package ppc

// Leader-side replication support: the System methods the ship server
// (internal/replica.Server) drives. A leader is simply a durable System —
// the WAL segments under the durability directory are the replication
// stream, and ReplicationSnapshot is the snapshot a checkpoint writes,
// minus its plans. Nothing here runs on the serving path.

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/netproto"
	"repro/internal/obsv"
	"repro/internal/wal"
)

// lineageName is the leader lineage epoch file under the durability
// directory.
const lineageName = "lineage.ppc"

// ReplicationEpoch returns the leader lineage epoch: a random 64-bit value
// minted on the durability directory's first use as a leader and persisted
// beside the checkpoint. A leader restarted over the same directory (crash
// recovery included) keeps its epoch — its WAL history is continuous, so
// replicas may resume. A leader started over a fresh directory mints a new
// epoch, and every replica that reconnects discards its fenced-out state
// instead of serving another lineage's predictions. Requires durability.
func (s *System) ReplicationEpoch() (uint64, error) {
	if s.wal == nil {
		return 0, fmt.Errorf("ppc: replication requires durability (Options.Durability.Dir)")
	}
	s.lineageOnce.Do(func() {
		s.lineage, s.lineageErr = loadOrMintLineage(s.opts.Durability.Dir)
	})
	return s.lineage, s.lineageErr
}

// loadOrMintLineage reads the persisted lineage epoch, minting and durably
// writing one on first use.
func loadOrMintLineage(dir string) (uint64, error) {
	path := filepath.Join(dir, lineageName)
	if data, err := os.ReadFile(path); err == nil && len(data) == 8 {
		if e := binary.LittleEndian.Uint64(data); e != 0 {
			return e, nil
		}
	}
	var buf [8]byte
	for {
		if _, err := rand.Read(buf[:]); err != nil {
			return 0, fmt.Errorf("ppc: mint lineage epoch: %w", err)
		}
		// Zero is the protocol's "no epoch" sentinel; re-roll (p = 2^-64).
		if binary.LittleEndian.Uint64(buf[:]) != 0 {
			break
		}
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("ppc: persist lineage epoch: %w", err)
	}
	if _, err := f.Write(buf[:]); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck
		return 0, fmt.Errorf("ppc: persist lineage epoch: %w", err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// ReplicationSnapshot assembles a full state transfer for a connecting
// replica: the snapshot a checkpoint writes, without its plans section,
// stamped with the lineage epoch and the WAL floor it covers. The floor is
// taken BEFORE the learners are encoded — applied-sequence watermarks only
// grow, so the encoded state reflects at least every record below it and
// the overlap with the shipped tail is deduplicated by per-template
// watermark replay on the replica.
func (s *System) ReplicationSnapshot() (*netproto.Snapshot, error) {
	epoch, err := s.ReplicationEpoch()
	if err != nil {
		return nil, err
	}
	baseSeq := s.checkpointMinSeq()
	snap := s.snapshot(false)
	snap.Epoch, snap.BaseSeq = epoch, baseSeq
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
