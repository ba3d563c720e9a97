// Package replica implements the networked serving tier of the PPC system:
// a leader-side ship server that streams learned state to followers over
// the netproto wire format, and a predict-only replica that installs a
// full snapshot on connect, tails the leader's WAL records, and serves the
// lock-free predict path with no learner, optimizer or executor of its own.
//
// Replication unit and invariants:
//
//   - The snapshot is the one a checkpoint writes, without its plans: the
//     leader's per-template EncodeState bytes plus the dense plan
//     fingerprint table, read by netproto.DecodeSnapshot on both sides. A
//     replica that decodes them holds a learner state identical to the
//     leader's at encode time, so predictions are bit-identical for the
//     same snapshot epoch.
//   - The incremental stream is the leader's WAL records, shipped in their
//     on-disk frame encoding. Replicas apply them through the same
//     idempotent ReplayRecords crash recovery uses: per-template applied-
//     sequence watermarks make the snapshot/stream overlap harmless, and
//     record epochs reproduce drift resets.
//   - Epoch fencing: every stream is stamped with the leader's lineage
//     epoch (a random 64-bit value its checkpoint carries, new whenever a
//     leader's recovery lost anything). A replica
//     reconnecting to a different lineage discards everything it holds
//     before installing the new snapshot — stale state is never served
//     across a lineage change.
package replica

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netproto"
	"repro/internal/obsv"
	"repro/internal/wal"
)

// ErrEpochFenced reports a snapshot whose lineage epoch differs from the
// epoch the state is fenced to. Sessions fence before installing, so this
// only fires on a protocol violation (e.g. a frame from a dead session) —
// the stale snapshot is rejected, the held state keeps serving.
var ErrEpochFenced = errors.New("replica: snapshot rejected: lineage epoch is fenced")

// State is a replica's installed learned state: one predict-only
// core.Online per template plus the plan fingerprint table, all fenced to
// a single leader lineage epoch. Predictions run lock-free on the
// published model snapshots; Install/Fence/ApplyRecords serialize on an
// internal lock that PredictRPC only takes briefly (map fetch, not the
// predict itself).
type State struct {
	obs *obsv.ReplObs

	mu           sync.RWMutex
	epoch        uint64 // lineage epoch the state is fenced to (0 = none)
	receivedSeq  uint64 // newest WAL seq covered (snapshot base or applied)
	templates    map[string]*core.Online
	fingerprints []string
}

// NewState creates an empty replica state reporting into obs (nil for a
// private, unexported gauge set).
func NewState(obs *obsv.ReplObs) *State {
	if obs == nil {
		obs = &obsv.ReplObs{}
	}
	return &State{obs: obs, templates: make(map[string]*core.Online)}
}

// Obs returns the state's replication gauges.
func (s *State) Obs() *obsv.ReplObs { return s.obs }

// Epoch returns the lineage epoch the state is fenced to (0 when empty).
func (s *State) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// ReceivedSeq returns the newest WAL sequence the state covers — the
// resume position a reconnecting session advertises.
func (s *State) ReceivedSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.receivedSeq
}

// Ready reports whether a snapshot has been installed (a replica answers
// StatusNotReady until then).
func (s *State) Ready() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.templates) > 0
}

// Templates returns the installed template names (unordered).
func (s *State) Templates() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.templates))
	for n := range s.templates {
		names = append(names, n)
	}
	return names
}

// Fence pins the state to a lineage epoch. Crossing lineages — the state
// holds templates from one epoch and the leader now reports another —
// discards everything first: serving another lineage's predictions is the
// failure mode epoch fencing exists to prevent. Returns true when state
// was discarded.
func (s *State) Fence(epoch uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	discarded := false
	if s.epoch != 0 && s.epoch != epoch && len(s.templates) > 0 {
		s.templates = make(map[string]*core.Online)
		s.fingerprints = nil
		s.receivedSeq = 0
		s.obs.CountFenceDiscard()
		discarded = true
	}
	s.epoch = epoch
	s.obs.SetEpoch(epoch)
	return discarded
}

// Install decodes and installs a full snapshot, replacing the held
// templates. A snapshot from a different lineage than the fenced epoch is
// rejected with ErrEpochFenced (stale by definition — it was cut by a
// leader this session is not talking to); the held state keeps serving. A
// decode failure rejects the snapshot atomically: the previously installed
// state survives untouched. An installed snapshot replaces the state
// wholesale, so the received position becomes its BaseSeq, even when the
// state held a later one.
func (s *State) Install(snap *netproto.Snapshot) error {
	t0 := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch != 0 && snap.Epoch != s.epoch {
		s.obs.CountStaleSnapshot()
		return fmt.Errorf("%w: snapshot epoch %x, fenced to %x", ErrEpochFenced, snap.Epoch, s.epoch)
	}
	fresh := make(map[string]*core.Online, len(snap.Templates))
	for _, t := range snap.Templates {
		o, err := core.NewReplicaOnline(t.State)
		if err != nil {
			return fmt.Errorf("replica: install template %s: %w", t.Name, err)
		}
		fresh[t.Name] = o
	}
	s.templates = fresh
	s.fingerprints = append([]string(nil), snap.Fingerprints...)
	s.epoch = snap.Epoch
	s.receivedSeq = snap.BaseSeq
	s.obs.SetEpoch(snap.Epoch)
	s.obs.SetAppliedSeq(s.receivedSeq)
	s.obs.RecordSnapshotInstall(time.Since(t0))
	return nil
}

// ApplyRecords feeds shipped WAL records into the installed learners
// through core.Online.ReplayRecords — the idempotent replay loop crash
// recovery uses, so leader recovery and replica hold the same state by
// construction. Records for templates the snapshot did not contain are
// counted skipped — the leader registered them after the snapshot was cut,
// and the next full snapshot covers them — as are stale and malformed
// records (the next snapshot reconciles). The received sequence advances
// over every record either way, so lag converges to zero even with unknown
// templates in the stream.
//
// A batch must continue what the state holds: its records run
// consecutively and its first is at most receivedSeq+1 (an overlap is
// replayed idempotently). A batch past a gap is refused with an error and
// changes nothing, so the session ends and the reconnect resumes from the
// position the state actually holds.
func (s *State) ApplyRecords(recs []wal.Record) (applied, skipped int, err error) {
	if len(recs) == 0 {
		return 0, 0, nil
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			return 0, 0, fmt.Errorf("replica: batch jumps from seq %d to %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
	byTemplate := wal.ByTemplate(recs)
	s.mu.Lock()
	defer s.mu.Unlock()
	if first := recs[0].Seq; first > s.receivedSeq+1 {
		return 0, 0, fmt.Errorf("replica: batch starts at seq %d, state holds up to %d", first, s.receivedSeq)
	}
	for name, stream := range byTemplate {
		o := s.templates[name]
		if o == nil {
			skipped += len(stream)
			continue
		}
		a, sk, stale := o.ReplayRecords(stream)
		applied += a
		skipped += sk + stale
	}
	if last := recs[len(recs)-1].Seq; last > s.receivedSeq {
		s.receivedSeq = last
	}
	s.obs.CountRecordsApplied(applied)
	s.obs.SetAppliedSeq(s.receivedSeq)
	return applied, skipped, nil
}

// EncodeState appends one installed template's learner state — synopsis,
// counters and the corrections section — to dst in core.Online's encoding.
// Parity audits compare it byte for byte against the leader's: a replica
// holds the leader's learned state exactly, not approximately.
func (s *State) EncodeState(dst []byte, template string) ([]byte, error) {
	s.mu.RLock()
	o := s.templates[template]
	s.mu.RUnlock()
	if o == nil {
		return dst, fmt.Errorf("replica: template %s not installed", template)
	}
	return o.EncodeState(dst), nil
}

// PredictRPC serves one wire predict request from the installed state:
// once the template resolves, core.Online.AnswerPredict — the body the
// leader's PredictRPC runs too, which is what makes replica answers
// bit-identical to the leader's for the same snapshot epoch.
func (s *State) PredictRPC(req netproto.PredictRequest) netproto.PredictResult {
	s.mu.RLock()
	o := s.templates[req.Template]
	fps := s.fingerprints
	empty := len(s.templates) == 0
	s.mu.RUnlock()
	if o == nil {
		res := netproto.PredictResult{ID: req.ID, Status: netproto.StatusNotReady}
		if !empty {
			res.Status = netproto.StatusUnknownTemplate
			res.ErrMsg = req.Template
		}
		return res
	}
	return o.AnswerPredict(req, func(plan int) string {
		if plan >= 0 && plan < len(fps) {
			return fps[plan]
		}
		return ""
	})
}
