package obsv

import (
	"sync/atomic"
	"time"
)

// ReplObs holds the replication layer's process-wide metrics. One type
// serves both roles — a leader populates the shipping side (snapshots sent,
// records shipped, follower counts, slowest-follower lag), a replica the
// consuming side (records applied, reconnects, fence discards, replication
// lag) — so the facade exposes a single gauge surface regardless of role.
// Like every obsv type it is a lock-free leaf: single atomic operations
// only, safe to call from the ship loop, the replica's apply loop and the
// metrics handler concurrently.
type ReplObs struct {
	// Leader side.
	followers        atomic.Int64  // currently connected replicas
	snapshotsSent    atomic.Uint64 // full state transfers completed
	snapshotBytes    atomic.Uint64
	recordsShipped   atomic.Uint64 // WAL records forwarded to followers
	shipErrors       atomic.Uint64 // failed sends (slow follower, dead conn)
	admissionDenials atomic.Uint64 // handshakes rejected over the ship cap
	minFollowerAck   atomic.Uint64 // lowest acked seq across live followers

	// Replica side.
	recordsApplied atomic.Uint64 // shipped records applied to the synopsis
	snapshotsInst  atomic.Uint64 // snapshots installed
	staleSnapshots atomic.Uint64 // same-epoch snapshots rejected as older
	fenceDiscards  atomic.Uint64 // state discarded on an epoch change
	reconnects     atomic.Uint64 // sessions re-established after a failure
	badFrames      atomic.Uint64 // frames dropped for CRC/format errors
	leaderSeq      atomic.Uint64 // newest leader WAL seq heard (heartbeat)
	appliedSeq     atomic.Uint64 // newest seq applied locally
	epoch          atomic.Uint64 // leader lineage epoch fenced to
	connected      atomic.Bool

	snapshotInstall Hist // replica-side install latency
}

// --- leader side ------------------------------------------------------------

// FollowerConnected / FollowerDisconnected track the live follower gauge.
func (o *ReplObs) FollowerConnected() { o.followers.Add(1) }

// FollowerDisconnected decrements the live follower gauge.
func (o *ReplObs) FollowerDisconnected() { o.followers.Add(-1) }

// CountSnapshotSent records one completed full state transfer.
func (o *ReplObs) CountSnapshotSent(bytes int) {
	o.snapshotsSent.Add(1)
	o.snapshotBytes.Add(uint64(bytes))
}

// CountRecordsShipped records n WAL records forwarded to a follower.
func (o *ReplObs) CountRecordsShipped(n int) { o.recordsShipped.Add(uint64(n)) }

// CountShipError records a failed send to a follower.
func (o *ReplObs) CountShipError() { o.shipErrors.Add(1) }

// CountAdmissionDenial records a handshake rejected over the ship cap.
func (o *ReplObs) CountAdmissionDenial() { o.admissionDenials.Add(1) }

// SetMinFollowerAck publishes the lowest acknowledged sequence across live
// followers (0 when no followers are connected).
func (o *ReplObs) SetMinFollowerAck(seq uint64) { o.minFollowerAck.Store(seq) }

// --- replica side -----------------------------------------------------------

// CountRecordsApplied records n shipped records applied locally.
func (o *ReplObs) CountRecordsApplied(n int) { o.recordsApplied.Add(uint64(n)) }

// RecordSnapshotInstall records one installed snapshot and its latency.
func (o *ReplObs) RecordSnapshotInstall(d time.Duration) {
	o.snapshotsInst.Add(1)
	o.snapshotInstall.Record(d)
}

// CountStaleSnapshot records a same-epoch snapshot rejected as older than
// the state already held.
func (o *ReplObs) CountStaleSnapshot() { o.staleSnapshots.Add(1) }

// CountFenceDiscard records local state discarded on an epoch change.
func (o *ReplObs) CountFenceDiscard() { o.fenceDiscards.Add(1) }

// CountReconnect records a session re-established after a failure.
func (o *ReplObs) CountReconnect() { o.reconnects.Add(1) }

// CountBadFrame records a frame dropped for a CRC or format error.
func (o *ReplObs) CountBadFrame() { o.badFrames.Add(1) }

// SetLeaderSeq publishes the newest leader WAL sequence heard.
func (o *ReplObs) SetLeaderSeq(seq uint64) { o.leaderSeq.Store(seq) }

// SetAppliedSeq publishes the newest sequence applied locally.
func (o *ReplObs) SetAppliedSeq(seq uint64) { o.appliedSeq.Store(seq) }

// SetEpoch publishes the leader lineage epoch the state is fenced to.
func (o *ReplObs) SetEpoch(epoch uint64) { o.epoch.Store(epoch) }

// SetConnected publishes the session liveness gauge.
func (o *ReplObs) SetConnected(up bool) { o.connected.Store(up) }

// LagRecords returns the replication lag in records: how far the local
// applied sequence trails the newest leader sequence heard.
func (o *ReplObs) LagRecords() uint64 {
	leader, applied := o.leaderSeq.Load(), o.appliedSeq.Load()
	if leader <= applied {
		return 0
	}
	return leader - applied
}

// ReplSnapshot is the JSON form of the replication metrics (part of the
// metrics snapshot).
type ReplSnapshot struct {
	// Leader side.
	Followers        int64  `json:"followers"`
	SnapshotsSent    uint64 `json:"snapshots_sent"`
	SnapshotBytes    uint64 `json:"snapshot_bytes"`
	RecordsShipped   uint64 `json:"records_shipped"`
	ShipErrors       uint64 `json:"ship_errors"`
	AdmissionDenials uint64 `json:"admission_denials"`
	MinFollowerAck   uint64 `json:"min_follower_ack"`

	// Replica side.
	RecordsApplied     uint64 `json:"records_applied"`
	SnapshotsInstalled uint64 `json:"snapshots_installed"`
	StaleSnapshots     uint64 `json:"stale_snapshots"`
	FenceDiscards      uint64 `json:"fence_discards"`
	Reconnects         uint64 `json:"reconnects"`
	BadFrames          uint64 `json:"bad_frames"`
	LeaderSeq          uint64 `json:"leader_seq"`
	AppliedSeq         uint64 `json:"applied_seq"`
	// LagRecords is LeaderSeq - AppliedSeq clamped at zero: how many
	// acknowledged feedback records the local state trails the leader by.
	LagRecords uint64 `json:"lag_records"`
	Epoch      uint64 `json:"epoch"`
	Connected  bool   `json:"connected"`

	SnapshotInstallLatency HistSnapshot `json:"snapshot_install_latency"`
}

// Snapshot copies the counters and derives the lag gauge.
func (o *ReplObs) Snapshot() ReplSnapshot {
	return ReplSnapshot{
		Followers:              o.followers.Load(),
		SnapshotsSent:          o.snapshotsSent.Load(),
		SnapshotBytes:          o.snapshotBytes.Load(),
		RecordsShipped:         o.recordsShipped.Load(),
		ShipErrors:             o.shipErrors.Load(),
		AdmissionDenials:       o.admissionDenials.Load(),
		MinFollowerAck:         o.minFollowerAck.Load(),
		RecordsApplied:         o.recordsApplied.Load(),
		SnapshotsInstalled:     o.snapshotsInst.Load(),
		StaleSnapshots:         o.staleSnapshots.Load(),
		FenceDiscards:          o.fenceDiscards.Load(),
		Reconnects:             o.reconnects.Load(),
		BadFrames:              o.badFrames.Load(),
		LeaderSeq:              o.leaderSeq.Load(),
		AppliedSeq:             o.appliedSeq.Load(),
		LagRecords:             o.LagRecords(),
		Epoch:                  o.epoch.Load(),
		Connected:              o.connected.Load(),
		SnapshotInstallLatency: o.snapshotInstall.Snapshot(),
	}
}
