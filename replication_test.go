package ppc

// End-to-end replication tests against a real System: the leader facade
// (replication.go) feeding internal/replica over TCP. The process-boundary
// variant (SIGKILL the leader binary under load) lives in
// cmd/ppcreplica/main_test.go; these cover the in-process contracts —
// lineage stability, snapshot equivalence, convergence after a leader
// restart on the same durability directory.

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/netproto"
	"repro/internal/replica"
)

// The leader System is the ship source the replica server runs against.
var _ replica.ShipSource = (*System)(nil)

func fastServe(t *testing.T, sys *System) *replica.Server {
	t.Helper()
	srv, err := replica.Serve(replica.Config{Addr: "127.0.0.1:0", Source: sys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return srv
}

func fastReplica(t *testing.T, addr string) *replica.State {
	t.Helper()
	rep, err := replica.Start(replica.Options{LeaderAddr: addr, BackoffMin: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() }) //nolint:errcheck
	return rep.State()
}

func waitReplica(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// quiesce flushes every template's applier so the learner state, the WAL
// and the stats all agree before a comparison.
func quiesce(t *testing.T, sys *System) {
	t.Helper()
	for _, name := range sys.TemplateNames() {
		st, err := sys.lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		st.flush()
	}
}

// TestReplicationLineageStableAcrossRestart holds the lineage rule: a
// restart that recovers everything the log acknowledged keeps the lineage,
// so replicas may resume; one that lost anything starts a new one, made
// durable before Open returns. Each row restarts a copy of one leader's
// directory, a checkpoint and a WAL tail past it, after its own damage.
func TestReplicationLineageStableAcrossRestart(t *testing.T) {
	small := func(o *Options) { o.walSegmentBytes = 1 << 10 }
	dir := t.TempDir()
	sys := openDurable(t, dir, small)
	epoch, err := sys.ReplicationEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if epoch == 0 {
		t.Fatal("zero lineage epoch")
	}
	runDurableWorkload(t, sys, 60, 3)
	quiesce(t, sys)
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runDurableWorkload(t, sys, 120, 4)
	quiesce(t, sys)
	if got, _ := sys.ReplicationEpoch(); got != epoch {
		t.Fatalf("the lineage changed under a running leader: %x -> %x", epoch, got)
	}
	if n := len(walSegments(t, dir)); n < 2 {
		t.Fatalf("the WAL holds %d segment; the quarantine row is vacuous", n)
	}

	// rewriteCheckpoint rewrites the checkpoint, CRC-valid, after mutate.
	rewriteCheckpoint := func(t *testing.T, dir string, mutate func(*netproto.Snapshot)) {
		path := filepath.Join(dir, checkpointName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := netproto.ReadSnapshotFile(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if snap.Epoch != epoch {
			t.Fatalf("the checkpoint carries epoch %x, the leader %x", snap.Epoch, epoch)
		}
		mutate(snap)
		if data, err = netproto.AppendSnapshotFile(nil, snap); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	undecodable := func(s *netproto.Snapshot) { s.Templates[0].State = s.Templates[0].State[:10] }

	for _, c := range []struct {
		name string
		same bool
		// damage turns a crash image of the running leader into the
		// directory the row restarts.
		damage func(t *testing.T, dir string)
	}{
		{"crash image", true, func(*testing.T, string) {}},
		{"torn tail", true, func(t *testing.T, dir string) {
			seg := lastSegment(t, dir)
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			corruptFile(t, seg, info.Size()-10)
			if mustScan(t, dir).TornBytes == 0 {
				t.Fatal("no torn tail; the row is vacuous")
			}
		}},
		{"corrupt checkpoint", false, func(t *testing.T, dir string) {
			corruptFile(t, filepath.Join(dir, checkpointName), 32)
		}},
		{"synopsis that does not decode", false, func(t *testing.T, dir string) {
			rewriteCheckpoint(t, dir, undecodable)
		}},
		{"WAL quarantine", false, func(t *testing.T, dir string) {
			corruptFile(t, walSegments(t, dir)[0], 64)
			if len(mustScan(t, dir).QuarantinedSegments) == 0 {
				t.Fatal("no segment quarantined; the row is vacuous")
			}
		}},
		{"deleted checkpoint", false, func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, checkpointName)); err != nil {
				t.Fatal(err)
			}
		}},
		{"checkpoint stamped 0", false, func(t *testing.T, dir string) {
			rewriteCheckpoint(t, dir, func(s *netproto.Snapshot) { s.Epoch = 0 })
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			image := crashImage(t, dir)
			c.damage(t, image)
			restarted := openDurable(t, image, small)
			defer restarted.Close() //nolint:errcheck
			got, err := restarted.ReplicationEpoch()
			if err != nil {
				t.Fatal(err)
			}
			if rep := restarted.LoadStateReport(); c.same && rep.Corrupt {
				t.Errorf("a recovery that kept everything reported damage: %s", rep.Reason)
			}
			if got == 0 || (got == epoch) != c.same {
				t.Fatalf("restarted under epoch %x from %x; same lineage %v", got, epoch, c.same)
			}
			// The lineage is durable when Open returns: a crash right
			// after it restarts into the same one.
			again := openDurable(t, crashImage(t, image), small)
			defer again.Close() //nolint:errcheck
			if e, _ := again.ReplicationEpoch(); e != got {
				t.Errorf("a crash after Open restarted under epoch %x, want %x", e, got)
			}
			onlyCheckpointAndWAL(t, image)
		})
	}

	// A new lineage that cannot be checkpointed fails Open, here after
	// recovery registered Q1 cold.
	blocked := crashImage(t, dir)
	rewriteCheckpoint(t, blocked, undecodable)
	if err := os.Mkdir(filepath.Join(blocked, checkpointName+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	var serr *SnapshotError
	if _, err := Open(durableOptions(blocked, small)); !errors.As(err, &serr) {
		t.Errorf("Open whose new lineage cannot be checkpointed: %v, want a *SnapshotError", err)
	}

	// A clean Close and reopen keeps the lineage.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openDurable(t, dir, small)
	defer reopened.Close() //nolint:errcheck
	if got, _ := reopened.ReplicationEpoch(); got != epoch {
		t.Errorf("lineage changed across a same-dir restart: %x -> %x", epoch, got)
	}

	// A fresh directory is a new lineage.
	other := openDurable(t, t.TempDir(), nil)
	defer other.Close() //nolint:errcheck
	if got, _ := other.ReplicationEpoch(); got == epoch || got == 0 {
		t.Errorf("a fresh directory's lineage epoch is %x (the first leader's is %x)", got, epoch)
	}

	// Without durability there is no lineage to ship.
	cold := openSmall(t)
	defer cold.Close() //nolint:errcheck
	if _, err := cold.ReplicationEpoch(); err == nil {
		t.Error("lineage epoch without a WAL")
	}
}

// onlyCheckpointAndWAL holds a durability directory to the checkpoint and
// the WAL directory: the lineage lives in the checkpoint, in no file of its
// own.
func onlyCheckpointAndWAL(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{checkpointName, "wal"}; !reflect.DeepEqual(names, want) {
		t.Errorf("durability directory holds %v, want %v", names, want)
	}
}

// TestLeaderReplicaEquivalenceEndToEnd is the acceptance criterion against
// the real System: a converged replica answers the wire predict RPC
// bit-identically to the leader at every probed point.
func TestLeaderReplicaEquivalenceEndToEnd(t *testing.T) {
	sys := openDurable(t, t.TempDir(), nil)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 250, 17)

	srv := fastServe(t, sys)
	st := fastReplica(t, srv.Addr())
	waitReplica(t, "snapshot install", st.Ready)

	runDurableWorkload(t, sys, 150, 19) // live tail while connected
	quiesce(t, sys)
	waitReplica(t, "catch-up", func() bool {
		return st.ReceivedSeq() == sys.WALLastSeq()
	})

	tmpl, err := sys.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}
	grid := probeGrid(tmpl.Degree(), 12)
	hits := 0
	for i, point := range grid {
		req := netproto.PredictRequest{ID: uint64(i), Template: "Q1", Point: point}
		l, r := sys.PredictRPC(req), st.PredictRPC(req)
		if l.Status != r.Status || l.Plan != r.Plan || l.Confidence != r.Confidence ||
			l.Cost != r.Cost || l.CostKnown != r.CostKnown ||
			l.Fingerprint != r.Fingerprint || l.Epoch != r.Epoch {
			t.Fatalf("diverged at %v:\nleader  %+v\nreplica %+v", point, l, r)
		}
		if l.Status == netproto.StatusOK {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no OK predictions across the probe grid; equivalence vacuous")
	}
	// A NaN coordinate is no plan-space point, on either side.
	nan := netproto.PredictRequest{Template: "Q1", Point: []float64{math.NaN(), math.NaN()}}
	if l, r := sys.PredictRPC(nan), st.PredictRPC(nan); l.Status != netproto.StatusBadRequest || r.Status != netproto.StatusBadRequest {
		t.Errorf("a NaN point answered %d by the leader, %d by the replica; want %d", l.Status, r.Status, netproto.StatusBadRequest)
	}
	if lag := st.Obs().LagRecords(); lag != 0 {
		t.Errorf("converged replica reports lag %d", lag)
	}
}

// TestLeaderRestartReplicaConvergence restarts the leader on the same
// durability directory while the replica keeps serving, then checks the
// replica reconnects into the same lineage and converges with no
// acknowledged feedback lost (the recovered leader replays its WAL; the
// replica's per-template watermarks absorb the overlap).
func TestLeaderRestartReplicaConvergence(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil)
	tmpl, err := sys.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}
	probe := make([]float64, tmpl.Degree())
	for i := range probe {
		probe[i] = 0.3
	}
	runDurableWorkload(t, sys, 200, 23)
	quiesce(t, sys)
	ackedSeq := sys.WALLastSeq()

	srv := fastServe(t, sys)
	addr := srv.Addr()
	st := fastReplica(t, addr)
	waitReplica(t, "install", func() bool {
		return st.Ready() && st.ReceivedSeq() >= ackedSeq
	})
	epoch := st.Epoch()

	// Leader goes away. The replica keeps answering from installed state.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	res := st.PredictRPC(netproto.PredictRequest{Template: "Q1", Point: probe})
	if res.Status == netproto.StatusNotReady {
		t.Fatal("replica stopped serving while the leader was down")
	}

	// Leader restarts on the same directory — same lineage, recovered WAL —
	// and keeps taking writes.
	sys2 := openDurable(t, dir, nil)
	defer sys2.Close() //nolint:errcheck
	runDurableWorkload(t, sys2, 120, 29)
	quiesce(t, sys2)

	srv2, err := replica.Serve(replica.Config{Addr: addr, Source: sys2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close() //nolint:errcheck

	waitReplica(t, "post-restart convergence", func() bool {
		return st.ReceivedSeq() == sys2.WALLastSeq()
	})
	if st.Epoch() != epoch {
		t.Errorf("lineage changed across a same-dir leader restart: %x -> %x", epoch, st.Epoch())
	}
	if st.Obs().Snapshot().FenceDiscards != 0 {
		t.Error("same-lineage restart discarded replica state")
	}
	// Nothing acknowledged before the restart may be missing: the replica's
	// position covers the pre-restart tail and beyond.
	if st.ReceivedSeq() < ackedSeq {
		t.Errorf("replica at seq %d, below the pre-restart acknowledged tail %d", st.ReceivedSeq(), ackedSeq)
	}
}

// TestLeaderRestartCorruptCheckpointNewLineage: the leader restarts over
// its own directory, but its checkpoint fails its CRC, so it recovers only
// the WAL tail compaction left. That is a new lineage: the replica, which
// applied everything before the restart, must discard its state once and
// install the leader's, not resume on top of what the leader lost.
func TestLeaderRestartCorruptCheckpointNewLineage(t *testing.T) {
	small := func(o *Options) { o.walSegmentBytes = 1 << 10 }
	dir := t.TempDir()
	sys := openDurable(t, dir, small)
	runDurableWorkload(t, sys, 200, 23)
	quiesce(t, sys) // the compaction bound is what the learner has applied
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runDurableWorkload(t, sys, 60, 24)
	quiesce(t, sys)

	srv := fastServe(t, sys)
	addr := srv.Addr()
	st := fastReplica(t, addr)
	waitReplica(t, "install", func() bool {
		return st.Ready() && st.ReceivedSeq() == sys.WALLastSeq()
	})
	epoch := st.Epoch()
	if sys.WALFirstSeq() <= 1 {
		t.Fatal("the WAL was never compacted; the restart loses nothing")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	corruptFile(t, filepath.Join(dir, checkpointName), 32)
	sys2 := openDurable(t, dir, small)
	defer sys2.Close() //nolint:errcheck
	if rep := sys2.LoadStateReport(); !rep.Corrupt || rep.WALReplayed == 0 {
		t.Fatalf("restart over a corrupt checkpoint: %+v", rep)
	}
	srv2, err := replica.Serve(replica.Config{Addr: addr, Source: sys2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close() //nolint:errcheck
	runDurableWorkload(t, sys2, 40, 29)
	quiesce(t, sys2)
	waitReplica(t, "post-restart convergence", func() bool {
		return st.ReceivedSeq() == sys2.WALLastSeq()
	})
	if st.Epoch() == epoch {
		t.Errorf("the replica still holds lineage %x after a restart that lost state", epoch)
	}
	if n := st.Obs().Snapshot().FenceDiscards; n != 1 {
		t.Errorf("the replica discarded its state %d times, want 1", n)
	}
	learnerParity(t, sys2, st, "Q1")
	onlyCheckpointAndWAL(t, dir)
}

// TestLeaderRestartFromOlderImageResnapshotsReplica: the leader restarts
// from a crash image older than the replica's position, a clean recovery in
// the same lineage. The replica is past the leader's log, so the sequence
// numbers it would resume from will name records it never saw; it must get
// a snapshot and end byte-equal to the leader once the leader has written
// past the replica's old position.
func TestLeaderRestartFromOlderImageResnapshotsReplica(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil)
	runDurableWorkload(t, sys, 150, 23)
	quiesce(t, sys)
	srv := fastServe(t, sys)
	addr := srv.Addr()
	st := fastReplica(t, addr)
	waitReplica(t, "install", st.Ready)
	image := crashImage(t, dir)

	runDurableWorkload(t, sys, 60, 24)
	quiesce(t, sys)
	waitReplica(t, "catch-up", func() bool {
		return st.ReceivedSeq() == sys.WALLastSeq()
	})
	ahead := st.ReceivedSeq()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2 := openDurable(t, image, nil)
	defer sys2.Close() //nolint:errcheck
	if e, _ := sys2.ReplicationEpoch(); e != st.Epoch() {
		t.Fatalf("the older image restarted under epoch %x, want the same lineage %x", e, st.Epoch())
	}
	if sys2.WALLastSeq() >= ahead {
		t.Fatalf("the restarted leader is at seq %d, not behind the replica's %d", sys2.WALLastSeq(), ahead)
	}
	srv2, err := replica.Serve(replica.Config{Addr: addr, Source: sys2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close() //nolint:errcheck
	waitReplica(t, "reconnect", func() bool { return sys2.ReplObs().Snapshot().Followers == 1 })

	for sys2.WALLastSeq() <= ahead {
		runDurableWorkload(t, sys2, 40, int64(sys2.WALLastSeq()))
		quiesce(t, sys2)
	}
	waitReplica(t, "post-restart convergence", func() bool {
		return st.ReceivedSeq() == sys2.WALLastSeq()
	})
	if n := st.Obs().Snapshot().FenceDiscards; n != 0 {
		t.Errorf("a same-lineage restart discarded replica state %d times", n)
	}
	learnerParity(t, sys2, st, "Q1")
}

// TestLeaderReplicaCorrectionParity: the adaptive-statistics state ships
// with the learner — the snapshot carries the corrections section inside
// the EncodeState bytes and the stream carries kind-2 WAL records — so a
// converged replica holds correction factors identical to the leader's.
func TestLeaderReplicaCorrectionParity(t *testing.T) {
	sys := openDurable(t, t.TempDir(), nil)
	defer sys.Close() //nolint:errcheck
	runDurableWorkload(t, sys, 150, 17)

	srv := fastServe(t, sys)
	st := fastReplica(t, srv.Addr())
	waitReplica(t, "snapshot install", st.Ready)

	// Live corrections accumulate while the replica tails the stream.
	runDurableWorkload(t, sys, 100, 19)
	quiesce(t, sys)
	waitReplica(t, "catch-up", func() bool {
		return st.ReceivedSeq() == sys.WALLastSeq()
	})

	lst, err := sys.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if lst.tmpl.Query.Corr == nil {
		t.Fatal("leader has no correction state; parity is vacuous")
	}
	if _, lSeq, _ := lst.tmpl.Query.Corr.State(); lSeq == 0 {
		t.Fatal("leader logged no corrections; parity is vacuous")
	}
	// The whole learner state — synopsis, counters and the corrections
	// section — is byte-identical, so the factors an epoch's predictions
	// cost through are too.
	learnerParity(t, sys, st, "Q1")
}

// learnerParity holds a replica's learner state for one template byte-equal
// to the leader's EncodeState.
func learnerParity(t *testing.T, sys *System, st *replica.State, template string) {
	t.Helper()
	lst, err := sys.lookup(template)
	if err != nil {
		t.Fatal(err)
	}
	leader := lst.online.EncodeState(nil)
	rep, err := st.EncodeState(nil, template)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(leader, rep) {
		t.Errorf("%s: replica learner state (%d bytes) differs from the leader's (%d bytes)", template, len(rep), len(leader))
	}
}

func TestReplicationMetricsSurface(t *testing.T) {
	sys := openDurable(t, t.TempDir(), nil)
	defer sys.Close() //nolint:errcheck
	snap, err := sys.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Replication == nil {
		t.Fatal("durable system snapshot has no replication section")
	}

	cold := openSmall(t)
	defer cold.Close() //nolint:errcheck
	coldSnap, err := cold.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if coldSnap.Replication != nil {
		t.Error("cold system reports replication metrics")
	}
}

// probeGrid returns dims-dimensional probe points: an n-per-axis grid over
// the first two coordinates (any further coordinates pinned to 0.3, so the
// grid stays quadratic regardless of template degree).
func probeGrid(dims, n int) [][]float64 {
	var out [][]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := make([]float64, dims)
			for k := range p {
				p[k] = 0.3
			}
			p[0] = float64(i) / float64(n-1)
			if dims > 1 {
				p[1] = float64(j) / float64(n-1)
			}
			out = append(out, p)
			if dims == 1 {
				break
			}
		}
	}
	return out
}
