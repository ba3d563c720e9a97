package ppc

// End-to-end replication tests against a real System: the leader facade
// (replication.go) feeding internal/replica over TCP. The process-boundary
// variant (SIGKILL the leader binary under load) lives in
// cmd/ppcreplica/main_test.go; these cover the in-process contracts —
// lineage stability, snapshot equivalence, convergence after a leader
// restart on the same durability directory.

import (
	"bytes"
	"math"
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

func TestReplicationLineageStableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	sys := openDurable(t, dir, nil)
	epoch1, err := sys.ReplicationEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if epoch1 == 0 {
		t.Fatal("zero lineage epoch")
	}
	runDurableWorkload(t, sys, 40, 3)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Same directory, same lineage: replicas from before the restart can
	// resume instead of being fenced out.
	sys2 := openDurable(t, dir, nil)
	epoch2, err := sys2.ReplicationEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if epoch2 != epoch1 {
		t.Errorf("lineage changed across a same-dir restart: %x -> %x", epoch1, epoch2)
	}

	// A fresh directory is a new lineage.
	other := openDurable(t, t.TempDir(), nil)
	epoch3, err := other.ReplicationEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if epoch3 == epoch1 {
		t.Error("independent durability directories share a lineage epoch")
	}

	// Without durability there is no lineage to ship.
	cold := openSmall(t)
	defer cold.Close() //nolint:errcheck
	if _, err := cold.ReplicationEpoch(); err == nil {
		t.Error("lineage epoch without a WAL")
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
