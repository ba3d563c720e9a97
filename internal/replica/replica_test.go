package replica

// Leader/replica integration tests over real TCP with a fake ship source:
// a WAL-backed leader state the tests drive record by record, so every
// scenario — equivalence, epoch fencing, version skew, admission control,
// wire chaos — runs the full netproto stack without the weight of a whole
// ppc.System (the root package has the end-to-end variant).

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/obsv"
	"repro/internal/wal"
)

// stubEnv satisfies core.Environment for a learner that is only ever driven
// by replayed feedback, never by Step.
type stubEnv struct{}

func (stubEnv) Optimize([]float64) (int, float64, error) {
	return 0, 0, errors.New("stub env: no optimizer")
}
func (stubEnv) ExecuteCost([]float64, int) (float64, error) {
	return 0, errors.New("stub env: no executor")
}

var testFingerprints = []string{"plan-0", "plan-1", "plan-2", "plan-3"}

// fakeSource is a minimal leader: one template ("Q1") learned from records
// it appends to a real WAL and replays into its own learner — the same
// bytes a follower receives, so leader and replica states stay comparable.
type fakeSource struct {
	t     *testing.T
	log   *wal.Log
	epoch uint64
	obs   obsv.ReplObs

	mu     sync.Mutex
	online *core.Online
	rng    *rand.Rand
}

func newFakeSource(t *testing.T, epoch uint64) *fakeSource {
	t.Helper()
	log, _, err := wal.Open(wal.Options{Dir: t.TempDir(), SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() }) //nolint:errcheck
	return &fakeSource{
		t:     t,
		log:   log,
		epoch: epoch,
		online: core.MustNewOnline(core.OnlineConfig{
			Core: core.Config{Dims: 2, Radius: 0.08, Gamma: 0.8, Seed: 5},
			Seed: 17,
		}, stubEnv{}),
		rng: rand.New(rand.NewSource(int64(epoch) + 101)),
	}
}

func quadrantPlan(x []float64) int64 {
	p := int64(0)
	if x[0] > 0.5 {
		p |= 1
	}
	if x[1] > 0.5 {
		p |= 2
	}
	return p
}

// feed appends n validated feedback records to the WAL and applies them to
// the leader learner — what the serving path does under load.
func (f *fakeSource) feed(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := 0; i < n; i++ {
		x := []float64{f.rng.Float64(), f.rng.Float64()}
		rec := wal.Record{
			Template: "Q1",
			Plan:     quadrantPlan(x),
			Cost:     1 + x[0] + x[1],
			Point:    x,
		}
		if _, err := f.log.Append(&rec); err != nil {
			f.t.Error(err)
			return
		}
		f.online.ReplayRecords([]wal.Record{rec})
	}
	if err := f.log.Sync(); err != nil {
		f.t.Error(err)
	}
}

func (f *fakeSource) PredictRPC(req netproto.PredictRequest) netproto.PredictResult {
	f.mu.Lock()
	o := f.online
	f.mu.Unlock()
	res := netproto.PredictResult{ID: req.ID}
	if req.Template != "Q1" {
		res.Status = netproto.StatusUnknownTemplate
		res.ErrMsg = req.Template
		return res
	}
	pred, cost, costOK := o.PredictModel(req.Point)
	res.Epoch = o.Epoch()
	res.ModelVersion = o.Model().Version()
	if !pred.OK {
		res.Status = netproto.StatusNoPrediction
		return res
	}
	res.Status = netproto.StatusOK
	res.Plan = int64(pred.Plan)
	res.Confidence = pred.Confidence
	res.Cost, res.CostKnown = cost, costOK
	if pred.Plan >= 0 && pred.Plan < len(testFingerprints) {
		res.Fingerprint = testFingerprints[pred.Plan]
	}
	return res
}

func (f *fakeSource) ReplicationEpoch() (uint64, error) { return f.epoch, nil }

func (f *fakeSource) ReplicationSnapshot() (*netproto.Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	base := f.online.AppliedSeq()
	return &netproto.Snapshot{
		Epoch:        f.epoch,
		BaseSeq:      base,
		Templates:    []netproto.TemplateState{{Name: "Q1", State: f.online.EncodeState(nil)}},
		Fingerprints: append([]string(nil), testFingerprints...),
	}, nil
}

func (f *fakeSource) Follow(after uint64) *wal.Follower { return f.log.Follow(after) }
func (f *fakeSource) WALFirstSeq() uint64               { return f.log.FirstSeq() }
func (f *fakeSource) WALLastSeq() uint64                { return f.log.LastSeq() }
func (f *fakeSource) ReplObs() *obsv.ReplObs            { return &f.obs }

// fastConfig returns a loopback server for src.
func fastConfig(src ShipSource) Config {
	return Config{Addr: "127.0.0.1:0", Source: src}
}

// fastOptions returns options for a replica of addr that redials after 10ms.
func fastOptions(addr string, st *State) Options {
	return Options{LeaderAddr: addr, State: st, BackoffMin: 10 * time.Millisecond}
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestLeaderReplicaEquivalence is the equivalence acceptance criterion: a
// converged replica answers predict RPCs bit-identically to the leader —
// same plan, confidence, cost estimate and fingerprint at every grid point.
// (ModelVersion counts publishes, which legitimately differ by batching.)
func TestLeaderReplicaEquivalence(t *testing.T) {
	src := newFakeSource(t, 1)
	src.feed(600)

	srv, err := Serve(fastConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	rep, err := Start(fastOptions(srv.Addr(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck
	st := rep.State()

	waitUntil(t, 10*time.Second, "snapshot install", st.Ready)
	src.feed(300) // live tail while connected
	waitUntil(t, 10*time.Second, "replica catch-up", func() bool {
		return st.ReceivedSeq() == src.log.LastSeq()
	})

	// Leader quiesced; both sides hold state for the same record prefix.
	rng := rand.New(rand.NewSource(7))
	hits := 0
	for i := 0; i < 500; i++ {
		req := netproto.PredictRequest{
			ID: uint64(i), Template: "Q1",
			Point: []float64{rng.Float64(), rng.Float64()},
		}
		l, r := src.PredictRPC(req), st.PredictRPC(req)
		if l.Status != r.Status || l.Plan != r.Plan || l.Confidence != r.Confidence ||
			l.Cost != r.Cost || l.CostKnown != r.CostKnown || l.Fingerprint != r.Fingerprint ||
			l.Epoch != r.Epoch {
			t.Fatalf("diverged at %v:\nleader  %+v\nreplica %+v", req.Point, l, r)
		}
		if l.Status == netproto.StatusOK {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no OK predictions; equivalence check vacuous")
	}

	// Lag gauges: caught up means zero.
	if lag := st.Obs().LagRecords(); lag != 0 {
		t.Errorf("converged replica reports lag %d", lag)
	}
	waitUntil(t, 10*time.Second, "a follower ack", func() bool {
		return src.obs.Snapshot().MinFollowerAck > 0
	})
}

// TestReplicaReconnectResume kills the TCP session (not the leader) and
// checks the replica resumes the stream without a second snapshot.
func TestReplicaReconnectResume(t *testing.T) {
	src := newFakeSource(t, 1)
	src.feed(100)
	srv, err := Serve(fastConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	rep, err := Start(fastOptions(srv.Addr(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck
	st := rep.State()
	waitUntil(t, 10*time.Second, "first install", st.Ready)
	waitUntil(t, 10*time.Second, "catch-up", func() bool {
		return st.ReceivedSeq() == src.log.LastSeq()
	})

	// Drop every live server connection; the replica must come back and
	// resume from its acked position (same epoch, records still on disk).
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close() //nolint:errcheck
	}
	srv.mu.Unlock()

	src.feed(50)
	waitUntil(t, 10*time.Second, "resume catch-up", func() bool {
		return st.ReceivedSeq() == src.log.LastSeq()
	})
	snap := st.Obs().Snapshot()
	if snap.Reconnects == 0 {
		t.Error("no reconnect recorded")
	}
	if snap.SnapshotsInstalled != 1 {
		t.Errorf("%d snapshots installed; resume should not re-snapshot", snap.SnapshotsInstalled)
	}
}

// TestIdleDeadlineReconnects: a leader that welcomes the replica and then
// falls silent — no records, no heartbeats — is dropped once idleTimeout
// passes without a frame, and the replica dials again.
func TestIdleDeadlineReconnects(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the replica's idle deadline")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()                                                                //nolint:errcheck
	l.(*net.TCPListener).SetDeadline(time.Now().Add(idleTimeout + 10*time.Second)) //nolint:errcheck

	rep, err := Start(fastOptions(l.Addr().String(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck

	// acceptHello takes the replica's next connection and reads its Hello.
	acceptHello := func() *netproto.Conn {
		t.Helper()
		raw, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = raw.Close() })
		raw.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		c := netproto.NewConn(raw, nil)
		if mt, _, err := c.ReadMsg(); err != nil || mt != netproto.MsgHello {
			t.Fatalf("read %v, %v; want a hello", mt, err)
		}
		return c
	}

	first := acceptHello()
	welcome := netproto.Welcome{Version: netproto.Version, Resume: true, Epoch: 7}
	if err := first.WriteMsg(netproto.MsgWelcome, welcome.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	welcomed := time.Now()
	acceptHello()
	gap := time.Since(welcomed)
	if gap < idleTimeout || gap > idleTimeout+2*time.Second {
		t.Errorf("second hello %v after the welcome, want within [%v, %v]", gap, idleTimeout, idleTimeout+2*time.Second)
	}
	if rep.State().Obs().Snapshot().Reconnects == 0 {
		t.Error("no reconnect recorded")
	}
}

// TestReplicaAttachesWhenTheLeaderListens: a replica started before its
// leader keeps dialing at BackoffMin while nobody answers, so it attaches
// within a dial interval of the leader's listen. Had each unanswered dial
// doubled the wait, the attempts at 10, 30, 70 and 150 ms would have found no
// leader, and the next one would come at 310 ms.
func TestReplicaAttachesWhenTheLeaderListens(t *testing.T) {
	src := newFakeSource(t, 1)
	src.feed(20)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() //nolint:errcheck

	rep, err := Start(fastOptions(addr, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck
	time.Sleep(160 * time.Millisecond)
	cfg := fastConfig(src)
	cfg.Addr = addr
	srv, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	listening := time.Now()
	for st := rep.State(); !st.Ready(); time.Sleep(time.Millisecond) {
		if time.Since(listening) > 5*time.Second {
			t.Fatal("timed out waiting for the snapshot install")
		}
	}
	if d := time.Since(listening); d > 40*time.Millisecond {
		t.Errorf("ready %v after the leader listened, want within 40ms", d)
	}
}

// TestEpochFencedReconnect is the epoch-fencing satellite end to end: the
// replica converges against lineage A, the leader is replaced by lineage B
// on the same address (a drift-reset / fresh-durability restart), and the
// reconnecting replica must discard everything fenced to A before serving
// B's state — stale cross-lineage state is never served.
func TestEpochFencedReconnect(t *testing.T) {
	srcA := newFakeSource(t, 0xaaaa)
	srcA.feed(200)
	srvA, err := Serve(fastConfig(srcA))
	if err != nil {
		t.Fatal(err)
	}
	addr := srvA.Addr()

	rep, err := Start(fastOptions(addr, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck
	st := rep.State()
	waitUntil(t, 10*time.Second, "install from lineage A", st.Ready)
	if st.Epoch() != 0xaaaa {
		t.Fatalf("fenced to %x, want aaaa", st.Epoch())
	}
	seqA := st.ReceivedSeq()

	// Lineage change: new leader, same address, different epoch and WAL.
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	srcB := newFakeSource(t, 0xbbbb)
	srcB.feed(40)
	cfgB := fastConfig(srcB)
	cfgB.Addr = addr
	var srvB *Server
	waitUntil(t, 10*time.Second, "rebind leader address", func() bool {
		srvB, err = Serve(cfgB)
		return err == nil
	})
	defer srvB.Close() //nolint:errcheck

	waitUntil(t, 10*time.Second, "install from lineage B", func() bool {
		return st.Epoch() == 0xbbbb && st.Ready()
	})
	snap := st.Obs().Snapshot()
	if snap.FenceDiscards == 0 {
		t.Error("lineage change did not discard fenced state")
	}
	if st.ReceivedSeq() >= seqA {
		t.Errorf("receivedSeq %d kept across lineages (was %d on A); resume state leaked", st.ReceivedSeq(), seqA)
	}
	waitUntil(t, 10*time.Second, "catch-up on lineage B", func() bool {
		return st.ReceivedSeq() == srcB.log.LastSeq()
	})
}

// TestInstallRejectsCrossEpochSnapshot covers the defensive half of the
// fencing satellite at the State level: a snapshot stamped with another
// lineage is rejected with ErrEpochFenced and the held state keeps serving.
func TestInstallRejectsCrossEpochSnapshot(t *testing.T) {
	src := newFakeSource(t, 1)
	src.feed(100)
	snapA, err := src.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(nil)
	st.Fence(1)
	if err := st.Install(snapA); err != nil {
		t.Fatal(err)
	}
	seq := st.ReceivedSeq()

	other := newFakeSource(t, 2)
	other.feed(30)
	snapB, err := other.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Install(snapB); !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("cross-epoch install: %v, want ErrEpochFenced", err)
	}
	if !st.Ready() || st.Epoch() != 1 || st.ReceivedSeq() != seq {
		t.Errorf("held state disturbed by a rejected snapshot: ready=%v epoch=%d seq=%d",
			st.Ready(), st.Epoch(), st.ReceivedSeq())
	}
	if st.Obs().Snapshot().StaleSnapshots != 1 {
		t.Error("stale snapshot not counted")
	}
}

// TestVersionMismatchHandshake is the version-skew satellite over real TCP:
// a peer speaking protocol v1 (whose record batches carried a count), v2
// (whose snapshots carried the older learner bytes) or v99 must be
// rejected with CodeVersionMismatch, not silently dropped or misparsed.
func TestVersionMismatchHandshake(t *testing.T) {
	src := newFakeSource(t, 1)
	srv, err := Serve(fastConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	for _, v := range []uint16{1, 2, 99} {
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close() //nolint:errcheck
		c := netproto.NewConn(raw, nil)
		hello := netproto.Hello{Version: v, Role: netproto.RoleReplica}
		if err := c.WriteMsg(netproto.MsgHello, hello.Encode(nil)); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		mt, body, err := c.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		if mt != netproto.MsgError {
			t.Fatalf("v%d: got %v, want error", v, mt)
		}
		em, err := netproto.DecodeError(body)
		if err != nil {
			t.Fatal(err)
		}
		if em.Code != netproto.CodeVersionMismatch {
			t.Fatalf("v%d: code %d, want CodeVersionMismatch", v, em.Code)
		}
	}
}

// TestAdmissionCap exercises leader-side admission control: with MaxShips=1
// a second concurrent replica handshake is turned away with CodeBusy and
// the denial is counted.
func TestAdmissionCap(t *testing.T) {
	src := newFakeSource(t, 1)
	src.feed(50)
	cfg := fastConfig(src)
	cfg.MaxShips = 1
	srv, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	rep, err := Start(fastOptions(srv.Addr(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck
	waitUntil(t, 10*time.Second, "first replica install", rep.State().Ready)

	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close() //nolint:errcheck
	c := netproto.NewConn(raw, nil)
	hello := netproto.Hello{Version: netproto.Version, Role: netproto.RoleReplica}
	if err := c.WriteMsg(netproto.MsgHello, hello.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	mt, body, err := c.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	em, _ := netproto.DecodeError(body)
	if mt != netproto.MsgError || em.Code != netproto.CodeBusy {
		t.Fatalf("second replica got %v/%d, want error/CodeBusy", mt, em.Code)
	}
	if src.obs.Snapshot().AdmissionDenials == 0 {
		t.Error("denial not counted")
	}
}

// TestColdResumeBelowCompactionFloor: a replica whose acked position was
// compacted away must not resume — the leader ships a fresh snapshot (the
// self-correcting path behind CodeSnapshotNeeded).
func TestColdResumeBelowCompactionFloor(t *testing.T) {
	src := newFakeSource(t, 1)
	src.feed(200)
	if _, err := src.log.Compact(150); err != nil {
		t.Fatal(err)
	}
	if src.WALFirstSeq() <= 1 {
		t.Skip("compaction kept the full log; nothing to test")
	}

	st := NewState(nil)
	st.Fence(1)
	// Simulate an ancient acked position without installing anything.
	st.mu.Lock()
	st.receivedSeq = 1
	st.mu.Unlock()

	srv, err := Serve(fastConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	rep, err := Start(fastOptions(srv.Addr(), st))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck

	waitUntil(t, 10*time.Second, "fresh snapshot past the floor", func() bool {
		return st.Ready() && st.ReceivedSeq() >= src.log.LastSeq()
	})
	if st.Obs().Snapshot().SnapshotsInstalled == 0 {
		t.Error("no snapshot installed; stale resume was accepted")
	}
}

// TestChaosCorruptAndTornFrames runs the wire fault classes against a live
// session: corrupted and torn frames kill connections, the replica
// reconnects, and once the faults stop it still converges to the leader.
func TestChaosCorruptAndTornFrames(t *testing.T) {
	src := newFakeSource(t, 1)
	src.feed(100)
	inj := faults.New(97)
	inj.Enable(faults.NetCorruptFrame, 0.05)
	inj.Enable(faults.NetTornFrame, 0.02)
	cfg := fastConfig(src)
	cfg.Faults = inj
	srv, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	rep, err := Start(fastOptions(srv.Addr(), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close() //nolint:errcheck
	st := rep.State()

	// Keep load flowing while the wire misbehaves: at least forty feeds,
	// each shipped as about one batch frame, and on until each class has
	// fired, within a bound of 400.
	feeds := 0
	for ; feeds < 40 || inj.Fired(faults.NetCorruptFrame) == 0 || inj.Fired(faults.NetTornFrame) == 0; feeds++ {
		if feeds == 400 {
			t.Fatalf("after %d feeds the injector fired %d corrupt and %d torn frames; want each at least once",
				feeds, inj.Fired(faults.NetCorruptFrame), inj.Fired(faults.NetTornFrame))
		}
		src.feed(20)
		time.Sleep(20 * time.Millisecond)
	}
	inj.DisableAll()
	t.Logf("%d feeds: %d corrupt and %d torn frames", feeds, inj.Fired(faults.NetCorruptFrame), inj.Fired(faults.NetTornFrame))
	waitUntil(t, 20*time.Second, "post-chaos convergence", func() bool {
		return st.Ready() && st.ReceivedSeq() == src.log.LastSeq()
	})
	if snap := st.Obs().Snapshot(); snap.BadFrames == 0 && snap.Reconnects == 0 {
		t.Errorf("the injector fired %d corrupt and %d torn frames, but the replica saw no bad frame and no reconnect",
			inj.Fired(faults.NetCorruptFrame), inj.Fired(faults.NetTornFrame))
	}
	// Applied records must never exceed what the leader wrote.
	if st.ReceivedSeq() > src.log.LastSeq() {
		t.Errorf("receivedSeq %d beyond leader tail %d", st.ReceivedSeq(), src.log.LastSeq())
	}
}

// TestShippedBatchIsTheSegment pins what the ship loop sends: the body of a
// live session's MsgRecords frame is the segment's bytes after its header
// and nothing else — no count in front, a feedback and a correction frame
// alike, forwarded as the segment holds them.
func TestShippedBatchIsTheSegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck
	for _, rec := range []*wal.Record{
		{Kind: wal.RecordFeedback, Template: "Q1", Plan: 3, Cost: 12.5, SelfLabeled: true, Point: []float64{0.25, 0.5}},
		{Kind: wal.RecordCorrection, CorrEpoch: 3, Template: "Q1", Site: 2, LogC: -0.5, N: 11, Ref: 0.25},
	} {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v; want one", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	const header = len("PPCWAL\x00") + 2 // magic, u16 version

	// A follower of this lineage at seq 0 resumes: no snapshot, and the
	// first batch is the whole log.
	srv, err := Serve(fastConfig(&fakeSource{t: t, log: l, epoch: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()                                //nolint:errcheck
	raw.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	c := netproto.NewConn(raw, nil)
	hello := netproto.Hello{Version: netproto.Version, Role: netproto.RoleReplica, Epoch: 1}
	if err := c.WriteMsg(netproto.MsgHello, hello.Encode(nil)); err != nil {
		t.Fatal(err)
	}
	_, body, err := c.ReadExpect(netproto.MsgWelcome)
	if err != nil {
		t.Fatal(err)
	}
	if w, err := netproto.DecodeWelcome(body); err != nil || !w.Resume {
		t.Fatalf("welcome %+v, %v; want a resume", w, err)
	}
	for {
		mt, body, err := c.ReadExpect(netproto.MsgRecords, netproto.MsgHeartbeat)
		if err != nil {
			t.Fatal(err)
		}
		if mt != netproto.MsgRecords {
			continue
		}
		if !bytes.Equal(body, seg[header:]) {
			t.Fatalf("shipped batch differs from the segment's frames:\n got %x\nwant %x", body, seg[header:])
		}
		return
	}
}
