package ppc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/disk/simdisk"
	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// Chaos suite: the System is driven through the paper's Q0–Q8 templates
// with every fault class injected. The hardening contract under test:
//
//   - no panic escapes the ppc.System API;
//   - every Run either succeeds with a correct result or returns a typed
//     error (an injected *PipelineError — never an *InternalError, which
//     would mean a recovered panic, i.e. a bug);
//   - an optimizer outage fails only the runs that need the optimizer: a
//     failed learner step falls back to the optimizer for its own run, so
//     cache hits keep succeeding, and every run succeeds once the faults
//     stop;
//   - corrupted snapshots are detected at load and degrade the System to a
//     cold learner instead of failing.

// assertTyped fails the test unless err is nil or a typed, injected error.
func assertTyped(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	var ie *InternalError
	if errors.As(err, &ie) {
		t.Fatalf("panic escaped as *InternalError: %v\n%s", err, ie.Stack)
	}
	var pe *PipelineError
	if !errors.As(err, &pe) {
		t.Fatalf("untyped error from Run: %v", err)
	}
	if !IsInjectedFault(err) {
		t.Fatalf("organic pipeline failure during chaos run: %v", err)
	}
}

// TestBoundaryErrorsReportTheirCause: a panic recovered at the API boundary
// names its method and value, and a *SnapshotError unwraps to its cause.
func TestBoundaryErrorsReportTheirCause(t *testing.T) {
	var err error
	func() {
		defer capturePanic("ppc.Run", &err)
		panic("boom")
	}()
	var ie *InternalError
	if !errors.As(err, &ie) || err.Error() != "ppc: internal panic in ppc.Run: boom" || len(ie.Stack) == 0 {
		t.Errorf("recovered panic as %T %q", err, err)
	}
	err = &SnapshotError{Op: "checkpoint", Err: faults.ErrInjected}
	if !errors.Is(err, faults.ErrInjected) {
		t.Errorf("%v does not unwrap to its cause", err)
	}
}

// TestChaosAllFaultClasses drives Q0–Q8 under each fault class in turn,
// then disables injection and verifies every run succeeds undegraded.
func TestChaosAllFaultClasses(t *testing.T) {
	// A clean reference system answers "what rows should this instance
	// return"; it shares the deterministic TPC-H configuration.
	ref, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RegisterStandard(); err != nil {
		t.Fatal(err)
	}

	for _, class := range faults.Classes {
		t.Run(class.String(), func(t *testing.T) {
			inj := faults.New(42).Enable(class, 0.3)
			inj.SetLatency(200 * time.Microsecond)
			opts := Options{
				TPCH:   tpch.Config{Scale: 2000, Seed: 5},
				Online: onlineForTest(),
				Faults: inj,
			}
			// The WAL classes live on the durability layer's disk path and
			// only fire with a WAL open. Their contract inverts the Run-path
			// classes: append and fsync failures degrade durability, never
			// availability, so every Run below must still succeed.
			walClass := class == faults.WALShortWrite ||
				class == faults.WALFsyncError || class == faults.WALTornTail
			// The net classes live on the replication wire, which the Run
			// path never touches: the rounds below assert the System is
			// oblivious to them, and the wire itself is exercised in-class
			// (like SnapshotCorruption) over a framed loopback pair.
			netClass := class == faults.NetTornFrame || class == faults.NetCorruptFrame
			if walClass {
				// They fire inside a simulated disk, which starts failing
				// once the System is open on it.
				inj.Disable(class)
				inj.SetDisk(simdisk.New(inj))
				opts.Durability = Durability{
					Dir:                t.TempDir(),
					Sync:               wal.SyncAlways,
					CheckpointInterval: -1,
				}
			}
			sys, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if walClass {
				inj.Enable(class, 0.3)
			}
			defer sys.Close() //nolint:errcheck
			if err := sys.RegisterStandard(); err != nil {
				t.Fatal(err)
			}
			names := sys.TemplateNames()
			rng := rand.New(rand.NewSource(7))
			run := func(i int, faulted bool) {
				name := names[i%len(names)]
				tmpl, err := sys.Template(name)
				if err != nil {
					t.Fatal(err)
				}
				// Tight neighborhoods so the learner warms up and actually
				// serves predictions (a prerequisite for misprediction
				// injection to fire).
				point := make([]float64, tmpl.Degree())
				for j := range point {
					point[j] = 0.25 + rng.Float64()*0.1
				}
				inst, err := sys.Optimizer().InstanceAt(tmpl, point)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run(name, inst.Values)
				if faulted {
					assertTyped(t, err)
				} else if err != nil {
					t.Fatalf("run failed after faults disabled: %v", err)
				}
				if err != nil {
					return
				}
				// A degraded run is a failed learner step; with no fault
				// firing on the Run path no step can fail.
				if !faulted && res.Degraded {
					t.Fatalf("%s: run degraded with no Run-path fault firing", name)
				}
				// Successful runs must be correct: same rows as the clean
				// reference system for the same instance.
				if i%3 == 0 {
					want, err := ref.Run(name, inst.Values)
					if err != nil {
						t.Fatalf("reference run: %v", err)
					}
					if fmt.Sprint(res.Result.Rows) != fmt.Sprint(want.Result.Rows) {
						t.Fatalf("%s: faulted system returned wrong rows", name)
					}
				}
			}
			// Mispredictions only fire once the learner serves predictions,
			// so that class needs a longer workload to warm up first.
			rounds := 6 * len(names)
			if class == faults.LearnerMisprediction {
				rounds = 30 * len(names)
			}
			for i := 0; i < rounds; i++ {
				// WAL and wire faults must never surface on the Run path, so
				// those rounds assert success outright.
				run(i, !walClass && !netClass)
				// The learner warms up on the background appliers, and with
				// a ~10 µs optimizer all 30 passes can finish before a
				// starved applier has absorbed one (seen 1 in 25 on a loaded
				// host): drain the mailboxes after each pass instead of
				// racing the scheduler for the warm-up.
				if class == faults.LearnerMisprediction && (i+1)%len(names) == 0 {
					for _, name := range names {
						if _, err := sys.TemplateMetrics(name); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if walClass {
				// Appends happen on the background appliers; flush them so
				// every acknowledged point has consulted the injector.
				for _, name := range names {
					if _, err := sys.TemplateMetrics(name); err != nil {
						t.Fatal(err)
					}
				}
			}
			if class != faults.SnapshotCorruption && !netClass && inj.Fired(class) == 0 {
				t.Fatalf("fault class %s never fired", class)
			}

			// Fire the net classes on an actual framed connection: the
			// injected tear or corruption must surface as a read-side error
			// on the peer, never as silently accepted bytes.
			if netClass {
				inj.Enable(class, 1)
				a, b := net.Pipe()
				defer a.Close() //nolint:errcheck
				defer b.Close() //nolint:errcheck
				src, dst := netproto.NewConn(a, inj), netproto.NewConn(b, nil)
				readErr := make(chan error, 1)
				go func() {
					_, _, err := dst.ReadMsg()
					readErr <- err
				}()
				werr := src.WriteMsg(netproto.MsgPing, nil)
				if class == faults.NetCorruptFrame && werr != nil {
					t.Fatalf("corrupt-frame write failed locally: %v", werr)
				}
				if class == faults.NetTornFrame {
					if !errors.Is(werr, faults.ErrInjected) {
						t.Fatalf("torn-frame write error = %v, want ErrInjected", werr)
					}
				} else {
					a.Close() //nolint:errcheck
				}
				if err := <-readErr; err == nil {
					t.Fatal("peer accepted a torn/corrupt frame")
				}
				if inj.Fired(class) == 0 {
					t.Fatalf("fault class %s never fired on the wire", class)
				}
			}

			// SnapshotCorruption does not touch the Run path; exercise it
			// through a save/load cycle inside its class iteration.
			if class == faults.SnapshotCorruption {
				inj.Enable(class, 1) // a single save must corrupt deterministically
				var buf bytes.Buffer
				if err := sys.SaveState(&buf); err != nil {
					t.Fatalf("SaveState with corruption injection: %v", err)
				}
				if inj.Fired(class) == 0 {
					t.Fatal("snapshot corruption never fired")
				}
				cold, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
				if err != nil {
					t.Fatal(err)
				}
				if err := cold.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("corrupt snapshot must degrade, not fail: %v", err)
				}
				rep := cold.LoadStateReport()
				if rep == nil || !rep.Corrupt {
					t.Fatalf("corruption undetected: %+v", rep)
				}
			}

			// Faults off: the system heals at once. Nothing a failed step
			// did carries over, so every run succeeds undegraded.
			inj.DisableAll()
			for i := 0; i < 6*len(names); i++ {
				run(i, false)
			}
		})
	}
}

// TestChaosOptimizerOutageKeepsHits pins what an optimizer outage costs:
// the runs that need the optimizer fail with a typed error, and only those.
// A failed learner step falls back to the optimizer for its own run and
// leaves nothing behind, so a warm template keeps serving cache hits
// through the outage, and every run succeeds once it ends.
func TestChaosOptimizerOutageKeepsHits(t *testing.T) {
	open := func(t *testing.T) (*System, *faults.Injector) {
		inj := faults.New(1)
		sys, err := Open(Options{
			TPCH:          tpch.Config{Scale: 2000, Seed: 5},
			Online:        onlineForTest(),
			FeedbackQueue: -1,
			Faults:        inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RegisterStandard(); err != nil {
			t.Fatal(err)
		}
		return sys, inj
	}
	// instances draws uniform plan-space points of one template.
	instances := func(t *testing.T, sys *System, name string, seed int64) func() []float64 {
		tmpl, err := sys.Template(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		return func() []float64 {
			point := make([]float64, tmpl.Degree())
			for j := range point {
				point[j] = rng.Float64()
			}
			inst, err := sys.Optimizer().InstanceAt(tmpl, point)
			if err != nil {
				t.Fatal(err)
			}
			return inst.Values
		}
	}
	// recovers runs the template with the faults off: every run succeeds.
	recovers := func(t *testing.T, sys *System, name string, next func() []float64) {
		for i := 0; i < 50; i++ {
			if _, err := sys.Run(name, next()); err != nil {
				t.Fatalf("run %d failed after the outage ended: %v", i, err)
			}
		}
	}

	// A cold learner has no plan to serve: with the optimizer down every
	// run fails, each with a typed injected error and never a panic.
	t.Run("cold", func(t *testing.T) {
		sys, inj := open(t)
		next := instances(t, sys, "Q1", 3)
		inj.Enable(faults.OptimizerError, 1)
		for i := 0; i < 20; i++ {
			_, err := sys.Run("Q1", next())
			if err == nil {
				t.Fatalf("run %d succeeded with the optimizer down and a cold learner", i)
			}
			assertTyped(t, err)
		}
		if inj.Fired(faults.OptimizerError) == 0 {
			t.Fatal("the optimizer fault never fired")
		}
		inj.DisableAll()
		recovers(t, sys, "Q1", next)
	})

	// A warm Q3 (3,000 runs) under an outage keeps serving hits. With the
	// optimizer hard down, every hit is a run that succeeds; at half the
	// calls failing, a run fails only when both its learner step and its
	// fallback needed the optimizer and both calls failed.
	for _, c := range []struct {
		rate      float64
		minHits   int
		maxFailed int
	}{{1, 40, 400}, {0.5, 0, 100}} {
		t.Run(fmt.Sprint(c.rate), func(t *testing.T) {
			sys, inj := open(t)
			next := instances(t, sys, "Q3", 3)
			for i := 0; i < 3000; i++ {
				if _, err := sys.Run("Q3", next()); err != nil {
					t.Fatal(err)
				}
			}
			inj.Enable(faults.OptimizerError, c.rate)
			failed, hits, degraded := 0, 0, 0
			for i := 0; i < 400; i++ {
				res, err := sys.Run("Q3", next())
				if err != nil {
					assertTyped(t, err)
					failed++
					continue
				}
				if res.CacheHit {
					hits++
				}
				if res.Degraded {
					degraded++
				}
			}
			t.Logf("optimizer fault rate %v: %d of 400 runs failed, %d hits, %d degraded", c.rate, failed, hits, degraded)
			if inj.Fired(faults.OptimizerError) == 0 {
				t.Fatal("the optimizer fault never fired")
			}
			if hits < c.minHits {
				t.Errorf("%d cache hits during the outage, want at least %d", hits, c.minHits)
			}
			if failed > c.maxFailed {
				t.Errorf("%d of 400 runs failed, want at most %d", failed, c.maxFailed)
			}
			inj.DisableAll()
			recovers(t, sys, "Q3", next)
		})
	}
}

// TestChaosMispredictionResetsLearner pins the one reaction to a precision
// collapse: a warm learner whose predictions go bad (injected
// mispredictions caught by the Section IV-E cost detector) is reset by the
// paper's drift recovery and nothing else — no run is degraded, every query
// keeps succeeding, and once the faults stop the refilled window reads a
// healthy learner again.
func TestChaosMispredictionResetsLearner(t *testing.T) {
	inj := faults.New(8)
	sys, err := Open(Options{
		TPCH:   tpch.Config{Scale: 2000, Seed: 5},
		Online: onlineForTest(),
		Faults: inj,
		// Synchronous feedback: the assertions below track precision run by
		// run, which requires each run's feedback applied before the next
		// decision. With the background applier the outcome depends on how
		// the scheduler interleaves serving and applying — the serving path
		// is fast enough to outrun the applier on a small machine.
		FeedbackQueue: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterStandard(); err != nil {
		t.Fatal(err)
	}
	tmpl, _ := sys.Template("Q1")
	rng := rand.New(rand.NewSource(6))
	runOne := func() *RunResult {
		point := []float64{0.25 + rng.Float64()*0.1, 0.25 + rng.Float64()*0.1}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run("Q1", inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Warm the learner on a tight neighborhood until it predicts well.
	for i := 0; i < 150; i++ {
		runOne()
	}
	st, _ := sys.TemplateMetrics("Q1")
	if l := st.Learner; !l.PrecisionKnown || l.Precision < 0.5 {
		t.Fatalf("warm-up failed: precision %.2f (known=%v)", l.Precision, l.PrecisionKnown)
	}

	// Garble every prediction. The cost detector flags the mispredictions,
	// the window precision collapses, drift recovery drops the synopsis —
	// and every query still succeeds (wrong predictions are recovered by
	// re-optimizing).
	inj.Enable(faults.LearnerMisprediction, 1)
	reset := false
	garbled := 0
	for ; garbled < 300 && !reset; garbled++ {
		reset = runOne().DriftReset
	}
	h, err := sys.TemplateMetrics("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if inj.Fired(faults.LearnerMisprediction) == 0 {
		t.Fatal("the misprediction fault never fired")
	}
	if !reset || h.Learner.Resets == 0 {
		t.Fatalf("precision collapse never reset the learner: %+v", h.Learner)
	}
	t.Logf("drift reset after %d garbled runs", garbled)
	if h.Counters.DegradedRuns != 0 {
		t.Fatalf("a precision collapse degraded %d runs", h.Counters.DegradedRuns)
	}

	// Mispredictions stop; the learner retrains on optimizer-validated
	// points and the refilled window reads it healthy.
	inj.DisableAll()
	for i := 0; i < 60; i++ {
		runOne()
	}
	h, _ = sys.TemplateMetrics("Q1")
	if l := h.Learner; !l.PrecisionKnown || l.Precision < 0.5 {
		t.Fatalf("precision %.2f (known=%v) after the faults stopped", l.Precision, l.PrecisionKnown)
	}
	t.Logf("precision %.2f over %d samples after 60 clean runs", h.Learner.Precision, h.Learner.WindowSamples)
}

// TestChaosServedDriftResets runs the served system through a shift of its
// own cost model: Q1's l_partkey estimates are scaled ×40 for 3,000 runs,
// then ×0.2 for 3,000 more. The collapse in precision that follows gets
// the paper's drift reset and nothing else — no run is degraded — and the plans served after the flip cost within
// 5 % of the optimizer's own (geometric mean over every 10th run).
func TestChaosServedDriftResets(t *testing.T) {
	for _, seed := range []int64{5, 6} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			scale := 40.0
			sys, err := Open(Options{
				TPCH:                 tpch.Config{Scale: 1000, Seed: 5},
				Online:               onlineForTest(),
				FeedbackQueue:        -1,
				disableAdaptiveStats: true,
				statsWrap: func(p stats.Provider) stats.Provider {
					return &stats.Distorted{Provider: p, Sel: func(table, col string, sel float64) float64 {
						if table == "lineitem" && col == "l_partkey" {
							return sel * scale
						}
						return sel
					}}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() }) //nolint:errcheck
			if err := sys.Register("Q1", sqlFor(t, "Q1")); err != nil {
				t.Fatal(err)
			}
			tmpl, _ := sys.Template("Q1")
			rng := rand.New(rand.NewSource(seed))
			var logRatio float64
			var ratios int
			for i := 0; i < 6000; i++ {
				if i == 3000 {
					scale = 0.2
				}
				point := []float64{0.25 + rng.Float64()*0.1, 0.005 + rng.Float64()*0.06}
				inst, err := sys.Optimizer().InstanceAt(tmpl, point)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run("Q1", inst.Values)
				if err != nil {
					t.Fatal(err)
				}
				if i >= 3000 && i%10 == 0 {
					best, err := sys.Optimizer().OptimizeInstance(inst)
					if err != nil {
						t.Fatal(err)
					}
					logRatio += math.Log(res.EstimatedCost / best.Cost)
					ratios++
				}
			}
			h, err := sys.TemplateMetrics("Q1")
			if err != nil {
				t.Fatal(err)
			}
			if h.Learner.Resets == 0 {
				t.Errorf("no drift reset after the flip: %+v", h.Learner)
			}
			if h.Counters.DegradedRuns != 0 {
				t.Errorf("%d degraded runs", h.Counters.DegradedRuns)
			}
			g := math.Exp(logRatio / float64(ratios))
			t.Logf("after the flip: %d resets, served plan-cost geomean %.4f", h.Learner.Resets, g)
			if g > 1.05 {
				t.Errorf("served plan-cost geomean %.4f after the flip, want ≤ 1.05", g)
			}
		})
	}
}

// TestChaosSnapshotDamage covers the non-injected corruption modes:
// truncation and bit flips must be detected by the checksummed envelope and
// degrade the System to a cold learner; the intact snapshot must still load.
func TestChaosSnapshotDamage(t *testing.T) {
	warm, _ := warmSystem(t, 10)
	var buf bytes.Buffer
	if err := warm.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	fresh := func() *System {
		sys, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated-header", good[:10]},
		{"truncated-payload", good[:len(good)/2]},
		{"bit-flip-payload", flipByte(good, len(good)-5)},
		{"bit-flip-header", flipByte(good, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := fresh()
			if err := sys.LoadState(bytes.NewReader(tc.data)); err != nil {
				t.Fatalf("damaged snapshot must degrade, not fail: %v", err)
			}
			rep := sys.LoadStateReport()
			if rep == nil || !rep.Corrupt {
				t.Fatalf("damage undetected: %+v", rep)
			}
			// The cold System must remain fully usable.
			if err := sys.Register("Q1", mustSQL(t, "Q1")); err != nil {
				t.Fatal(err)
			}
			tmpl, _ := sys.Template("Q1")
			inst, err := sys.Optimizer().InstanceAt(tmpl, []float64{0.3, 0.3})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run("Q1", inst.Values); err != nil {
				t.Fatalf("cold system cannot run: %v", err)
			}
		})
	}

	// Control: the undamaged snapshot still restores warm state.
	sys := fresh()
	if err := sys.LoadState(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	rep := sys.LoadStateReport()
	if rep == nil || rep.Corrupt {
		t.Fatalf("intact snapshot misreported: %+v", rep)
	}
	if rep.Templates == 0 || rep.Plans == 0 {
		t.Fatalf("intact snapshot restored nothing: %+v", rep)
	}
}

// flipByte returns a copy of b with the byte at off inverted.
func flipByte(b []byte, off int) []byte {
	out := append([]byte(nil), b...)
	out[off] ^= 0xFF
	return out
}

// TestChaosLabelSurvivesFailedExecute: a run's label travels in the same
// message as its observations, sent once the run is over — also when its
// execute failed after the learner step. A cold template's NULL step labels
// its point with the optimizer's plan; with every execute failing, that
// label must still reach the learner, applied inline or through the
// mailbox.
func TestChaosLabelSurvivesFailedExecute(t *testing.T) {
	for _, tc := range []struct {
		name  string
		queue int
	}{{"inline", -1}, {"mailbox", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := Open(Options{
				TPCH:          tpch.Config{Scale: 2000, Seed: 5},
				Online:        onlineForTest(),
				Faults:        faults.New(3).Enable(faults.ExecutorError, 1),
				FeedbackQueue: tc.queue,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close() //nolint:errcheck
			if err := sys.RegisterStandard(); err != nil {
				t.Fatal(err)
			}
			st, err := sys.lookup("Q1")
			if err != nil {
				t.Fatal(err)
			}
			point := []float64{0.3, 0.4}
			inst, err := sys.Optimizer().InstanceAt(st.tmpl, point)
			if err != nil {
				t.Fatal(err)
			}
			before := st.online.Validated()
			_, err = sys.Run("Q1", inst.Values)
			var pe *PipelineError
			if !errors.As(err, &pe) || pe.Stage != "execute" || !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("Run with every execute failing returned %v, want the injected error as a *PipelineError at stage execute", err)
			}
			st.flush()
			if got := st.online.Validated() - before; got != 1 {
				t.Fatalf("validated points rose by %d after the failed run, want 1: its label was lost", got)
			}
		})
	}
}
