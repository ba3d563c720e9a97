package ppc

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tpch"
)

// hotTemplatePoints prepares bound instance values for nRuns runs against
// one template, so the load goroutines spend their time in Run rather than
// in instance binding.
func hotTemplatePoints(t *testing.T, sys *System, name string, n int, seed int64) [][]float64 {
	t.Helper()
	tmpl, err := sys.Template(name)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		point := make([]float64, tmpl.Degree())
		for j := range point {
			point[j] = 0.2 + rng.Float64()*0.3
		}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = inst.Values
	}
	return out
}

// SaveState taken while a hot template absorbs concurrent feedback must
// capture every point already acknowledged to a caller: the quiescent
// snapshot restores into a system whose learner counters match the saved
// one exactly, and the mid-flight snapshots restore cleanly. This is the
// persistence contract of the asynchronous apply loop — SaveState drains
// the mailbox, it never races past it.
func TestSaveStateUnderLoad(t *testing.T) {
	sys, err := Open(Options{
		TPCH:   tpch.Config{Scale: 2000, Seed: 5},
		Online: onlineForTest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterStandard(); err != nil {
		t.Fatal(err)
	}
	const workers, runsPerWorker = 4, 30
	pts := hotTemplatePoints(t, sys, "Q1", 64, 17)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runsPerWorker; i++ {
				if _, err := sys.Run("Q1", pts[(w*131+i)%len(pts)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// Snapshot mid-flight: each one must be internally consistent and
	// restorable even though feedback is streaming through the mailbox.
	var midFlight bytes.Buffer
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			var buf bytes.Buffer
			if err := sys.SaveState(&buf); err != nil {
				t.Errorf("mid-flight SaveState: %v", err)
				return
			}
			midFlight = buf
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	cold, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.LoadState(bytes.NewReader(midFlight.Bytes())); err != nil {
		t.Fatalf("restore of mid-flight snapshot: %v", err)
	}

	// Quiescent save: every Run has returned, so after the mailbox drain
	// performed by SaveState the snapshot must hold ALL validated points.
	st, err := sys.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	st.flush()
	wantAbsorbed := st.online.Validated() + st.online.SelfLabeled()
	stats, err := sys.TemplateMetrics("Q1")
	if err != nil {
		t.Fatal(err)
	}
	var final bytes.Buffer
	if err := sys.SaveState(&final); err != nil {
		t.Fatal(err)
	}
	cold2, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold2.LoadState(bytes.NewReader(final.Bytes())); err != nil {
		t.Fatal(err)
	}
	restored, err := cold2.TemplateMetrics("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if restored.Learner.SamplesAbsorbed != stats.Learner.SamplesAbsorbed {
		t.Errorf("restored SamplesAbsorbed = %d, saved system had %d",
			restored.Learner.SamplesAbsorbed, stats.Learner.SamplesAbsorbed)
	}
	rst, err := cold2.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if got := rst.online.Validated() + rst.online.SelfLabeled(); got != wantAbsorbed {
		t.Errorf("restored insertion counters = %d, want %d (validated feedback lost in transit)",
			got, wantAbsorbed)
	}
}

// Every validated label sent to the mailbox must be applied
// (asynchronously or, under backpressure, synchronously) — never silently
// dropped, also when the System closes while the labels are being sent:
// a send that finds the mailbox closed applies its label itself. The only
// sanctioned loss is a stale-epoch drop after a drift reset, which this
// test keeps at zero by not running the drift path. Each worker reuses one
// point slice, so a label must be copied when it is sent.
func TestNoFeedbackLossUnderLoad(t *testing.T) {
	for _, closeMidway := range []bool{false, true} {
		name := "flush"
		if closeMidway {
			name = "close"
		}
		t.Run(name, func(t *testing.T) { testNoFeedbackLoss(t, closeMidway) })
	}
}

func testNoFeedbackLoss(t *testing.T, closeMidway bool) {
	sys, err := Open(Options{
		TPCH:   tpch.Config{Scale: 2000, Seed: 5},
		Online: onlineForTest(),
		// A tiny mailbox forces the backpressure path: some sends must
		// degrade to synchronous apply rather than vanish.
		FeedbackQueue: 2,
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
	tmpl, err := sys.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}
	base := st.online.Validated()

	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	var sent atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			point := make([]float64, tmpl.Degree())
			for i := 0; i < perWorker; i++ {
				for j := range point {
					point[j] = 0.2 + rng.Float64()*0.3
				}
				fb, err := st.online.ValidatedFeedback(point, i%5, float64(100+i))
				if err != nil {
					t.Error(err)
					return
				}
				buf := runBufPool.Get().(*runBuf)
				buf.keep(fb)
				st.send(buf)
				sent.Add(1)
			}
		}(w)
	}
	if closeMidway {
		// Close once a quarter of the labels are out, the workers still
		// sending: the rest race the close or follow it.
		for sent.Load() < workers*perWorker/4 {
			runtime.Gosched()
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		if sent.Load() == workers*perWorker {
			t.Log("every label was sent before Close returned")
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if closeMidway {
		// Close drained the mailbox before it returned, and every send
		// after it applied inline: nothing is left queued for a flush.
		st.mailMu.Lock()
		queued := len(st.mail)
		st.mailMu.Unlock()
		if queued != 0 {
			t.Errorf("%d runs still queued after Close", queued)
		}
	} else {
		st.flush()
	}

	if got, want := st.online.Validated()-base, workers*perWorker; got != want {
		t.Errorf("validated points applied = %d, want %d", got, want)
	}
	if drops := st.online.StaleFeedbackDrops(); drops != 0 {
		t.Errorf("stale feedback drops = %d, want 0", drops)
	}
	snap, err := sys.MetricsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range snap.Templates {
		if tm.Learner.StaleFeedbackDrops != 0 {
			t.Errorf("%s: stale_feedback_drops = %d, want 0", tm.Template, tm.Learner.StaleFeedbackDrops)
		}
	}
}

// One hot template hammered by concurrent Run, SaveState and
// MetricsSnapshot callers. The assertions are deliberately light — the test
// exists for the race detector: the RCU serving path, the mailbox drain in
// SaveState and the flush in MetricsSnapshot all interleave here.
func TestHotTemplateStress(t *testing.T) {
	sys, err := Open(Options{
		TPCH:   tpch.Config{Scale: 2000, Seed: 5},
		Online: onlineForTest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterStandard(); err != nil {
		t.Fatal(err)
	}
	pts := hotTemplatePoints(t, sys, "Q1", 64, 23)

	const workers, runsPerWorker = 4, 40
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < runsPerWorker; i++ {
				if _, err := sys.Run("Q1", pts[(w*131+i)%len(pts)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var stress sync.WaitGroup
	stress.Add(2)
	go func() {
		defer stress.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var buf bytes.Buffer
			if err := sys.SaveState(&buf); err != nil {
				t.Errorf("concurrent SaveState: %v", err)
				return
			}
		}
	}()
	go func() {
		defer stress.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := sys.MetricsSnapshot(); err != nil {
				t.Errorf("concurrent MetricsSnapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	stress.Wait()
	if t.Failed() {
		return
	}

	stats, err := sys.TemplateMetrics("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Learner.SamplesAbsorbed == 0 {
		t.Error("hot template absorbed no samples under stress")
	}
}
