package ppc

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/queries"
	"repro/internal/tpch"
)

// The System must be safe for concurrent use: parallel goroutines running
// different templates through the shared cache. Run with -race.
func TestConcurrentRuns(t *testing.T) {
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
	names := []string{"Q0", "Q1", "Q2", "Q3"}
	var wg sync.WaitGroup
	errs := make(chan error, len(names))
	for gi, name := range names {
		wg.Add(1)
		go func(gi int, name string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gi)))
			tmpl, err := sys.Template(name)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 40; i++ {
				point := make([]float64, tmpl.Degree())
				for j := range point {
					point[j] = 0.2 + rng.Float64()*0.3
				}
				inst, err := sys.Optimizer().InstanceAt(tmpl, point)
				if err != nil {
					errs <- err
					return
				}
				if _, err := sys.Run(name, inst.Values); err != nil {
					errs <- err
					return
				}
			}
		}(gi, name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, name := range names {
		st, err := sys.TemplateMetrics(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Learner.SamplesAbsorbed == 0 {
			t.Errorf("%s absorbed no samples", name)
		}
	}
}

// Registering while running must not race either.
func TestConcurrentRegisterAndRun(t *testing.T) {
	sys, err := Open(Options{
		TPCH:   tpch.Config{Scale: 2000, Seed: 5},
		Online: onlineForTest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Register("Q0", queries.Defs[0].SQL); err != nil {
		t.Fatal(err)
	}
	tmpl, _ := sys.Template("Q0")
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i < len(queries.Defs); i++ {
			if err := sys.Register(queries.Defs[i].Name, queries.Defs[i].SQL); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 30; i++ {
			inst, err := sys.Optimizer().InstanceAt(tmpl, []float64{rng.Float64(), rng.Float64()})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := sys.Run("Q0", inst.Values); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := len(sys.TemplateNames()); got != 9 {
		t.Errorf("templates = %d", got)
	}
}

// Per-template isolation: four templates run in parallel while two more
// goroutines hammer SaveState, TemplateMetrics and TemplateNames (the
// liveness read) — under the old global mutex this was trivially true (and
// trivially slow); under sharded locks it is the property the design must
// preserve. Every run succeeds undegraded and every learner learns.
func TestParallelTemplateIsolation(t *testing.T) {
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
	names := []string{"Q0", "Q1", "Q2", "Q3"}

	const runsPerTemplate = 40
	var wg sync.WaitGroup
	done := make(chan struct{})
	for gi, name := range names {
		wg.Add(1)
		go func(gi int, name string) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gi)))
			tmpl, err := sys.Template(name)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < runsPerTemplate; i++ {
				point := make([]float64, tmpl.Degree())
				for j := range point {
					point[j] = 0.2 + rng.Float64()*0.3
				}
				inst, err := sys.Optimizer().InstanceAt(tmpl, point)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := sys.Run(name, inst.Values)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if res.Degraded {
					t.Errorf("%s run %d degraded with no fault injected", name, i)
					return
				}
			}
		}(gi, name)
	}
	// Stress the read paths that cross templates while the runs proceed.
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
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			name := names[i%len(names)]
			if _, err := sys.TemplateMetrics(name); err != nil {
				t.Errorf("concurrent TemplateMetrics(%s): %v", name, err)
				return
			}
			if got := len(sys.TemplateNames()); got != 9 {
				t.Errorf("concurrent TemplateNames: %d names, want 9", got)
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

	for _, name := range names {
		h, err := sys.TemplateMetrics(name)
		if err != nil {
			t.Fatal(err)
		}
		if h.Counters.Runs != runsPerTemplate || h.Counters.DegradedRuns != 0 {
			t.Errorf("%s ended runs=%d degraded=%d, want %d/0", name, h.Counters.Runs, h.Counters.DegradedRuns, runsPerTemplate)
		}
		if h.Learner.SamplesAbsorbed == 0 {
			t.Errorf("%s absorbed no samples", name)
		}
	}
}

// Chaos under concurrency: parallel goroutines run queries while faults
// fire and another goroutine repeatedly snapshots the live system. Injected
// failures are tolerated (typed), anything else — including data races
// under -race — fails the test.
func TestConcurrentRunsUnderFaults(t *testing.T) {
	inj := faults.New(99)
	sys, err := Open(Options{
		TPCH:   tpch.Config{Scale: 2000, Seed: 5},
		Online: onlineForTest(),
		Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterStandard(); err != nil {
		t.Fatal(err)
	}
	names := []string{"Q0", "Q1", "Q2", "Q3"}
	// run runs n instances of a template on the tight neighbourhood its
	// learner warms up on.
	run := func(name string, rng *rand.Rand, n int) {
		tmpl, err := sys.Template(name)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < n; i++ {
			point := make([]float64, tmpl.Degree())
			for j := range point {
				point[j] = 0.25 + rng.Float64()*0.1
			}
			inst, err := sys.Optimizer().InstanceAt(tmpl, point)
			if err != nil {
				t.Error(err)
				return
			}
			_, err = sys.Run(name, inst.Values)
			if err != nil && !IsInjectedFault(err) {
				t.Errorf("%s: non-injected failure under chaos: %v", name, err)
				return
			}
		}
	}
	// Warm Q0 and Q1 with no fault armed, then flush (TemplateMetrics
	// does): their learners serve predictions from the first faulted run
	// on, so LearnerMisprediction has predictions to garble however the
	// background appliers race the runs below. Q2 and Q3 start cold, so
	// their runs invoke the optimizer for OptimizerError to fail; with all
	// four warm the optimizer ran about 25 times and that class could miss.
	for gi, name := range names[:2] {
		run(name, rand.New(rand.NewSource(int64(100+gi))), 20)
		if _, err := sys.TemplateMetrics(name); err != nil {
			t.Fatal(err)
		}
	}
	if t.Failed() {
		return
	}
	inj.Enable(faults.OptimizerError, 0.15).
		Enable(faults.ExecutorError, 0.15).
		Enable(faults.LearnerMisprediction, 0.15)
	var wg sync.WaitGroup
	for gi, name := range names {
		wg.Add(1)
		go func(gi int, name string) {
			defer wg.Done()
			run(name, rand.New(rand.NewSource(int64(gi))), 50)
		}(gi, name)
	}
	// Snapshot the live system concurrently with the runs (and with
	// SnapshotCorruption armed for some of the saves).
	var lastGood bytes.Buffer
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if i == 4 {
				inj.Enable(faults.SnapshotCorruption, 1)
			}
			var buf bytes.Buffer
			if err := sys.SaveState(&buf); err != nil {
				t.Errorf("concurrent SaveState: %v", err)
				return
			}
			if i < 4 {
				lastGood = buf
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, class := range []faults.Class{faults.OptimizerError, faults.ExecutorError, faults.LearnerMisprediction, faults.SnapshotCorruption} {
		if inj.Fired(class) == 0 {
			t.Errorf("fault class %s never fired", class)
		}
	}

	// The snapshot taken mid-chaos must restore (or detectably degrade) on
	// a fresh system.
	cold, err := Open(Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, Online: onlineForTest()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.LoadState(bytes.NewReader(lastGood.Bytes())); err != nil {
		t.Fatalf("restore of mid-chaos snapshot: %v", err)
	}
	if rep := cold.LoadStateReport(); rep == nil || rep.Corrupt {
		t.Fatalf("clean mid-chaos snapshot misreported: %+v", rep)
	}
	// The faulted system must have made progress despite the chaos.
	for _, name := range names {
		st, err := sys.TemplateMetrics(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Learner.SamplesAbsorbed == 0 {
			t.Errorf("%s absorbed no samples under chaos", name)
		}
	}
}
