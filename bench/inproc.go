package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	ppc "repro"
	"repro/internal/executor"
)

// setupRepeats is how often a run sets up; setup_s is the median, because a
// single 50 ms set-up is at the mercy of one scheduling hiccup.
const setupRepeats = 9

// checkEvery selects the ops whose output is verified against the reference
// executor; costEvery those of the deterministic pass whose plan cost is
// compared with the optimizer's own plan (cheaper, so more of them).
const (
	checkEvery = 50
	costEvery  = 10
)

// runAgg accumulates what RunResult reports over a set of ops.
type runAgg struct {
	ops, failed, invoked, predicted, hits int
	predictNs, optimizeNs, executeNs      int64
	rows                                  int64
}

// sample is one op kept for the output check.
type sample struct {
	op  int
	out *executor.Result
}

// inproc drives System.Run directly, as an embedding DBMS would.
type inproc struct {
	sp  *spec
	sys *ppc.System
	in  *inputs
}

// setupInproc opens the system and generates the inputs setupRepeats times
// and keeps the last; the returned value is the median set-up time.
func setupInproc(sp *spec, cfg runConfig) (*inproc, float64, error) {
	var e *inproc
	var took []float64
	for r := 0; r < setupRepeats; r++ {
		if e != nil {
			if err := e.sys.Close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		sys, err := openSystem(sp, false)
		if err != nil {
			return nil, 0, err
		}
		in, err := makeInputs(sp, sys, cfg)
		if err != nil {
			sys.Close() //nolint:errcheck
			return nil, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
		e = &inproc{sp: sp, sys: sys, in: in}
	}
	return e, median(took), nil
}

// run executes ops [from, from+n), folding the results into agg and, with w
// set, their latencies into w. With tr set every Run is a facade.run span
// whose reported predict/optimize/execute times hang below it as
// duration-only children. It returns from+n.
func (e *inproc) run(from, n int, w *window, tr *tracer, agg *runAgg, keep *[]sample) int {
	for i := from; i < from+n; i++ {
		k, j := e.in.op(i)
		t0 := time.Now()
		res, err := e.sys.Run(e.in.names[k], e.in.values[k][j])
		d := time.Since(t0)
		agg.ops++
		if err != nil || res.Result == nil {
			agg.failed++
		} else {
			if res.Invoked {
				agg.invoked++
			}
			if res.Predicted {
				agg.predicted++
			}
			if res.CacheHit {
				agg.hits++
			}
			agg.predictNs += int64(res.PredictTime)
			agg.optimizeNs += int64(res.OptimizeTime)
			agg.executeNs += int64(res.ExecuteTime)
			agg.rows += int64(len(res.Result.Rows))
			if keep != nil && i%checkEvery == 0 {
				*keep = append(*keep, sample{op: i, out: res.Result})
			}
			if tr != nil {
				p := tr.add("facade.run", -1, i, t0, d)
				tr.child("core.predict", p, i, res.PredictTime)
				tr.child("optimizer.optimize", p, i, res.OptimizeTime)
				tr.child("executor.execute", p, i, res.ExecuteTime)
			}
		}
		if w != nil {
			w.add(t0, d)
		}
	}
	return from + n
}

// reference executes the optimizer's own plan for op i with the tree-walk
// engine: the answer a system without a plan cache would give.
func (e *inproc) reference(i int) (*executor.Result, error) {
	k, j := e.in.op(i)
	inst, err := e.in.tmpls[k].Instantiate(e.in.values[k][j])
	if err != nil {
		return nil, err
	}
	plan, err := e.sys.Optimizer().OptimizeInstance(inst)
	if err != nil {
		return nil, err
	}
	return executor.New(e.sys.DB()).Run(plan)
}

// checkSamples counts kept results that differ from the reference.
func (e *inproc) checkSamples(keep []sample) (bad int, first error) {
	for _, s := range keep {
		ref, err := e.reference(s.op)
		if err == nil {
			err = sameResult(ref, s.out)
		}
		if err != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("op %d: %w", s.op, err)
			}
		}
	}
	return bad, first
}

// sameResult compares two results of one query produced by possibly
// different plans: same rows as a multiset, numbers equal up to the
// rounding a different summation order allows.
func sameResult(want, got *executor.Result) error {
	if len(want.Rows) != len(got.Rows) {
		return fmt.Errorf("%d rows, reference has %d", len(got.Rows), len(want.Rows))
	}
	a, b := sortedRows(want.Rows), sortedRows(got.Rows)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d has %d columns, reference %d", i, len(b[i]), len(a[i]))
		}
		for c := range a[i] {
			x, y := a[i][c], b[i][c]
			if x.IsStr != y.IsStr || x.Str != y.Str {
				return fmt.Errorf("row %d col %d = %v, reference %v", i, c, y, x)
			}
			if x.Num != y.Num && math.Abs(x.Num-y.Num) > 1e-9*math.Max(math.Abs(x.Num), math.Abs(y.Num)) {
				return fmt.Errorf("row %d col %d = %v, reference %v", i, c, y.Num, x.Num)
			}
		}
	}
	return nil
}

func sortedRows(rows []executor.Row) []executor.Row {
	s := append([]executor.Row(nil), rows...)
	sort.SliceStable(s, func(i, j int) bool {
		for c := range s[i] {
			if c >= len(s[j]) {
				return false
			}
			if s[i][c].Str != s[j][c].Str {
				return s[i][c].Str < s[j][c].Str
			}
			if s[i][c].Num != s[j][c].Num {
				return s[i][c].Num < s[j][c].Num
			}
		}
		return false
	})
	return s
}

// planCostRatio replays the first ops ops on a fresh system that applies
// feedback inline (so the pass is exactly repeatable) and returns the
// geometric mean, over every costEvery-th op, of the served plan's
// estimated cost divided by the cost of the plan the optimizer picks for the
// same instance: 1.0 means the cache never served a worse plan than always
// optimizing would. The ratio is heavy-tailed (one op in a thousand can be
// 200x), so an arithmetic mean would report that one op and nothing else.
func planCostRatio(sp *spec, in *inputs, ops int) (ratio float64, n int, err error) {
	sys, err := openSystem(sp, true)
	if err != nil {
		return 0, 0, err
	}
	defer sys.Close() //nolint:errcheck
	var sum float64
	for i := 0; i < ops; i++ {
		k, j := in.op(i)
		res, err := sys.Run(in.names[k], in.values[k][j])
		if err != nil {
			return 0, 0, fmt.Errorf("deterministic pass op %d: %w", i, err)
		}
		if i%costEvery != 0 {
			continue
		}
		tmpl, err := sys.Template(in.names[k])
		if err != nil {
			return 0, 0, err
		}
		inst, err := tmpl.Instantiate(in.values[k][j])
		if err != nil {
			return 0, 0, err
		}
		best, err := sys.Optimizer().OptimizeInstance(inst)
		if err != nil {
			return 0, 0, err
		}
		if best.Cost > 0 && res.EstimatedCost > 0 {
			sum += math.Log(res.EstimatedCost / best.Cost)
			n++
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("deterministic pass: no op compared")
	}
	return math.Exp(sum / float64(n)), n, nil
}

// runInproc is one untraced run: the end-to-end metrics.
func runInproc(sp *spec, cfg runConfig) (*runResult, error) {
	res := newResult(sp)
	e, setupS, err := setupInproc(sp, cfg)
	if err != nil {
		return nil, err
	}
	defer e.sys.Close() //nolint:errcheck

	var warm, agg runAgg
	var keep []sample
	next := e.run(0, sp.warm(cfg), nil, nil, &warm, nil)
	calib0 := calibrate()
	w := newWindow(sp.ops(cfg), sp.refEvery)
	w.begin()
	e.run(next, sp.ops(cfg), w, nil, &agg, &keep)
	t := w.timing(false)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.hostDrift(calib0, calibrate())

	bad, first := e.checkSamples(keep)
	det := sp.det(cfg)
	ratio, nRatio, err := planCostRatio(sp, e.in, det)
	if err != nil {
		return nil, err
	}

	res.Attempted = warm.ops + agg.ops
	res.Failed = warm.failed + agg.failed + bad
	res.opTiming(t)
	res.set("setup_s", setupS, "s", fmt.Sprintf("median of %d", setupRepeats))
	res.invocationShare(&agg)
	res.set("plan_cost_ratio", ratio, "ratio", fmt.Sprintf("n=%d, deterministic pass of %d ops", nRatio, det))
	res.set("peak_rss_mb", rss, "MB", "VmHWM of this process")
	res.info("checked", fmt.Sprintf("%d outputs against the reference executor, %d differ", len(keep), bad))
	if first != nil {
		res.info("checked", fmt.Sprintf("%s; first: %v", res.Notes["checked"], first))
	}
	return res, nil
}

// traceInproc is the traced run: the per-layer metrics and the budget table.
func traceInproc(sp *spec, cfg runConfig) (*runResult, error) {
	res := newResult(sp)
	if err := setupLayers(res); err != nil {
		return nil, err
	}
	sys, err := openSystem(sp, false)
	if err != nil {
		return nil, err
	}
	defer sys.Close() //nolint:errcheck
	in, err := makeInputs(sp, sys, cfg)
	if err != nil {
		return nil, err
	}
	e := &inproc{sp: sp, sys: sys, in: in}

	var warm runAgg
	next := e.run(0, sp.warm(cfg), nil, nil, &warm, nil)
	calib0 := calibrate()

	tr := newTracer(1 << 18)
	var plain, traced runAgg
	var ms0, ms1 runtime.MemStats
	var mallocs, bytes uint64
	blocks(res, sp.ops(cfg)/2, tr, func(n int, w *window, tr *tracer) {
		if tr != nil {
			next = e.run(next, n, w, tr, &traced, nil)
			return
		}
		runtime.ReadMemStats(&ms0)
		next = e.run(next, n, w, nil, &plain, nil)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
	})
	res.hostDrift(calib0, calibrate())
	res.Attempted = warm.ops + plain.ops + traced.ops
	res.Failed = warm.failed + plain.failed + traced.failed

	rows, wallNs := tr.selfTimes("facade.run")
	for i := range rows {
		if rows[i].Name == "facade.run" {
			rows[i].Name = "facade.self"
			rows[i].Allocs = float64(mallocs) / float64(plain.ops)
		}
	}
	res.Table, res.TableWallNs = rows, wallNs

	n := float64(traced.ops - traced.failed)
	runNs := wallNs / n
	selfNs := (wallNs - float64(traced.predictNs+traced.optimizeNs+traced.executeNs)) / n
	all := plain
	all.add(traced)
	m := float64(all.ops - all.failed)
	lat := float64(all.predictNs + all.optimizeNs + all.executeNs)
	res.set("facade.run_ns", runNs, "ns", fmt.Sprintf("n=%d", traced.ops))
	res.set("facade.self_ns", selfNs, "ns", "run - (predict+optimize+execute reported)")
	res.set("facade.self_share", selfNs/runNs, "ratio", "")
	res.set("facade.allocs_per_run", float64(mallocs)/float64(plain.ops), "count", fmt.Sprintf("n=%d", plain.ops))
	res.set("facade.bytes_per_run", float64(bytes)/float64(plain.ops), "bytes", "")
	res.set("core.predict_ns", float64(all.predictNs)/m, "ns", "reported PredictTime")
	res.set("core.predict_share", float64(all.predictNs)/lat, "ratio", "of predict+optimize+execute")
	res.set("core.predicted_share", float64(all.predicted)/m, "ratio", "")
	res.set("optimizer.optimize_ns", float64(all.optimizeNs)/m, "ns", "reported OptimizeTime, mean over all runs")
	res.set("optimizer.optimize_share", float64(traced.optimizeNs)/wallNs, "ratio", "of facade.run wall")
	res.set("optimizer.invocations", float64(all.invoked), "count", fmt.Sprintf("of %d runs", all.ops))
	res.set("executor.execute_ns", float64(all.executeNs)/m, "ns", "reported ExecuteTime")
	res.set("executor.execute_share", float64(traced.executeNs)/wallNs, "ratio", "of facade.run wall")
	res.set("executor.rows_out_mean", float64(all.rows)/m, "count", "")
	res.set("plancache.hit_share", float64(all.hits)/m, "ratio", "RunResult.CacheHit")
	res.set("failed_share", float64(res.Failed)/float64(res.Attempted), "ratio", "")

	snap, err := sys.MetricsSnapshot()
	if err != nil {
		return nil, err
	}
	res.countLearner(&snap)
	res.countServing(&snap)
	res.clock = clockNs()
	directRun(res, tr, e, next)
	directPredict(res, tr, e, next)
	res.set("facade.unattributed_ns", selfNs-(res.value("optimizer.instantiate_ns")+res.value("optimizer.selectivity_point_ns")+
		res.value("optimizer.rebind_recost_ns")+res.value("plancache.touch_ns")), "ns", "facade.self_ns minus the directly timed dark stages")
	if sp.name == "hit_exec" {
		res.set("facade.parallel_speedup_2", e.parallelSpeedup(next, sp.ops(cfg)/8), "ratio", "2 goroutines vs 1, diagnostic only")
	}
	return res, tr.write(cfg.tracePath(sp))
}

// invocationShare reports the share of the measured ops for which the caller
// still paid the optimizer.
func (r *runResult) invocationShare(a *runAgg) {
	r.set("optimizer_invocation_share", float64(a.invoked)/float64(a.ops-a.failed), "ratio", fmt.Sprintf("of %d measured ops", a.ops))
}

func (a *runAgg) add(b runAgg) {
	a.ops += b.ops
	a.failed += b.failed
	a.invoked += b.invoked
	a.predicted += b.predicted
	a.hits += b.hits
	a.predictNs += b.predictNs
	a.optimizeNs += b.optimizeNs
	a.executeNs += b.executeNs
	a.rows += b.rows
}

// parallelSpeedup compares the rate of two closed-loop goroutines, n ops
// each, with that of one. With the applier goroutines competing for the
// second core it is too noisy to gate on.
func (e *inproc) parallelSpeedup(from, n int) float64 {
	rate := func(workers int) float64 {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var agg runAgg
				e.run(from+g*n, n, nil, nil, &agg, nil)
			}(g)
		}
		wg.Wait()
		return float64(workers*n) / time.Since(t0).Seconds()
	}
	one := rate(1)
	return rate(2) / one
}
