package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	ppc "repro"
	"repro/internal/netproto"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/pkg/client"
)

// parityPoints is how many points are predicted at both the leader's ship
// port and the replica and required to agree bit for bit.
const parityPoints = 1000

// recoveryCycles is how many SIGKILL-and-restart cycles recovery_ms is the
// median of.
const recoveryCycles = 5

// wireEnv is a running cluster plus the harness's own in-process system,
// which supplies templates, quantile inversion, the reference executor and
// the optimizer; the servers only ever receive the generated points.
type wireEnv struct {
	sp  *spec
	cfg runConfig
	c   *cluster
	sys *ppc.System
	in  *inputs
}

// setupWire builds the binaries, then starts a fresh cluster setupRepeats
// times and keeps the last; the returned value is the median of process
// start to /health 200 on leader and replica.
func setupWire(sp *spec, cfg runConfig, repeats int) (*wireEnv, float64, error) {
	bin, err := buildBinaries(cfg)
	if err != nil {
		return nil, 0, err
	}
	sys, err := openSystem(sp, false)
	if err != nil {
		return nil, 0, err
	}
	e := &wireEnv{sp: sp, cfg: cfg, sys: sys}
	if e.in, err = makeInputs(sp, sys, cfg); err != nil {
		e.close()
		return nil, 0, err
	}
	var took []float64
	for r := 0; r < repeats; r++ {
		if e.c != nil {
			e.c.stop()
		}
		var d time.Duration
		if e.c, d, err = startClusterRetrying(sp, cfg, bin); err != nil {
			e.close()
			return nil, 0, err
		}
		took = append(took, d.Seconds())
	}
	return e, median(took), nil
}

func (e *wireEnv) close() {
	if e.c != nil {
		e.c.stop()
	}
	e.sys.Close() //nolint:errcheck
}

// wireSample is one /run reply kept for the output check.
type wireSample struct{ op, rows int }

// runs sends ops [from, from+n) as POST /run, recording their latencies in w
// if it is set. With tr set every round trip is a span. It returns from+n.
func (e *wireEnv) runs(from, n int, w *window, tr *tracer, agg *runAgg, keep *[]wireSample) int {
	for i := from; i < from+n; i++ {
		k, j := e.in.op(i)
		url := runURL(e.c.http, e.in.names[k], e.in.points[k][j])
		var reply runReply
		t0 := time.Now()
		err := e.c.post(url, &reply)
		d := time.Since(t0)
		agg.ops++
		if err != nil {
			agg.failed++
		} else {
			if reply.Invoked {
				agg.invoked++
			}
			if reply.Predicted {
				agg.predicted++
			}
			if reply.CacheHit {
				agg.hits++
			}
			if keep != nil && i%checkEvery == 0 {
				*keep = append(*keep, wireSample{op: i, rows: reply.Rows})
			}
			if tr != nil {
				tr.add("ppcserve.http_round_trip", -1, i, t0, d)
			}
		}
		if w != nil {
			w.add(t0, d)
		}
	}
	return from + n
}

// checkRows counts kept replies whose row count differs from what the
// harness's own system computes for the same instance with the reference
// executor.
func (e *wireEnv) checkRows(keep []wireSample) (bad int) {
	ref := &inproc{sp: e.sp, sys: e.sys, in: e.in}
	for _, s := range keep {
		want, err := ref.reference(s.op)
		if err != nil || len(want.Rows) != s.rows {
			bad++
		}
	}
	return bad
}

// train drives the leader through the training ops.
func (e *wireEnv) train(agg *runAgg) {
	for i := 0; i < e.sp.train(e.cfg); i++ {
		k, j := e.in.trainOp(i)
		var reply runReply
		agg.ops++
		if err := e.c.post(runURL(e.c.http, e.in.names[k], e.in.points[k][j]), &reply); err != nil {
			agg.failed++
		}
	}
}

// predicts sends ops [from, from+n) as client.Predict, counting NULL answers,
// which send a predict-only caller to its optimizer.
func (e *wireEnv) predicts(cl *client.Client, from, n int, w *window, tr *tracer, agg *runAgg) int {
	for i := from; i < from+n; i++ {
		k, j := e.in.op(i)
		t0 := time.Now()
		res, err := cl.Predict(e.in.names[k], e.in.points[k][j])
		d := time.Since(t0)
		agg.ops++
		switch {
		case err != nil:
			agg.failed++
		case res.Status == netproto.StatusNoPrediction:
			agg.invoked++
		default:
			agg.predicted++
		}
		if tr != nil && err == nil {
			tr.add("client.predict", -1, i, t0, d)
		}
		if w != nil {
			w.add(t0, d)
		}
	}
	return from + n
}

// parity predicts the same points at the leader's ship port and at the
// replica and counts answers that differ in status, plan, confidence or
// cost. The agreed answers are returned in the leader's copy, which also
// carries the plan fingerprint (a replica only knows the fingerprints its
// snapshot shipped), for the plan-cost comparison.
func (e *wireEnv) parity(replica *client.Client) (answers []netproto.PredictResult, ops []int, bad int, err error) {
	leader, err := client.Dial(client.Options{Addr: e.c.ship, PoolSize: 1})
	if err != nil {
		return nil, nil, 0, err
	}
	defer leader.Close() //nolint:errcheck
	stride := e.in.len() / parityPoints
	if stride == 0 {
		stride = 1
	}
	for p := 0; p < parityPoints; p++ {
		i := p * stride
		k, j := e.in.op(i)
		a, aerr := leader.Predict(e.in.names[k], e.in.points[k][j])
		b, berr := replica.Predict(e.in.names[k], e.in.points[k][j])
		if aerr != nil || berr != nil || a.Status != b.Status || a.Plan != b.Plan ||
			a.Confidence != b.Confidence || a.Cost != b.Cost || a.CostKnown != b.CostKnown {
			bad++
			continue
		}
		answers = append(answers, a)
		ops = append(ops, i)
	}
	return answers, ops, bad, nil
}

// predictedCostRatio is plan_cost_ratio for a predict-only caller: the
// geometric mean, over the parity points, of the cost of the predicted plan
// at the point divided by the cost of the plan the optimizer picks there. A
// NULL answer sends the caller to the optimizer and therefore has ratio 1. Plan trees are found
// by fingerprint among the optimizer's own plans along the sequence.
func (e *wireEnv) predictedCostRatio(answers []netproto.PredictResult, ops []int) (ratio float64, n, unmatched int, err error) {
	opt := e.sys.Optimizer()
	trees := make([]map[string]*optimizer.Plan, len(e.in.names))
	lookup := func(k int, print string) *optimizer.Plan {
		if trees[k] == nil {
			trees[k] = map[string]*optimizer.Plan{}
			for j := 0; j < e.in.per; j += 4 {
				if inst, err := e.in.tmpls[k].Instantiate(e.in.values[k][j]); err == nil {
					if p, err := opt.OptimizeInstance(inst); err == nil {
						trees[k][p.Fingerprint] = p
					}
				}
			}
		}
		return trees[k][print]
	}
	var sum float64
	for a, res := range answers {
		k, j := e.in.op(ops[a])
		if res.Status != netproto.StatusOK {
			n++
			continue
		}
		inst, err := e.in.tmpls[k].Instantiate(e.in.values[k][j])
		if err != nil {
			return 0, 0, 0, err
		}
		best, err := opt.OptimizeInstance(inst)
		if err != nil {
			return 0, 0, 0, err
		}
		if best.Fingerprint == res.Fingerprint {
			n++
			continue
		}
		tree := lookup(k, res.Fingerprint)
		if tree == nil {
			unmatched++
			continue
		}
		served, err := opt.Recost(e.in.tmpls[k].Query, tree, e.in.values[k][j])
		if err != nil || best.Cost <= 0 {
			unmatched++
			continue
		}
		sum += math.Log(served.Cost / best.Cost)
		n++
	}
	if n == 0 {
		return 0, 0, unmatched, fmt.Errorf("no predicted plan could be costed")
	}
	return math.Exp(sum / float64(n)), n, unmatched, nil
}

// runWire is one untraced run of a wire workload: the end-to-end metrics.
func runWire(sp *spec, cfg runConfig) (*runResult, error) {
	// One closed-loop client on one core; the server gets the other.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res := newResult(sp)
	e, setupS, err := setupWire(sp, cfg, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res.set("setup_s", setupS, "s", fmt.Sprintf("median of %d: process start to /health 200 on leader and replica", setupRepeats))
	var warm, agg runAgg
	ops := sp.ops(cfg)
	w := newWindow(ops, sp.refEvery)

	if sp.predict {
		e.train(&warm)
		if _, err := e.c.waitCaughtUp(); err != nil {
			return nil, err
		}
		cl, err := client.Dial(client.Options{Addr: e.c.replicaServ, PoolSize: 1})
		if err != nil {
			return nil, err
		}
		defer cl.Close() //nolint:errcheck
		next := e.predicts(cl, 0, sp.warm(cfg), nil, nil, &warm)
		calib0 := calibrate()
		w.begin()
		e.predicts(cl, next, ops, w, nil, &agg)
		rss, err := peakRSSMB(e.c.replica.Process.Pid)
		if err != nil {
			return nil, err
		}
		res.hostDrift(calib0, calibrate())
		answers, ops, bad, err := e.parity(cl)
		if err != nil {
			return nil, err
		}
		ratio, n, unmatched, err := e.predictedCostRatio(answers, ops)
		if err != nil {
			return nil, err
		}
		res.Failed = bad
		res.set("plan_cost_ratio", ratio, "ratio", fmt.Sprintf("n=%d answers costed, %d plans not found", n, unmatched))
		res.set("peak_rss_mb", rss, "MB", "VmHWM of ppcreplica")
		res.info("checked", fmt.Sprintf("%d points at leader and replica, %d differ", parityPoints, bad))
	} else {
		var keep []wireSample
		next := e.runs(0, sp.warm(cfg), nil, nil, &warm, nil)
		calib0 := calibrate()
		w.begin()
		e.runs(next, ops, w, nil, &agg, &keep)
		rss, err := peakRSSMB(e.c.leader.Process.Pid)
		if err != nil {
			return nil, err
		}
		res.hostDrift(calib0, calibrate())
		bad := e.checkRows(keep)
		det := sp.det(cfg)
		ratio, n, err := planCostRatio(sp, e.in, det)
		if err != nil {
			return nil, err
		}
		res.Failed = bad
		res.set("plan_cost_ratio", ratio, "ratio", fmt.Sprintf("n=%d, deterministic in-process twin, %d ops", n, det))
		res.set("peak_rss_mb", rss, "MB", "VmHWM of ppcserve")
		res.info("checked", fmt.Sprintf("%d replies' row counts against the reference executor, %d differ", len(keep), bad))
	}
	res.Attempted = warm.ops + agg.ops
	res.Failed += warm.failed + agg.failed
	res.opTiming(w.timing(sp.predict))
	res.invocationShare(&agg)
	return res, nil
}

// traceWire is the traced run of a wire workload: the per-layer metrics.
func traceWire(sp *spec, cfg runConfig) (*runResult, error) {
	res := newResult(sp)
	if err := setupLayers(res); err != nil {
		return nil, err
	}
	e, _, err := setupWire(sp, cfg, 1)
	if err != nil {
		return nil, err
	}
	defer e.close()
	tr := newTracer(1 << 18)
	res.clock = clockNs()

	// Poll the replica's lag every 500 ms while the leader is driven.
	var lagMax uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hc := &http.Client{}
		defer hc.CloseIdleConnections()
		for {
			select {
			case <-stop:
				return
			case <-time.After(500 * time.Millisecond):
			}
			var h replicaHealth
			if getJSON(hc, e.c.replicaHTTP, "/health", &h) == nil && h.LagRecords > lagMax {
				lagMax = h.LagRecords
			}
		}
	}()
	var once sync.Once
	stopPoll := func() { once.Do(func() { close(stop); wg.Wait() }) }
	defer stopPoll()
	// One closed-loop client on one core while the wire is driven; the twin
	// afterwards gets both, as the server had.
	procsBefore := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procsBefore)

	var warm, agg runAgg
	var cl *client.Client
	var calib0 float64
	next := 0
	if sp.predict {
		e.train(&warm)
		stopPoll()
		catchup, err := e.c.waitCaughtUp()
		if err != nil {
			return nil, err
		}
		res.set("replica.catchup_ms", ms(catchup), "ms", "last /run ack to lag_records 0")
		if cl, err = client.Dial(client.Options{Addr: e.c.replicaServ, PoolSize: 1}); err != nil {
			return nil, err
		}
		defer cl.Close() //nolint:errcheck
		next = e.predicts(cl, 0, sp.warm(cfg), nil, nil, &warm)
		calib0 = calibrate()
		blocks(res, sp.ops(cfg)/2, tr, func(n int, w *window, tr *tracer) { next = e.predicts(cl, next, n, w, tr, &agg) })
	} else {
		next = e.runs(0, sp.warm(cfg), nil, nil, &warm, nil)
		calib0 = calibrate()
		blocks(res, sp.ops(cfg)/2, tr, func(n int, w *window, tr *tracer) { next = e.runs(next, n, w, tr, &agg, nil) })
		stopPoll()
		catchup, err := e.c.waitCaughtUp()
		if err != nil {
			return nil, err
		}
		res.set("replica.catchup_ms", ms(catchup), "ms", "last /run ack to lag_records 0")
	}
	runtime.GOMAXPROCS(procsBefore)
	res.hostDrift(calib0, calibrate())
	res.set("replica.lag_records_max", float64(lagMax), "count", "polled every 500 ms")
	res.Attempted = warm.ops + agg.ops
	res.Failed = warm.failed + agg.failed

	// Counters the leader keeps.
	var snap ppc.MetricsSnapshot
	if err := e.c.getJSON(e.c.http, "/metrics", &snap); err != nil {
		return nil, err
	}
	res.countLearner(&snap)
	if !sp.predict {
		if snap.WAL == nil {
			return nil, fmt.Errorf("leader reports no WAL metrics")
		}
		res.countServing(&snap)
		res.set("wal.bytes_per_run", res.value("wal.append_bytes")/float64(warm.ops+agg.ops), "bytes", "")
		res.set("durability.dir_bytes", float64(dirBytes(e.c.walDir)), "bytes", "WAL directory before the kill cycle")
	}
	var repl obsv.ReplSnapshot
	if err := e.c.getJSON(e.c.http, "/replication", &repl); err != nil {
		return nil, err
	}
	res.set("replica.records_shipped", float64(repl.RecordsShipped), "count", "")
	res.set("replica.snapshot_bytes", float64(repl.SnapshotBytes), "bytes", "")

	// The in-process twin: the same ops through System.Run (or the same
	// training, then PredictRPC) with the server's options, which splits
	// the round trip into the program's work and the wire's.
	twinSys, err := openSystem(sp, false)
	if err != nil {
		return nil, err
	}
	defer twinSys.Close() //nolint:errcheck
	twin := &inproc{sp: sp, sys: twinSys, in: e.in}
	wireMean, n := tr.meanNs(map[bool]string{true: "client.predict", false: "ppcserve.http_round_trip"}[sp.predict])
	if n == 0 {
		return nil, fmt.Errorf("no traced op succeeded")
	}
	wall := wireMean * float64(n)
	if sp.predict {
		for i := 0; i < sp.train(cfg); i++ {
			k, j := e.in.trainOp(i)
			if _, err := twinSys.Run(e.in.names[k], e.in.values[k][j]); err != nil {
				return nil, fmt.Errorf("twin training op %d: %w", i, err)
			}
		}
		directPredict(res, tr, twin, e.in.len())
		directCodec(res, tr, e.in)
		ping := direct(res, tr, "client.ping", "", directOps, func(int) { cl.Ping() }) //nolint:errcheck
		res.set("client.ping_rtt_us", ping/1e3, "us", fmt.Sprintf("direct Client.Ping mean, n=%d", directOps))
		model, codec := res.value("core.model_predict_ns"), res.value("netproto.codec_ns")
		res.Table = budget(wall, n,
			layerRow{Name: "core.model_predict", SelfNs: model},
			layerRow{Name: "netproto.codec", SelfNs: codec},
			layerRow{Name: "client+replica.wire", SelfNs: wireMean - model - codec})
	} else {
		var twarm, tagg runAgg
		from := twin.run(0, sp.warm(cfg), nil, nil, &twarm, nil)
		twin.run(from, n, nil, tr, &tagg, nil)
		m := float64(tagg.ops - tagg.failed)
		runNs, _ := tr.meanNs("facade.run")
		p, o, x := float64(tagg.predictNs)/m, float64(tagg.optimizeNs)/m, float64(tagg.executeNs)/m
		res.set("facade.run_ns", runNs, "ns", fmt.Sprintf("in-process twin, n=%d", tagg.ops))
		res.set("facade.self_ns", runNs-p-o-x, "ns", "twin run - (predict+optimize+execute reported)")
		res.set("facade.self_share", (runNs-p-o-x)/runNs, "ratio", "")
		res.set("core.predict_ns", p, "ns", "twin, reported PredictTime")
		res.set("optimizer.optimize_ns", o, "ns", "twin, reported OptimizeTime")
		res.set("executor.execute_ns", x, "ns", "twin, reported ExecuteTime")
		res.set("executor.rows_out_mean", float64(tagg.rows)/m, "count", "twin")
		res.set("core.predict_share", p/(p+o+x), "ratio", "of predict+optimize+execute")
		res.set("optimizer.optimize_share", o/runNs, "ratio", "of the twin's facade.run")
		res.set("executor.execute_share", x/runNs, "ratio", "of the twin's facade.run")
		res.set("ppcserve.http_overhead_us", (wireMean-runNs)/1e3, "us", "HTTP round trip mean minus the twin's facade.run mean")
		directRun(res, tr, twin, from+n)
		directPredict(res, tr, twin, from+n)
		if err := directWALAppend(res, tr, e.in, cfg.outDir); err != nil {
			return nil, err
		}
		res.Table = budget(wall, n,
			layerRow{Name: "core.predict", SelfNs: p},
			layerRow{Name: "optimizer.optimize", SelfNs: o},
			layerRow{Name: "executor.execute", SelfNs: x},
			layerRow{Name: "facade.self", SelfNs: runNs - p - o - x},
			layerRow{Name: "ppcserve.http_overhead", SelfNs: wireMean - runNs})
	}
	res.TableWallNs = wall
	m := float64(agg.ops - agg.failed)
	res.set("core.predicted_share", float64(agg.predicted)/m, "ratio", "")
	res.set("optimizer.invocations", float64(agg.invoked), "count", fmt.Sprintf("of %d ops", agg.ops))
	if !sp.predict {
		res.set("plancache.hit_share", float64(agg.hits)/m, "ratio", "cache_hit in the /run reply")
		if err := e.recovery(res, float64(snap.WAL.Appends)); err != nil {
			return nil, err
		}
	}
	res.set("failed_share", float64(res.Failed)/float64(res.Attempted), "ratio", "")
	return res, tr.write(cfg.tracePath(sp))
}

// budget turns per-op means into table rows over n ops of total wall time.
func budget(wall float64, n int, rows ...layerRow) []layerRow {
	for i := range rows {
		rows[i].SelfNs *= float64(n)
		rows[i].Share = rows[i].SelfNs / wall
		rows[i].Count = n
		rows[i].Allocs = -1
	}
	return rows
}

// recovery kills the leader with SIGKILL and restarts it on the same
// directory recoveryCycles times. No cycle closes cleanly or checkpoints, so
// every restart replays the same WAL tail; each must account for every
// record the leader had appended before the first kill. Then one forced
// checkpoint is timed.
func (e *wireEnv) recovery(res *runResult, appended float64) error {
	var took []float64
	var replayed float64
	for r := 0; r < recoveryCycles; r++ {
		d, err := e.c.restartLeader()
		if err != nil {
			return err
		}
		took = append(took, ms(d))
		var rep ppc.LoadReport
		if err := e.c.getJSON(e.c.http, "/recovery", &rep); err != nil {
			return err
		}
		replayed = float64(rep.WALReplayed)
		if got := float64(rep.WALReplayed + rep.WALSkipped + rep.WALStale + rep.WALPending); rep.Corrupt || got < appended {
			res.Failed++
			res.Attempted++
			res.info("recovery", fmt.Sprintf("restart %d accounts for %.0f of %.0f appended records (corrupt=%v)", r, got, appended, rep.Corrupt))
		}
	}
	res.set("durability.recovery_ms", median(took), "ms", fmt.Sprintf("SIGKILL to /health 200, median of %d", recoveryCycles))
	res.set("durability.recovery_replayed", replayed, "count", fmt.Sprintf("of %.0f appended", appended))
	t0 := time.Now()
	resp, err := e.c.hc.Post("http://"+e.c.http+"/checkpoint", "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /checkpoint: status %d", resp.StatusCode)
	}
	res.set("durability.checkpoint_ms", ms(time.Since(t0)), "ms", "POST /checkpoint after the kill cycle")
	return nil
}
