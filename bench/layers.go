package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ppc "repro"
	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/netproto"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// directOps is how many recent inputs each directly timed layer call is
// repeated over.
const directOps = 2000

// setupLayers times the parts of set-up one by one, so that work moved into
// set-up shows in the layer that took it.
func setupLayers(res *runResult) error {
	t0 := time.Now()
	db, err := tpch.Generate(dbConfig)
	if err != nil {
		return err
	}
	res.set("tpch.generate_ms", ms(time.Since(t0)), "ms", "direct tpch.Generate")
	t0 = time.Now()
	if _, err := catalog.Build(db, 0); err != nil {
		return err
	}
	res.set("catalog.build_ms", ms(time.Since(t0)), "ms", "direct catalog.Build")
	sys, err := ppc.Open(ppc.Options{TPCH: dbConfig})
	if err != nil {
		return err
	}
	defer sys.Close() //nolint:errcheck
	t0 = time.Now()
	if err := sys.RegisterStandard(); err != nil {
		return err
	}
	res.set("facade.register_ms", ms(time.Since(t0)), "ms", "RegisterStandard, nine templates")
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// countLearner copies the learner counters the program already keeps.
func (res *runResult) countLearner(snap *ppc.MetricsSnapshot) {
	var synopsis, publishes, deferred, stale float64
	for _, t := range snap.Templates {
		synopsis += float64(t.Learner.SynopsisBytes)
		publishes += float64(t.Learner.SnapshotPublishes)
		stale += float64(t.Learner.StaleFeedbackDrops)
		deferred += float64(t.Counters.FeedbackDeferred)
	}
	res.set("core.synopsis_bytes", synopsis, "bytes", "all templates")
	res.set("core.snapshot_publishes", publishes, "count", "")
	res.set("core.feedback_deferred", deferred, "count", "applied inline because the mailbox was full")
	res.set("core.stale_feedback_drops", stale, "count", "")
}

// countServing copies the statistics, plan cache and WAL counters of a
// system that serves Run.
func (res *runResult) countServing(snap *ppc.MetricsSnapshot) {
	var memoInv, qp95 float64
	for _, t := range snap.Templates {
		memoInv += float64(t.Counters.MemoInvalidations)
		if q := t.EstimationQError.Quantile(0.95); q > qp95 {
			qp95 = q
		}
	}
	res.set("stats.qerror_p95", qp95, "ratio", "worst template's p95 estimation q-error")
	res.set("stats.memo_invalidations", memoInv, "count", "")
	res.set("plancache.evictions", float64(snap.Cache.Evictions), "count", "")
	res.set("plancache.len", float64(snap.Cache.Len), "count", fmt.Sprintf("capacity %d", snap.Cache.Capacity))
	w := snap.WAL
	if w == nil {
		// The system was opened without a log and says so: nothing appended.
		const none = "MetricsSnapshot.WAL is nil: no log configured"
		res.set("wal.appends", 0, "count", none)
		res.set("wal.append_bytes", 0, "bytes", none)
		res.set("wal.syncs", 0, "count", none)
		return
	}
	res.set("wal.appends", float64(w.Appends), "count", "")
	res.set("wal.append_bytes", float64(w.AppendBytes), "bytes", "")
	res.set("wal.syncs", float64(w.Syncs), "count", "")
	res.set("wal.fsync_ms_mean", w.FsyncLatency.MeanNanos()/1e6, "ms", fmt.Sprintf("n=%d", w.FsyncLatency.Count))
}

// direct times fn over n calls as root spans named name, and adds a row
// with the mean (less the clock's own cost) and the allocations per call;
// the mean, in ns, also becomes the metric metricName unless that is empty.
func direct(res *runResult, tr *tracer, name, metricName string, n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += tr.timed(name, i, func() { fn(i) })
	}
	runtime.ReadMemStats(&m1)
	mean := float64(sum)/float64(n) - res.clock
	if mean < 0 {
		mean = 0
	}
	res.Direct = append(res.Direct, layerRow{Name: name, SelfNs: mean, Count: n,
		Allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n)})
	if metricName != "" {
		res.set(metricName, mean, "ns", fmt.Sprintf("direct, n=%d", n))
	}
	return mean
}

// compiled is what the harness builds once per distinct plan it meets.
type compiled struct {
	prog   *executor.CompiledPlan
	rebind *optimizer.RebindProgram
}

// recent returns how many of the inputs before next the direct calls use,
// and the input of the i-th of them.
func (e *inproc) recent(next int) (n int, at func(i int) (k, j int)) {
	n = directOps
	if next < n {
		n = next
	}
	return n, func(i int) (k, j int) { return e.in.op(next - n + i) }
}

// directRun times the harness's own calls into the public functions of the
// layers a Run passes through, on the most recent inputs of the run. The
// plan each call works on is the optimizer's plan for that instance, which
// on a hit-dominated workload is the plan Run served.
func directRun(res *runResult, tr *tracer, e *inproc, next int) {
	n, at := e.recent(next)
	opt := e.sys.Optimizer()

	insts := make([]optimizer.Instance, n)
	direct(res, tr, "optimizer.instantiate", "optimizer.instantiate_ns", n, func(i int) {
		k, j := at(i)
		insts[i], _ = e.in.tmpls[k].Instantiate(e.in.values[k][j])
	})
	direct(res, tr, "optimizer.selectivity_point", "optimizer.selectivity_point_ns", n, func(i int) {
		opt.SelectivityPoint(insts[i]) //nolint:errcheck
	})
	direct(res, tr, "optimizer.instance_at", "optimizer.instance_at_ns", n, func(i int) {
		k, j := at(i)
		opt.InstanceAt(e.in.tmpls[k], e.in.points[k][j]) //nolint:errcheck
	})

	memos := make([]*optimizer.Memo, len(e.in.tmpls))
	for k, tmpl := range e.in.tmpls {
		memos[k], _ = opt.NewMemo(tmpl.Query)
	}
	plans := make([]*optimizer.Plan, n)
	direct(res, tr, "optimizer.optimize_memo", "optimizer.optimize_memo_ns", n, func(i int) {
		k, j := at(i)
		plans[i], _ = opt.OptimizeMemo(memos[k], e.in.values[k][j])
	})

	// Compile each distinct plan once, as internPlan does.
	ex := executor.New(e.sys.DB())
	byPrint := map[string]*compiled{}
	var fresh []int
	for i, p := range plans {
		if p != nil && byPrint[p.Fingerprint] == nil {
			byPrint[p.Fingerprint] = &compiled{}
			fresh = append(fresh, i)
		}
	}
	direct(res, tr, "executor.compile", "executor.compile_ns", len(fresh), func(f int) {
		i := fresh[f]
		k, _ := at(i)
		c := byPrint[plans[i].Fingerprint]
		c.prog, _ = ex.Compile(plans[i], e.in.tmpls[k].Query)
		c.rebind, _ = opt.CompileRebind(e.in.tmpls[k].Query, plans[i])
	})
	usable := make([]int, 0, n)
	for i, p := range plans {
		if p != nil && byPrint[p.Fingerprint].prog != nil && byPrint[p.Fingerprint].rebind != nil {
			usable = append(usable, i)
		}
	}
	direct(res, tr, "optimizer.rebind_recost", "optimizer.rebind_recost_ns", len(usable), func(u int) {
		i := usable[u]
		k, j := at(i)
		byPrint[plans[i].Fingerprint].rebind.Recost(opt, e.in.values[k][j]) //nolint:errcheck
	})
	direct(res, tr, "executor.exec", "executor.exec_ns", len(usable), func(u int) {
		i := usable[u]
		k, j := at(i)
		byPrint[plans[i].Fingerprint].prog.Exec(e.in.values[k][j]) //nolint:errcheck
	})
	res.set("executor.observe_overhead_ns", res.value("executor.execute_ns")-res.value("executor.exec_ns"), "ns",
		"reported ExecuteTime minus direct Exec: ExecObserve + AttributeCard")

	cache, err := plancache.New(64, nil)
	if err == nil {
		for id := 0; id < 8; id++ {
			cache.Put(id, nil)
		}
		direct(res, tr, "plancache.touch", "plancache.touch_ns", n, func(i int) { cache.Touch(i & 7) })
	}
}

// directPredict times the model's predict alone, with no wire around it.
func directPredict(res *runResult, tr *tracer, e *inproc, next int) {
	n, at := e.recent(next)
	direct(res, tr, "core.model_predict", "core.model_predict_ns", n, func(i int) {
		k, j := at(i)
		e.sys.PredictRPC(netproto.PredictRequest{ID: uint64(i), Template: e.in.names[k], Point: e.in.points[k][j]})
	})
}

// directCodec times one request and one result through the wire codec.
func directCodec(res *runResult, tr *tracer, in *inputs) {
	var buf []byte
	direct(res, tr, "netproto.codec", "netproto.codec_ns", directOps, func(i int) {
		k, j := in.op(i)
		req := netproto.PredictRequest{ID: uint64(i), Template: in.names[k], Point: in.points[k][j]}
		buf = req.Encode(buf[:0])
		netproto.DecodePredictRequest(buf) //nolint:errcheck
		out := netproto.PredictResult{ID: uint64(i), Status: netproto.StatusOK, Plan: 3, Confidence: 0.9, Cost: 1e4, CostKnown: true, Fingerprint: "HJ(IS(l),SS(s))"}
		buf = out.Encode(buf[:0])
		netproto.DecodePredictResult(buf) //nolint:errcheck
	})
}

// directWALAppend appends feedback-shaped records to a scratch log opened
// with the server's sync policy.
func directWALAppend(res *runResult, tr *tracer, in *inputs, dir string) error {
	dir = filepath.Join(dir, "scratch-wal")
	defer os.RemoveAll(dir) //nolint:errcheck
	log, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncInterval})
	if err != nil {
		return err
	}
	direct(res, tr, "wal.append", "wal.append_ns", directOps, func(i int) {
		k, j := in.op(i)
		rec := wal.Record{Epoch: 1, Template: in.names[k], Plan: int64(i & 7), Cost: 1e4, Point: in.points[k][j]}
		log.Append(&rec) //nolint:errcheck
		if i%64 == 63 {
			log.Commit() //nolint:errcheck
		}
	})
	return log.Close()
}
