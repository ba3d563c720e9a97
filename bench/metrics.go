package main

// metricDef names one metric of BENCHMARK.json; the self-test checks that
// the file and these tables agree.
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change is rejected.
	Bound float64
	// Abs, where set, is a second, absolute bound that -compare applies. The
	// driver's one relative bound per metric has to be wider than the ten
	// seeds differ on the workload where they differ most; two sets of runs
	// of one seed repeat these ratios almost exactly and can be held to the
	// 0.01 the issue asked for.
	Abs float64
	// On is the set of workloads a per-layer metric exists on. The driver
	// wants every metric from every workload, so elsewhere it reads 0; a
	// metric missing where it should exist, or measured where it should not,
	// fails the run.
	On workloadSet
}

// workloadSet is a set of workloads, one bit each in the order of specs.
type workloadSet uint8

const (
	onHit workloadSet = 1 << iota
	onMiss
	onServe
	onReplica
	onInproc = onHit | onMiss
	onRun    = onInproc | onServe // the workloads whose op is a Run
	onWire   = onServe | onReplica
	onAll    = onRun | onReplica
)

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them: "op" is the Run call on hit_exec and
// miss_optimize, the POST /run round trip on serve_durable, and the
// client.Predict round trip on replica_predict.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "optimizer_invocation_share", Unit: "ratio", Better: "lower", Bound: 0.25, Abs: 0.01},
	{Name: "plan_cost_ratio", Unit: "ratio", Better: "lower", Bound: 0.08, Abs: 0.01},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, from the traced pass.
var perLayer = []metricDef{
	{Name: "op_p99_us", Unit: "us", Better: "lower", On: onAll},
	{Name: "op_qps", Unit: "1/s", Better: "higher", On: onAll},
	{Name: "facade.run_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "facade.self_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "facade.self_share", Unit: "ratio", Better: "lower", On: onRun},
	{Name: "facade.unattributed_ns", Unit: "ns", Better: "lower", On: onInproc},
	{Name: "facade.allocs_per_run", Unit: "count", Better: "lower", On: onInproc},
	{Name: "facade.bytes_per_run", Unit: "bytes", Better: "lower", On: onInproc},
	{Name: "facade.parallel_speedup_2", Unit: "ratio", Better: "higher", On: onHit},
	{Name: "facade.register_ms", Unit: "ms", Better: "lower", On: onAll},
	{Name: "tpch.generate_ms", Unit: "ms", Better: "lower", On: onAll},
	{Name: "catalog.build_ms", Unit: "ms", Better: "lower", On: onAll},
	{Name: "optimizer.instantiate_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "optimizer.selectivity_point_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "optimizer.instance_at_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "optimizer.optimize_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "optimizer.optimize_share", Unit: "ratio", Better: "lower", On: onRun},
	{Name: "optimizer.invocations", Unit: "count", Better: "lower", On: onAll},
	{Name: "optimizer.optimize_memo_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "optimizer.rebind_recost_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "core.predict_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "core.predict_share", Unit: "ratio", Better: "lower", On: onRun},
	{Name: "core.predicted_share", Unit: "ratio", Better: "higher", On: onAll},
	{Name: "core.model_predict_ns", Unit: "ns", Better: "lower", On: onAll},
	{Name: "core.synopsis_bytes", Unit: "bytes", Better: "lower", On: onAll},
	{Name: "core.snapshot_publishes", Unit: "count", Better: "lower", On: onAll},
	{Name: "core.feedback_deferred", Unit: "count", Better: "lower", On: onAll},
	{Name: "core.stale_feedback_drops", Unit: "count", Better: "lower", On: onAll},
	{Name: "plancache.hit_share", Unit: "ratio", Better: "higher", On: onRun},
	{Name: "plancache.evictions", Unit: "count", Better: "lower", On: onRun},
	{Name: "plancache.len", Unit: "count", Better: "lower", On: onRun},
	{Name: "plancache.touch_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "executor.execute_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "executor.execute_share", Unit: "ratio", Better: "lower", On: onRun},
	{Name: "executor.exec_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "executor.observe_overhead_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "executor.compile_ns", Unit: "ns", Better: "lower", On: onRun},
	{Name: "executor.rows_out_mean", Unit: "count", Better: "lower", On: onRun},
	{Name: "stats.qerror_p95", Unit: "ratio", Better: "lower", On: onRun},
	{Name: "stats.memo_invalidations", Unit: "count", Better: "lower", On: onRun},
	{Name: "wal.appends", Unit: "count", Better: "lower", On: onRun},
	{Name: "wal.append_bytes", Unit: "bytes", Better: "lower", On: onRun},
	{Name: "wal.bytes_per_run", Unit: "bytes", Better: "lower", On: onServe},
	{Name: "wal.syncs", Unit: "count", Better: "lower", On: onRun},
	{Name: "wal.fsync_ms_mean", Unit: "ms", Better: "lower", On: onServe},
	{Name: "wal.append_ns", Unit: "ns", Better: "lower", On: onServe},
	{Name: "durability.recovery_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "durability.recovery_replayed", Unit: "count", Better: "higher", On: onServe},
	{Name: "durability.checkpoint_ms", Unit: "ms", Better: "lower", On: onServe},
	{Name: "durability.dir_bytes", Unit: "bytes", Better: "lower", On: onServe},
	{Name: "replica.records_shipped", Unit: "count", Better: "higher", On: onWire},
	{Name: "replica.snapshot_bytes", Unit: "bytes", Better: "lower", On: onWire},
	{Name: "replica.lag_records_max", Unit: "count", Better: "lower", On: onWire},
	{Name: "replica.catchup_ms", Unit: "ms", Better: "lower", On: onWire},
	{Name: "netproto.codec_ns", Unit: "ns", Better: "lower", On: onReplica},
	{Name: "client.ping_rtt_us", Unit: "us", Better: "lower", On: onReplica},
	{Name: "ppcserve.http_overhead_us", Unit: "us", Better: "lower", On: onServe},
	{Name: "host.calib_ns", Unit: "ns", Better: "lower", On: onAll},
	{Name: "host.calib_drift_pct", Unit: "%", Better: "lower", On: onAll},
	{Name: "bench.tracing_overhead_pct", Unit: "%", Better: "lower", On: onAll},
	{Name: "failed_share", Unit: "ratio", Better: "lower", On: onAll},
}
