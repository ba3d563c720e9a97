// Command bench is the repository's benchmark: four named workloads that
// drive the PPC serving system from outside (System.Run in process, real
// ppcserve and ppcreplica binaries over the wire), five end-to-end metrics
// every workload reports, and a per-layer budget from a second, traced run.
// BENCHMARK.json at the repository root names the workloads and metrics;
// README.md beside this file says how to run and read it.
//
//	go run -C bench .                       all workloads, both passes, tables
//	go run -C bench . --workload hit_exec --seed 7 --seconds 10 --trace 0
//	go run -C bench . -repeat 3             two interleaved sets of 3 runs, compared
//	go run -C bench . -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed int64
	// seconds sizes the run: every workload measures the fixed number of ops
	// the seed commit does in that time (spec.ops), not a time.
	seconds float64
	// root is this package's directory; outDir, below it by default, takes
	// the built servers, their temp directories, results and traces.
	root, outDir string
}

func (c runConfig) tracePath(sp *spec) string {
	return filepath.Join(c.outDir, "trace-"+sp.name+".jsonl")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Notes     map[string]string `json:"notes,omitempty"`
	// Table is the budget under the op's root span (rows sum to the wall);
	// Direct are the harness's own timed calls into single layers.
	Table       []layerRow `json:"table,omitempty"`
	TableWallNs float64    `json:"table_wall_ns,omitempty"`
	Direct      []layerRow `json:"direct,omitempty"`

	order []string
	// also are metrics measured in this pass that BENCHMARK.json lists for
	// the other pass; they are printed, not reported.
	also  []string
	clock float64
}

func newResult(sp *spec) *runResult {
	return &runResult{Workload: sp.name, Metrics: map[string]metric{}, Notes: map[string]string{}}
}

func (r *runResult) set(name string, v float64, unit, note string) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.Notes[name] = note
	}
}

func (r *runResult) info(key, note string) { r.Notes[key] = note }

func (r *runResult) value(name string) float64 { return r.Metrics[name].Value }

// opTiming reports the caller-observed latency and rate of the workload's
// op: the Run call, the HTTP round trip, or the Predict round trip.
func (r *runResult) opTiming(t timing) {
	n := fmt.Sprintf("n=%d in %.2f s, median of %d segments", t.Samples, t.WallS, segmentCount)
	p50 := n
	if t.SameSlices {
		p50 = fmt.Sprintf("n=%d in %.2f s, second-lowest of %d identical segments", t.Samples, t.WallS, segmentCount)
	}
	r.set("op_p50_us", t.P50us, "us", fmt.Sprintf("%s, IQR %.1f%%; as measured %.4f us, host %.3fx nominal (kernels %.3f %.3f %.3f)",
		p50, 100*t.P50iqr, t.RawP50us, t.Host, t.HostByKernel[0], t.HostByKernel[1], t.HostByKernel[2]))
	r.set("op_p99_us", t.P99us, "us", fmt.Sprintf("%s, IQR %.1f%%", n, 100*t.P99iqr))
	r.set("op_qps", t.QPS, "1/s", fmt.Sprintf("%s, IQR %.1f%%, one closed-loop client", n, 100*t.QPSiqr))
}

// hostDrift records the calibration kernel before and after the workload; a
// run during which the host's speed moved by more than 5% is marked noisy.
func (r *runResult) hostDrift(before, after float64) {
	drift := 100 * (after/before - 1)
	r.set("host.calib_ns", before, "ns", "fixed integer+float kernel, best of 5")
	r.set("host.calib_drift_pct", drift, "%", "kernel after vs before the workload")
	if drift > 5 || drift < -5 {
		r.info("noisy", fmt.Sprintf("host speed moved %.1f%% during the run", drift))
	}
}

// print writes the metrics by name with unit and sample note, then the
// tables of a traced run.
func (r *runResult) print(w io.Writer) {
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s: %s — attempted %d, failed %d\n", r.Workload, pass, r.Attempted, r.Failed)
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s %s\n", name, m.Value, m.Unit, r.Notes[name])
	}
	for _, line := range r.also {
		fmt.Fprintf(w, "  %s (of the other pass; not reported here)\n", line)
	}
	for _, key := range []string{"checked", "recovery", "noisy"} {
		if n, ok := r.Notes[key]; ok {
			fmt.Fprintf(w, "  %s: %s\n", key, n)
		}
	}
	if r.Traced {
		printTable(w, "  budget of the op's root span", r.Table, r.TableWallNs)
		fmt.Fprintf(w, "  direct calls (mean ns per call)\n")
		for _, d := range r.Direct {
			fmt.Fprintf(w, "    %-32s %12.1f ns %9d calls %8.1f allocs\n", d.Name, d.SelfNs, d.Count, d.Allocs)
		}
	}
}

// finish keeps exactly the metrics BENCHMARK.json lists for this pass, and
// fails if one of them was not measured on a workload it exists on.
func (r *runResult) finish(sp *spec) error {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	out := make(map[string]metric, len(defs))
	var order []string
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		exists := !r.Traced || d.On&sp.bit() != 0
		switch {
		case ok && m.Unit != d.Unit:
			return fmt.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", r.Workload, d.Name, m.Unit, d.Unit)
		case ok && !exists:
			return fmt.Errorf("%s: %s was measured, but is listed as not existing on this workload", r.Workload, d.Name)
		case !ok && exists:
			return fmt.Errorf("%s: %s was not measured", r.Workload, d.Name)
		case !ok:
			m = metric{Unit: d.Unit}
			r.Notes[d.Name] = "not on this workload"
		}
		out[d.Name] = m
		order = append(order, d.Name)
	}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.Name] = true
	}
	for _, name := range r.order {
		if !known[name] {
			return fmt.Errorf("%s: metric %s is not in BENCHMARK.json", r.Workload, name)
		}
		if _, ok := out[name]; !ok {
			m := r.Metrics[name]
			r.also = append(r.also, fmt.Sprintf("%-34s %14.4f %-6s %s", name, m.Value, m.Unit, r.Notes[name]))
		}
	}
	r.Metrics, r.order = out, order
	return nil
}

// runOne runs one pass of one workload and applies the checks that make a
// run count as correct.
func runOne(sp *spec, cfg runConfig, traced bool) (*runResult, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var res *runResult
	var err error
	switch {
	case sp.wire && traced:
		res, err = traceWire(sp, cfg)
	case sp.wire:
		res, err = runWire(sp, cfg)
	case traced:
		res, err = traceInproc(sp, cfg)
	default:
		res, err = runInproc(sp, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	res.Traced = traced
	if err := res.finish(sp); err != nil {
		return nil, err
	}
	return res, nil
}

// contractLine is the one JSON object the driver reads from the last line.
func contractLine(r *runResult) string {
	b, _ := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   r.Metrics,
	})
	return string(b)
}

func main() {
	workloadName := flag.String("workload", "", "run one workload and print the driver's JSON line (default: all, both passes)")
	seed := flag.Int64("seed", 2012, "workload seed; 7 is the held-out seed no sizing was done on")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "with -workload: 0 end-to-end metrics, 1 per-layer metrics from the traced pass")
	repeat := flag.Int("repeat", 0, "run two interleaved sets of N untraced runs per workload and compare them")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	flag.Parse()

	if *seconds < 0.05 {
		// Below that a predict workload would train its leader on nothing.
		fatal(fmt.Errorf("--seconds %v: want at least 0.05", *seconds))
	}
	root, err := benchRoot()
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, root: root, outDir: filepath.Join(root, "out")}

	// Children die with the harness: on return, on panic (deferred), and on
	// SIGINT/SIGTERM.
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	code := 0
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		code, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *repeat > 0:
		code, err = repeatSuite(cfg, *repeat)
	case *workloadName != "":
		code, err = single(cfg, *workloadName, *trace == 1)
	default:
		code, err = suite(cfg)
	}
	killAll()
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

func fatal(err error) {
	killAll()
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// benchRoot is this package's directory. Every way of starting the harness
// (run.sh, go run -C bench, go test) makes it the working directory.
func benchRoot() (string, error) {
	if _, err := os.Stat("workloads.go"); err != nil {
		return "", fmt.Errorf("run from bench/: bash bench/run.sh, or go run -C bench")
	}
	return filepath.Abs(".")
}

// single is the driver's entry: one workload, one pass, one JSON line. It
// fails on wrong outputs only; whether the workloads still stress different
// layers is the suite's assertion, not a property of one run.
func single(cfg runConfig, name string, traced bool) (int, error) {
	sp, err := specByName(name)
	if err != nil {
		return 1, err
	}
	res, err := runOne(sp, cfg, traced)
	if err != nil {
		return 1, err
	}
	res.print(os.Stderr)
	fmt.Println(contractLine(res))
	if res.Failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// isolated runs one pass of one workload in a process of its own, the way
// the driver does: a fresh heap and a fresh VmHWM for every run, so that
// what one workload leaves behind cannot colour the next one's numbers. The
// child's tables go to human; its JSON line comes back parsed.
func isolated(sp *spec, cfg runConfig, traced bool, human io.Writer) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", sp.name, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace)
	cmd.Dir = cfg.root
	cmd.Stderr = human
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := track(cmd); err != nil {
		return nil, err
	}
	werr := cmd.Wait()
	untrack(cmd)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	res := &runResult{Workload: sp.name, Traced: traced}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		// A child that counted failed ops exits 1 but still reports; one
		// that printed no result line has failed as a run.
		return nil, fmt.Errorf("%s: no result from child (%v)", sp.name, werr)
	}
	return res, nil
}

// resultFile is what the suite writes and -compare reads.
type resultFile struct {
	Schema    string                  `json:"schema"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string][]*runResult `json:"workloads"`
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// suite runs every workload, untraced then traced, prints every metric and
// table, writes out/result.json, and asserts that the workloads still
// stress the layers they were chosen for.
func suite(cfg runConfig) (int, error) {
	file := &resultFile{Schema: "ppc-bench/v3", Seed: cfg.seed, Seconds: cfg.seconds, Workloads: map[string][]*runResult{}}
	tracedBy := map[string]*runResult{}
	failed := 0
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			res, err := isolated(sp, cfg, traced, os.Stdout)
			if err != nil {
				return 1, err
			}
			failed += res.Failed
			file.Workloads[sp.name] = append(file.Workloads[sp.name], res)
			if traced {
				tracedBy[sp.name] = res
			}
		}
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := file.write(path); err != nil {
		return 1, err
	}
	fmt.Printf("results: %s; traces: %s\n", path, filepath.Join(cfg.outDir, "trace-<workload>.jsonl"))
	if err := separation(tracedBy); err != nil {
		fmt.Println("FAIL:", err)
		return 1, nil
	}
	if failed > 0 {
		fmt.Printf("FAIL: %d ops failed or gave wrong output\n", failed)
		return 1, nil
	}
	return 0, nil
}

// separation asserts, on traced results, that each workload still loads the
// layers it was chosen to load; a benchmark whose workloads drifted
// together could no longer tell an executor win from an optimizer win.
func separation(traced map[string]*runResult) error {
	type rule struct {
		workload, metric string
		min, max         float64
	}
	inf := 1e300
	rules := []rule{
		{"hit_exec", "executor.execute_share", 0.80, 1},
		{"miss_optimize", "executor.execute_share", 0, 0.45},
		{"miss_optimize", "optimizer.optimize_share", 0.45, 1},
		{"hit_exec", "optimizer.optimize_share", 0, 0.05},
		{"hit_exec", "plancache.evictions", 0, 0},
		{"serve_durable", "plancache.evictions", 1, inf},
		{"serve_durable", "wal.appends", 1, inf},
		{"hit_exec", "wal.appends", 0, 0},
		{"miss_optimize", "wal.appends", 0, 0},
		{"hit_exec", "bench.tracing_overhead_pct", -inf, 5},
		{"miss_optimize", "bench.tracing_overhead_pct", -inf, 5},
		{"serve_durable", "bench.tracing_overhead_pct", -inf, 5},
		{"replica_predict", "bench.tracing_overhead_pct", -inf, 5},
	}
	for _, r := range rules {
		res := traced[r.workload]
		if res == nil || !res.Traced {
			continue
		}
		if v := res.value(r.metric); v < r.min || v > r.max {
			return fmt.Errorf("workload separation: %s on %s is %.4g, want [%.4g, %.4g]", r.metric, r.workload, v, r.min, r.max)
		}
	}
	return nil
}
