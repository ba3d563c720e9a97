package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own tables the
// same list: a metric added to one and not the other would be dropped, or
// demanded and never measured.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkJSON
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads, harness has %d", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q (%q), harness has %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, harness has %d", len(f.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range f.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] %q: bad or repeated name, or bound %v outside (0, 0.25]", i, m.Name, m.Bound)
		}
		seen[m.Name] = true
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, harness has %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per_layer[%d] %q: bad or repeated name", i, m.Name)
		}
		seen[m.Name] = true
	}
}

// TestWorkloads runs every workload at --seconds 0.1, both passes, and checks
// that each emits exactly the metrics of its pass with their units, that no
// op failed, and that the traced pass's budget table sums to its wall time.
func TestWorkloads(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			if sp.wire && testing.Short() {
				t.Skip("spawns ppcserve and ppcreplica")
			}
			defer killAll()
			cfg := runConfig{seed: 2012, seconds: 0.1, root: ".", outDir: t.TempDir()}
			for _, traced := range []bool{false, true} {
				res, err := runOne(sp, cfg, traced)
				if err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: %s = %+v (present %v), want a finite value in %s", traced, d.Name, m, ok, d.Unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v; it must never be 0", d.Name, m.Value)
					}
				}
				if res.Failed != 0 || res.Attempted < sp.ops(cfg)/2 {
					t.Errorf("traced=%v: attempted %d, failed %d (%v)", traced, res.Attempted, res.Failed, res.Notes)
				}
				if !traced {
					continue
				}
				var sum float64
				for _, r := range res.Table {
					sum += r.SelfNs
				}
				if res.TableWallNs <= 0 || math.Abs(sum-res.TableWallNs) > 1e-6*res.TableWallNs {
					t.Errorf("budget rows sum to %.0f ns, wall is %.0f ns", sum, res.TableWallNs)
				}
				if _, err := os.Stat(cfg.tracePath(sp)); err != nil {
					t.Errorf("trace file: %v", err)
				}
			}
		})
	}
}

// TestFinish checks that a traced result must hold exactly the metrics that
// exist on its workload: the zeros the driver is given elsewhere may not
// stand in for a measurement that went missing.
func TestFinish(t *testing.T) {
	hit := specs[0]
	full := func() *runResult {
		r := newResult(hit)
		r.Traced = true
		for _, d := range perLayer {
			if d.On&hit.bit() != 0 {
				r.set(d.Name, 1, d.Unit, "")
			}
		}
		return r
	}
	r := full()
	if err := r.finish(hit); err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(perLayer) || r.Notes["wal.append_ns"] != "not on this workload" {
		t.Errorf("%d metrics, want %d with the absent ones marked", len(r.Metrics), len(perLayer))
	}
	r = full()
	delete(r.Metrics, "wal.appends")
	if r.finish(hit) == nil {
		t.Error("wal.appends exists on hit_exec and was not measured: want an error")
	}
	r = full()
	r.set("wal.append_ns", 1, "ns", "")
	if r.finish(hit) == nil {
		t.Error("wal.append_ns does not exist on hit_exec and was measured: want an error")
	}
}

// TestPredictSlices checks what lets the predict workload report its
// second-fastest slice: every slice is exactly one pass over the sequence.
func TestPredictSlices(t *testing.T) {
	for _, sp := range specs {
		for _, seconds := range []float64{0.1, 10} {
			cfg := runConfig{seconds: seconds}
			if per := sp.ops(cfg) / segmentCount; sp.predict && per != sp.sequenceOps(cfg) {
				t.Errorf("%s at %v s: %d ops per slice, the sequence has %d", sp.name, seconds, per, sp.sequenceOps(cfg))
			}
		}
	}
}

// TestHostCorrection checks that a window whose reference kernels ran twice
// as slow as nominal reports half its measured p50, and that a slice without
// a sample of some kernel falls back to the whole window's factor for it.
func TestHostCorrection(t *testing.T) {
	const per = 6
	w := newWindow(segmentCount*per, 0)
	for s := 0; s < segmentCount; s++ {
		for i := 0; i < per; i++ {
			w.lat = append(w.lat, 200e3)
			if s == 0 && i > 0 {
				continue // slice 0 sees kernel 0 only
			}
			k := i % refKernels
			w.ref = append(w.ref, refSample{op: int32(len(w.lat) - 1), kind: uint8(k), ns: int64(2 * refNominalNs[k])})
		}
	}
	got := w.timing(false)
	if math.Abs(got.P50us-100) > 1e-6 || got.P50iqr > 1e-9 {
		t.Errorf("corrected p50 = %v us (IQR %v), want 100 in every slice", got.P50us, got.P50iqr)
	}
	if math.Abs(got.RawP50us-200) > 1e-6 || math.Abs(got.Host-2) > 1e-6 {
		t.Errorf("raw p50 = %v us, host %v; want 200 and 2", got.RawP50us, got.Host)
	}
	empty := newWindow(segmentCount, 0)
	for i := 0; i < segmentCount; i++ {
		empty.lat = append(empty.lat, 100e3)
	}
	if got := empty.timing(false); got.P50us != 100 || got.Host != 1 {
		t.Errorf("no reference samples: p50 %v, host %v; want the measured 100 and 1", got.P50us, got.Host)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4),
// which is what the driver judges spreads with.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{4, 8})
	if q1 != 3 || q3 != 9 {
		t.Errorf("quartiles(4, 8) = %v, %v; Python gives 3, 9", q1, q3)
	}
}

// TestCompareSets checks the three verdicts.
func TestCompareSets(t *testing.T) {
	of := func(name string, vs ...float64) *resultFile {
		f := &resultFile{Workloads: map[string][]*runResult{}}
		for _, v := range vs {
			f.Workloads["hit_exec"] = append(f.Workloads["hit_exec"], &runResult{Metrics: map[string]metric{name: {Value: v}}})
		}
		return f
	}
	set := func(p50 ...float64) *resultFile { return of("op_p50_us", p50...) }
	if code := compareSets(io.Discard, set(100, 101, 102), set(101, 102, 103)); code != 0 {
		t.Errorf("1%% worse within a 25%% bound: code %d, want 0", code)
	}
	if code := compareSets(io.Discard, set(100, 101, 102), set(140, 141, 142)); code != 1 {
		t.Errorf("40%% worse: code %d, want 1 (regressed)", code)
	}
	if code := compareSets(io.Discard, set(100, 130, 160), set(160, 190, 220)); code != 0 {
		t.Errorf("spread wider than the bound must read unresolved, not regressed: code %d", code)
	}
	share := "optimizer_invocation_share"
	if code := compareSets(io.Discard, of(share, 0.025, 0.025, 0.025), of(share, 0.030, 0.030, 0.030)); code != 0 {
		t.Errorf("share 0.025 to 0.030 is within 0.01 absolute: code %d, want 0", code)
	}
	if code := compareSets(io.Discard, of(share, 0.93, 0.93, 0.93), of(share, 0.95, 0.95, 0.95)); code != 1 {
		t.Errorf("share 0.93 to 0.95 is 2%% relative but 0.02 absolute: code %d, want 1", code)
	}
}
