package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// repeatSuite runs every workload's untraced pass 2n times, alternating the
// runs between set A and set B, writes both sets, and compares them: two
// sets of runs of one program must agree within the benchmark's own bounds,
// or the bounds (or the benchmark) are wrong.
func repeatSuite(cfg runConfig, n int) (int, error) {
	sets := [2]*resultFile{}
	for s := range sets {
		sets[s] = &resultFile{Schema: "ppc-bench/v3", Seed: cfg.seed, Seconds: cfg.seconds, Workloads: map[string][]*runResult{}}
	}
	for r := 0; r < n; r++ {
		for _, sp := range specs {
			for s := range sets {
				fmt.Fprintf(os.Stderr, "run %d/%d set %c\n", r+1, n, 'A'+s)
				res, err := isolated(sp, cfg, false, os.Stderr)
				if err != nil {
					return 1, err
				}
				sets[s].Workloads[sp.name] = append(sets[s].Workloads[sp.name], res)
			}
		}
	}
	for s, name := range []string{"repeat-a.json", "repeat-b.json"} {
		if err := sets[s].write(filepath.Join(cfg.outDir, name)); err != nil {
			return 1, err
		}
	}
	return compareSets(os.Stdout, sets[0], sets[1]), nil
}

func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	var sets [2]resultFile
	for i, p := range []string{pathA, pathB} {
		b, err := os.ReadFile(p)
		if err != nil {
			return 1, err
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			return 1, fmt.Errorf("%s: %w", p, err)
		}
	}
	return compareSets(w, &sets[0], &sets[1]), nil
}

// compareSets prints, per end-to-end metric and workload, both medians, the
// wider of the two sets' inter-quartile spreads, the bound, and a verdict:
// unresolved when the spread is wider than the bound, so that the comparison
// cannot tell (setup_s excepted, as by the driver); regressed when B's median
// is worse than A's by more than the bound; ok otherwise. A metric with an
// absolute bound is held to both. It returns 1 if anything regressed.
func compareSets(w io.Writer, a, b *resultFile) int {
	code, unresolved := 0, 0
	fmt.Fprintf(w, "%-16s %-28s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "median A", "median B", "worse", "spread", "bound", "verdict")
	for _, sp := range specs {
		for _, d := range endToEnd {
			va, vb := values(a.Workloads[sp.name], d.Name), values(b.Workloads[sp.name], d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			wide := math.Max(setSpread(va), setSpread(vb))
			bound := d.Bound
			if d.Abs > 0 && d.Abs/ma < bound {
				bound = d.Abs / ma
			}
			verdict := "ok"
			switch {
			case wide > bound && d.Name != "setup_s":
				verdict = "unresolved"
				unresolved++
			case worse > bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-28s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				sp.name, d.Name, ma, mb, 100*worse, 100*wide, 100*bound, verdict)
		}
	}
	fmt.Fprintf(w, "%d unresolved (spread wider than the bound)\n", unresolved)
	return code
}

// setSpread is the inter-quartile spread of a set of runs, or, below four
// runs, where quartiles are an extrapolation, their whole range, each as a
// share of the median.
func setSpread(xs []float64) float64 {
	if len(xs) >= 4 {
		return spread(xs)
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if m := median(xs); m != 0 {
		return math.Abs((hi - lo) / m)
	}
	return 0
}

// values collects one metric over a set's untraced runs.
func values(runs []*runResult, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && !r.Traced {
			out = append(out, m.Value)
		}
	}
	return out
}
