// Command ppcdemo runs the full parametric plan cache end to end: it opens
// the PPC system over the generated TPC-H-style database, registers the
// standard templates, replays a trajectory workload through the cache, and
// reports per-template cache effectiveness and learner statistics.
//
// Usage:
//
//	ppcdemo [-scale N] [-seed S] [-n QUERIES] [-sigma S] [-templates Q1,Q5] [-metrics]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func main() {
	scale := flag.Int("scale", 1000, "TPC-H scale divisor")
	seed := flag.Int64("seed", 2012, "database generation seed")
	n := flag.Int("n", 300, "queries per template")
	sigma := flag.Float64("sigma", 0.02, "trajectory locality r_d")
	templates := flag.String("templates", "Q0,Q1,Q2,Q3", "comma-separated template names")
	withMetrics := flag.Bool("metrics", false, "print the serving-path metrics snapshot as JSON after the workload")
	flag.Parse()

	sys, err := ppc.Open(ppc.Options{TPCH: tpch.Config{Scale: *scale, Seed: *seed}})
	if err != nil {
		fatal(err)
	}
	if err := sys.RegisterStandard(); err != nil {
		fatal(err)
	}

	names := strings.Split(*templates, ",")
	for _, name := range names {
		name = strings.TrimSpace(name)
		tmpl, err := sys.Template(name)
		if err != nil {
			fatal(err)
		}
		points := workload.MustTrajectories(workload.TrajectoryConfig{
			Dims: tmpl.Degree(), NumPoints: *n, Sigma: *sigma, Seed: *seed,
		})
		var hits, invocations, rows int
		var optTime, predTime, execTime time.Duration
		for _, p := range points {
			inst, err := sys.Optimizer().InstanceAt(tmpl, p)
			if err != nil {
				fatal(err)
			}
			res, err := sys.Run(name, inst.Values)
			if err != nil {
				fatal(err)
			}
			if res.CacheHit {
				hits++
			}
			if res.Invoked {
				invocations++
			}
			if res.Result != nil {
				rows += len(res.Result.Rows)
			}
			optTime += res.OptimizeTime
			predTime += res.PredictTime
			execTime += res.ExecuteTime
		}
		tm, err := sys.TemplateMetrics(name)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s (degree %d): %d queries, %d cache hits (%.0f%%), %d optimizer calls\n",
			name, tm.Degree, *n, hits, 100*float64(hits)/float64(*n), invocations)
		fmt.Printf("   time: optimize %v, predict %v, execute %v; result rows %d\n",
			optTime.Round(time.Microsecond), predTime.Round(time.Microsecond),
			execTime.Round(time.Microsecond), rows)
		if l := tm.Learner; l.PrecisionKnown {
			fmt.Printf("   learner: %d samples in %d B synopsis, est. precision %.2f, est. recall %.2f\n",
				l.SamplesAbsorbed, l.SynopsisBytes, l.Precision, l.Recall)
		} else {
			fmt.Printf("   learner: %d samples in %d B synopsis (no predictions yet)\n",
				l.SamplesAbsorbed, l.SynopsisBytes)
		}
	}
	fmt.Printf("\nplan cache: %d plans cached, %d evictions\n", sys.CacheLen(), sys.CacheEvictions())

	if *withMetrics {
		snap, err := sys.MetricsSnapshot()
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppcdemo:", err)
	os.Exit(1)
}
