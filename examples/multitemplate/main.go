// Multitemplate: the whole Q0–Q8 workload through one shared plan cache
// with a deliberately tight capacity, demonstrating the precision-aware
// eviction policy: plans of templates whose predictions keep verifying
// survive; error-prone or stale plans are evicted first.
//
//	go run ./examples/multitemplate
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func main() {
	sys, err := ppc.Open(ppc.Options{
		TPCH:          tpch.Config{Scale: 2000, Seed: 3},
		CacheCapacity: 8, // tight: Q0–Q8 produce far more distinct plans
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.RegisterStandard(); err != nil {
		log.Fatal(err)
	}
	names := sys.TemplateNames()
	fmt.Printf("registered %d templates, cache capacity %d plans\n\n", len(names), 8)

	// Interleave locality-heavy workloads across all templates, the way a
	// mixed application would.
	perTemplate := 120
	streams := make(map[string][][]float64, len(names))
	for i, name := range names {
		tmpl, _ := sys.Template(name)
		streams[name] = workload.MustTrajectories(workload.TrajectoryConfig{
			Dims: tmpl.Degree(), NumPoints: perTemplate, Sigma: 0.02, Seed: int64(100 + i),
		})
	}
	rng := rand.New(rand.NewSource(5))
	hits := make(map[string]int, len(names))
	ran := make(map[string]int, len(names))
	cursor := make(map[string]int, len(names))
	for q := 0; q < perTemplate*len(names); q++ {
		name := names[rng.Intn(len(names))]
		if cursor[name] >= perTemplate {
			continue
		}
		tmpl, _ := sys.Template(name)
		inst, err := sys.Optimizer().InstanceAt(tmpl, streams[name][cursor[name]])
		if err != nil {
			log.Fatal(err)
		}
		cursor[name]++
		res, err := sys.Run(name, inst.Values)
		if err != nil {
			log.Fatal(err)
		}
		ran[name]++
		if res.CacheHit {
			hits[name]++
		}
	}

	fmt.Println("template  degree  queries  cache-hit%  est.precision  synopsis(B)")
	for _, name := range names {
		tm, err := sys.TemplateMetrics(name)
		if err != nil {
			log.Fatal(err)
		}
		prec := "   -"
		if tm.Learner.PrecisionKnown {
			prec = fmt.Sprintf("%.2f", tm.Learner.Precision)
		}
		rate := 0.0
		if ran[name] > 0 {
			rate = 100 * float64(hits[name]) / float64(ran[name])
		}
		fmt.Printf("%-9s %6d  %7d  %9.0f%%  %13s  %11d\n",
			name, tm.Degree, ran[name], rate, prec, tm.Learner.SynopsisBytes)
	}
	fmt.Printf("\ncache: %d/%d plans resident, %d evictions over the run\n",
		sys.CacheLen(), 8, sys.CacheEvictions())
}
