// Trajectory: the paper's online scenario. An application's workload
// drifts through the parameter space along random trajectories (Figure 7);
// the online learner tracks it, reusing plans inside learned regions and
// falling back to the optimizer at frontiers. Midway, the workload jumps
// to a completely different region — watch the hit rate dip and recover.
//
//	go run ./examples/trajectory
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/queries"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func main() {
	sys, err := ppc.Open(ppc.Options{TPCH: tpch.Config{Scale: 2000, Seed: 7}})
	if err != nil {
		log.Fatal(err)
	}
	const name = "Q5"
	if err := sys.Register(name, queries.Defs[5].SQL); err != nil {
		log.Fatal(err)
	}
	tmpl, _ := sys.Template(name)
	fmt.Printf("online learning on %s (parameter degree %d)\n%s\n\n", name, tmpl.Degree(), tmpl.Query)

	// Phase 1: a tight trajectory in one corner of the plan space.
	// Phase 2: an unrelated trajectory elsewhere (workload shift).
	phase1 := workload.MustTrajectories(workload.TrajectoryConfig{
		Dims: tmpl.Degree(), NumPoints: 300, Sigma: 0.015, Seed: 11,
	})
	phase2 := workload.MustTrajectories(workload.TrajectoryConfig{
		Dims: tmpl.Degree(), NumPoints: 300, Sigma: 0.015, Seed: 99,
	})
	points := append(phase1, phase2...)

	window := 50
	hits, invocations := 0, 0
	for i, p := range points {
		inst, err := sys.Optimizer().InstanceAt(tmpl, p)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Run(name, inst.Values)
		if err != nil {
			log.Fatal(err)
		}
		if res.CacheHit {
			hits++
		}
		if res.Invoked {
			invocations++
		}
		if (i+1)%window == 0 {
			marker := ""
			if i+1 == len(phase1) {
				marker = "   <-- workload shifts to a new region"
			}
			fmt.Printf("queries %3d-%3d: %2d/%d cache hits, %2d optimizer calls%s\n",
				i+2-window, i+1, hits, window, invocations, marker)
			hits, invocations = 0, 0
		}
	}

	tm, _ := sys.TemplateMetrics(name)
	l := tm.Learner
	fmt.Printf("\nfinal learner state: %d samples, synopsis %d bytes, est. precision %.2f, est. recall %.2f\n",
		l.SamplesAbsorbed, l.SynopsisBytes, l.Precision, l.Recall)
}
