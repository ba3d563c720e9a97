package ppc_test

import (
	"bytes"
	"fmt"
	"log"

	"repro"
	"repro/internal/tpch"
)

// Open a PPC-enabled database, register a parameterized template, and run
// an instance through the cache.
func ExampleSystem_Run() {
	sys, err := ppc.Open(ppc.Options{TPCH: tpch.Config{Scale: 2000, Seed: 42}})
	if err != nil {
		log.Fatal(err)
	}
	err = sys.Register("orders-before", `
		SELECT COUNT(*) FROM orders WHERE o_orderdate <= ?`)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Run("orders-before", []float64{1200})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan space point has %d dimension(s); got %d result row(s)\n",
		len(res.Point), len(res.Result.Rows))
	// Output:
	// plan space point has 1 dimension(s); got 1 result row(s)
}

// The learner's state can be saved and restored across restarts, so the
// cache resumes warm.
func ExampleSystem_SaveState() {
	opts := ppc.Options{TPCH: tpch.Config{Scale: 2000, Seed: 42}}
	warm, err := ppc.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := warm.Register("q", `SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= ?`); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := warm.Run("q", []float64{1000 + float64(i)}); err != nil {
			log.Fatal(err)
		}
	}
	var state bytes.Buffer
	if err := warm.SaveState(&state); err != nil {
		log.Fatal(err)
	}

	restarted, err := ppc.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	if err := restarted.LoadState(&state); err != nil {
		log.Fatal(err)
	}
	tm, err := restarted.TemplateMetrics("q")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored a learner with absorbed samples: %v\n", tm.Learner.SamplesAbsorbed > 0)
	// Output:
	// restored a learner with absorbed samples: true
}
