// Quickstart: open a PPC-enabled database, register a parameterized SQL
// template, and run instances through the parametric plan cache.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/tpch"
)

func main() {
	// Open the system: generates a TPC-H-style database (1/2000 of SF1
	// here, to keep the example fast), builds optimizer statistics, and
	// attaches the plan cache.
	sys, err := ppc.Open(ppc.Options{TPCH: tpch.Config{Scale: 2000, Seed: 42}})
	if err != nil {
		log.Fatal(err)
	}

	// Register a query template. The two `?` placeholders are the explicit
	// template parameters; their predicate selectivities span the
	// template's 2-D plan space.
	err = sys.Register("revenue", `
		SELECT COUNT(*), SUM(l_extendedprice)
		FROM lineitem
		WHERE l_shipdate <= ? AND l_partkey <= ?`)
	if err != nil {
		log.Fatal(err)
	}

	// Run instances. Early queries warm the learner (the optimizer runs
	// and its plan choices feed the plan-space histograms); once the
	// neighborhood is learned, optimization is bypassed.
	tmpl, _ := sys.Template("revenue")
	stats := sys.Catalog().MustColumn("lineitem", "l_shipdate")
	parts := sys.Catalog().MustColumn("lineitem", "l_partkey")
	for i := 0; i < 60; i++ {
		// Dates around the 30th percentile, part keys around the 50th.
		date := stats.Quantile(0.28 + float64(i%5)*0.01)
		part := parts.Quantile(0.48 + float64(i%4)*0.01)
		res, err := sys.Run("revenue", []float64{date, part})
		if err != nil {
			log.Fatal(err)
		}
		if i%15 == 0 {
			status := "optimized"
			if res.CacheHit {
				status = "cache hit"
			}
			fmt.Printf("query %2d [%s] point=(%.2f, %.2f) rows=%.0f revenue=%.0f\n",
				i, status, res.Point[0], res.Point[1],
				res.Result.Rows[0][0].Num, res.Result.Rows[0][1].Num)
		}
	}

	tm, _ := sys.TemplateMetrics("revenue")
	fmt.Printf("\ntemplate degree %d; learner absorbed %d optimizer-labeled points into a %d-byte synopsis\n",
		tm.Degree, tm.Learner.SamplesAbsorbed, tm.Learner.SynopsisBytes)
	fmt.Printf("estimated precision %.2f, recall %.2f; %d plan(s) cached\n",
		tm.Learner.Precision, tm.Learner.Recall, sys.CacheLen())
	_ = tmpl
}
