// Command ppcbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ppcbench [-scale N] [-seed S] [-frac F] [-csv DIR] [-list] [experiment ...]
//
// With no experiment arguments it runs the full suite in paper order. Each
// experiment prints an aligned table with the same rows/series the paper
// reports, plus a note stating the qualitative shape to compare against.
//
//	ppcbench -list            # show available experiment ids
//	ppcbench fig3 tab2        # run two experiments at full size
//	ppcbench -frac 0.1 fig8   # quick pass at 10% workload sizes
//
// Serving-path performance is not measured here: bench/ is the benchmark
// (`go run -C bench .`, `make ab BASE=<ref> W=<workload>`).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
)

func main() {
	scale := flag.Int("scale", 400, "TPC-H scale divisor for the generated database (SF1/scale)")
	seed := flag.Int64("seed", 2012, "database generation seed")
	frac := flag.Float64("frac", 1.0, "workload size fraction (0 < frac <= 1)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csvDir := flag.String("csv", "", "also write each table as <dir>/<id>.csv")
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry {
			fmt.Printf("  %-8s %s\n", r.ID, r.Description)
		}
		return
	}

	fmt.Fprintf(os.Stderr, "generating database (TPC-H SF1/%d, seed %d) and statistics...\n", *scale, *seed)
	t0 := time.Now()
	env, err := experiments.NewEnv(*scale, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "substrate ready in %v\n\n", time.Since(t0).Round(time.Millisecond))

	ids := flag.Args()
	if len(ids) == 0 {
		for _, r := range experiments.Registry {
			ids = append(ids, r.ID)
		}
	}
	for _, id := range ids {
		runner, err := experiments.Find(id)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		table, err := runner.Run(env, *frac)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		table.Fprint(os.Stdout)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, id, table); err != nil {
				fatal(err)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// writeCSV writes one experiment table to dir/id.csv.
func writeCSV(dir, id string, table *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return table.WriteCSV(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppcbench:", err)
	os.Exit(1)
}
