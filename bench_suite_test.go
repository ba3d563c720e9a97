package ppc_test

// go-test entry points for the serving-path benchmark bodies. The bodies
// live in internal/benchsuite so the allocation guards (allocguard_test.go)
// measure exactly the same code via testing.Benchmark; this file is in the
// external test package because benchsuite imports repro.
//
//	go test -bench='Run|ApproxLSHHist' -benchmem
//	go test -bench=BenchmarkRunParallel -cpu 4

import (
	"testing"

	ppc "repro"
	"repro/internal/benchsuite"
	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/tpch"
	"repro/internal/workload"
)

func BenchmarkPredictApproxLSHHist(b *testing.B)  { benchsuite.PredictApproxLSHHist(b) }
func BenchmarkPredictModelSnapshot(b *testing.B)  { benchsuite.PredictModelSnapshot(b) }
func BenchmarkPredictModelManyPlans(b *testing.B) { benchsuite.PredictModelManyPlans(b) }
func BenchmarkInsertApproxLSHHist(b *testing.B)   { benchsuite.InsertApproxLSHHist(b) }
func BenchmarkEndToEndRun(b *testing.B)           { benchsuite.EndToEndRun(b) }
func BenchmarkRebindRecost(b *testing.B)          { benchsuite.RebindRecost(b) }
func BenchmarkRunMixedSerial(b *testing.B)        { benchsuite.RunMixedSerial(b) }

// BenchmarkRunParallel serves the mixed four-template workload from
// GOMAXPROCS goroutines, each pinned to one template. Against
// BenchmarkRunMixedSerial it measures the scaling the sharded per-template
// locks provide; on a single-CPU host the two coincide.
func BenchmarkRunParallel(b *testing.B) { benchsuite.RunParallel(b) }

// BenchmarkRunHotTemplateParallel serves ONE template from GOMAXPROCS
// goroutines — the contention pattern per-template sharding cannot help
// with. Against BenchmarkEndToEndRun it measures the scaling of the
// lock-free snapshot serving path introduced in PR 4.
func BenchmarkRunHotTemplateParallel(b *testing.B) { benchsuite.RunHotTemplateParallel(b) }

// BenchmarkReplicaPredict measures the follower's serving path: one
// prediction on a replica decoded from shipped state bytes, against the
// same trained Q1 synopsis the predictor microbenchmarks use. Part of the
// zero-allocation guard — replicas exist to absorb read load.
func BenchmarkReplicaPredict(b *testing.B) { benchsuite.ReplicaPredict(b) }

// BenchmarkMissPathRun is the miss_optimize shape: Run on the multi-join
// templates at uniform plan-space points on the benchmark's database (scale
// 1000, seed 2012), where the learner rarely has a confident answer and
// nearly every run pays NULL-predict, OptimizeMemo, intern/compile and
// feedback. Every run gets a fresh point, drawn 512 per template at a time
// with the timer stopped: a pool cycled again is learned, and the share of
// runs that invoke the optimizer (reported as invoked/op, about
// miss_optimize's 0.93) would fall as -benchtime grows. `make profile`
// profiles it beside BenchmarkEndToEndRun so a pass over the miss path
// starts from its own profile, not from the hit path's.
func BenchmarkMissPathRun(b *testing.B) {
	sys, err := ppc.Open(ppc.Options{TPCH: tpch.Config{Scale: 1000, Seed: 2012}})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	names := []string{"Q3", "Q4", "Q8"}
	tmpls := make([]*optimizer.Template, len(names))
	for k, name := range names {
		tm, err := queries.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Register(name, tm.SQL); err != nil {
			b.Fatal(err)
		}
		if tmpls[k], err = sys.Template(name); err != nil {
			b.Fatal(err)
		}
	}
	const chunk = 512
	values := make([][][]float64, len(names))
	draw := func(round int) {
		for k, tm := range tmpls {
			values[k] = values[k][:0]
			for _, point := range workload.Uniform(tm.Degree(), chunk, int64(round*len(names)+k)) {
				inst, err := sys.Optimizer().InstanceAt(tm, point)
				if err != nil {
					b.Fatal(err)
				}
				values[k] = append(values[k], inst.Values)
			}
		}
	}
	invoked := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, j := i%len(names), i/len(names)
		if k == 0 && j%chunk == 0 {
			b.StopTimer()
			draw(j / chunk)
			b.StartTimer()
		}
		res, err := sys.Run(names[k], values[k][j%chunk])
		if err != nil {
			b.Fatal(err)
		}
		if res.Invoked {
			invoked++
		}
	}
	b.ReportMetric(float64(invoked)/float64(b.N), "invoked/op")
}
