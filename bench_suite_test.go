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

	"repro/internal/benchsuite"
)

func BenchmarkPredictApproxLSHHist(b *testing.B)  { benchsuite.PredictApproxLSHHist(b) }
func BenchmarkPredictModelSnapshot(b *testing.B)  { benchsuite.PredictModelSnapshot(b) }
func BenchmarkPredictModelManyPlans(b *testing.B) { benchsuite.PredictModelManyPlans(b) }
func BenchmarkInsertApproxLSHHist(b *testing.B)   { benchsuite.InsertApproxLSHHist(b) }
func BenchmarkRebindRecost(b *testing.B)          { benchsuite.RebindRecost(b) }
func BenchmarkRunMixedSerial(b *testing.B)        { benchsuite.RunMixedSerial(b) }

// BenchmarkEndToEndRun is the hit_exec shape: Run alternating Q0 and Q1 on
// the benchmark's database along 100-point trajectory paths, each point run
// once, so that `make profile`'s run.cpu.pprof ranks what hit_exec times.
// TestRunPathAllocBudget holds it to its allocation budget.
func BenchmarkEndToEndRun(b *testing.B) { benchsuite.EndToEndRun(b) }

// BenchmarkRunParallel serves the mixed four-template workload from
// GOMAXPROCS goroutines, each pinned to one template. Against
// BenchmarkRunMixedSerial it measures the scaling the sharded per-template
// locks provide; on a single-CPU host the two coincide.
func BenchmarkRunParallel(b *testing.B) { benchsuite.RunParallel(b) }

// BenchmarkRunHotTemplateParallel serves ONE template from GOMAXPROCS
// goroutines — the contention pattern per-template sharding cannot help
// with. Its ns/op at -cpu 2 against -cpu 1 measures the scaling of the
// lock-free snapshot serving path introduced in PR 4.
func BenchmarkRunHotTemplateParallel(b *testing.B) { benchsuite.RunHotTemplateParallel(b) }

// BenchmarkReplicaPredict measures the follower's serving path: one
// prediction on a replica decoded from shipped state bytes, against the
// same trained Q1 synopsis the predictor microbenchmarks use. Part of the
// zero-allocation guard — replicas exist to absorb read load.
func BenchmarkReplicaPredict(b *testing.B) { benchsuite.ReplicaPredict(b) }

// BenchmarkMissPathRun is the miss_optimize shape: Run on the multi-join
// templates at fresh uniform plan-space points on the benchmark's database,
// where nearly every run pays NULL-predict, OptimizeMemo, intern/compile and
// feedback (invoked/op, about miss_optimize's 0.93). `make profile` profiles
// it beside BenchmarkEndToEndRun so a pass over the miss path starts from
// its own profile, not from the hit path's; TestMissPathAllocBudget holds it
// to its allocation budget.
func BenchmarkMissPathRun(b *testing.B) { benchsuite.MissPathRun(b) }

// BenchmarkOpen is the open path every process takes before it serves — a
// ppcserve, a restarted leader, each bench workload's set-up: Open on the
// benchmark's database plus RegisterStandard. `make profile` profiles it
// into open.cpu.pprof and open.mem.pprof.
func BenchmarkOpen(b *testing.B) { benchsuite.Open(b) }
