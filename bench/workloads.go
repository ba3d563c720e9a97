package main

import (
	"fmt"

	ppc "repro"
	"repro/internal/optimizer"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// dbConfig is the database every workload runs on: the ppcserve default.
var dbConfig = tpch.Config{Scale: 1000, Seed: 2012}

// nineTemplates are the standard templates RegisterStandard installs.
var nineTemplates = []string{"Q0", "Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8"}

// spec is one named workload: which driver runs it, which inputs it gets,
// and how its deterministic op sequence is sized.
type spec struct {
	name, why string
	templates []string
	// gen makes n plan-space points of the given dimensionality.
	gen func(dims, n int, seed int64) [][]float64
	// wire workloads drive real ppcserve / ppcreplica processes.
	wire bool
	// predict marks the predict-only workload (client.Predict at a replica).
	predict bool
	// cacheCap is the plan cache capacity (0 = the default 64).
	cacheCap int
	// opsPerSec is the op rate at the seed commit on the 2-core host the
	// benchmark was sized on. A run measures opsPerSec x --seconds ops: a
	// fixed sequence, so that two commits are timed on the same ops from the
	// same learner state, which lasts about --seconds at that speed.
	opsPerSec int
	// refEvery is after how many measured ops a host-reference kernel runs
	// (hostref.go): chosen so that the kernels, some 22 us each, take 5-10% of
	// the measured time.
	refEvery int
	// trainPerSec x --seconds /run calls train the leader before a predict
	// workload starts. opsPerSec is 40 times it, which makes each of the 20
	// slices exactly one pass over the sequence (twice the trained points).
	trainPerSec int
}

// trajectories spreads the points over one cursor path per 100 points, so
// that a run averages over hundreds of regions of the plan space and two
// seeds give the same mix of easy and hard regions.
func trajectories(dims, n int, seed int64) [][]float64 { return paths(dims, n, 100, seed) }

// shortTrajectories uses paths of 10 points: whether the replica answers or
// says NULL is decided per region, and it takes two thousand regions to make
// that share the same on two seeds (spread 3.6% over 20 seeds; 14.7% with
// half as many regions).
func shortTrajectories(dims, n int, seed int64) [][]float64 { return paths(dims, n, 10, seed) }

func paths(dims, n, perPath int, seed int64) [][]float64 {
	count := n / perPath
	if count < 1 {
		count = 1
	}
	return workload.MustTrajectories(workload.TrajectoryConfig{Dims: dims, NumPoints: n, NumTrajectories: count, Sigma: 0.02, Seed: seed})
}

// drifting is one Gaussian cloud per template whose centre moves along the
// diagonal from 0.2 to 0.8 over the run. Sigma 0.08, not the generator's
// 0.05: a tight cloud leaves the learner on the edge between answering and
// NULL, where a few noise draws flip a template's whole run (invocation
// share 0.13 to 0.21 over 40 seeds, spread 14%); the wider one averages over
// more cells (0.22 to 0.33, spread 9%), evicts some 150 plans a run from the
// 16-plan cache instead of 25, and still keeps the served plans within 1-3%
// of the optimizer's. README.md has the other values tried.
func drifting(dims, n int, seed int64) [][]float64 {
	return workload.MustDrifting(workload.DriftConfig{Dims: dims, NumPoints: n, Sigma: 0.08, Seed: seed})
}

var specs = []*spec{
	{
		name:      "hit_exec",
		why:       "in-process Run on Q0,Q1 along tight trajectories: ~97% cache hits, executor ~90% of wall, optimizer ~1%; executor, rebind and facade work shows here, optimizer and WAL work must not",
		templates: []string{"Q0", "Q1"},
		gen:       trajectories,
		opsPerSec: 9000, refEvery: 2,
	},
	{
		name:      "miss_optimize",
		why:       "in-process Run on multi-join Q3,Q4,Q8 at uniform points: the learner rarely helps, so each run pays NULL-predict, OptimizeMemo, intern/compile and feedback; optimizer work shows here",
		templates: []string{"Q3", "Q4", "Q8"},
		gen:       workload.Uniform,
		opsPerSec: 2300, refEvery: 1,
	},
	{
		name:      "serve_durable",
		why:       "HTTP POST /run to a real ppcserve (-cache 16, WAL, ship port) with one ppcreplica attached, nine templates under drift: evictions, WAL appends and shipping beside reads; HTTP/JSON dominates",
		templates: nineTemplates,
		gen:       drifting,
		wire:      true,
		cacheCap:  16,
		opsPerSec: 1800, refEvery: 1,
	},
	{
		name:      "replica_predict",
		why:       "pkg/client.Predict on one connection to a ppcreplica holding state shipped from a trained leader: netproto and core.Model predict only; optimizer, executor and WAL do nothing",
		templates: nineTemplates,
		gen:       shortTrajectories,
		wire:      true,
		predict:   true,
		opsPerSec: 43200, trainPerSec: 1080, refEvery: 16,
	},
}

// bit is the workload's member of a workloadSet.
func (sp *spec) bit() workloadSet {
	for i, s := range specs {
		if s == sp {
			return 1 << i
		}
	}
	return 0
}

func specByName(name string) (*spec, error) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs is a workload's deterministic op sequence: op i runs template
// i mod T at that template's (i div T)-th point. A run consumes each point of
// a learning workload once; only the predict workload, which reads a frozen
// model, goes round its sequence again.
type inputs struct {
	names  []string
	tmpls  []*optimizer.Template
	points [][][]float64 // [template][j] plan-space point
	values [][][]float64 // [template][j] parameter values (InstanceAt of the point)
	per    int
}

func (in *inputs) op(i int) (k, j int) {
	k = i % len(in.names)
	return k, (i / len(in.names)) % in.per
}

// trainOp is the i-th training op: the even-indexed points of every
// template's sequence, so that the odd-indexed points a predict workload
// also asks about are fresh neighbours of trained ones.
func (in *inputs) trainOp(i int) (k, j int) {
	return i % len(in.names), 2 * (i / len(in.names)) % in.per
}

// len is the number of distinct ops of the sequence.
func (in *inputs) len() int { return in.per * len(in.names) }

// ops is the number of measured ops of a run: what the seed commit does in
// --seconds on the host the benchmark was sized on, in whole slices.
func (sp *spec) ops(cfg runConfig) int {
	n := int(float64(sp.opsPerSec) * cfg.seconds)
	if n < segmentCount {
		return segmentCount
	}
	return n - n%segmentCount
}

// warm is the warm-up, executed and checked but not timed: the first tenth
// of the sequence.
func (sp *spec) warm(cfg runConfig) int { return sp.ops(cfg) / 9 }

// det is the length of the deterministic pass (FeedbackQueue -1) that yields
// plan_cost_ratio.
func (sp *spec) det(cfg runConfig) int { return sp.ops(cfg) / 5 }

// train is the number of /run calls that train a predict workload's leader.
func (sp *spec) train(cfg runConfig) int { return int(float64(sp.trainPerSec) * cfg.seconds) }

// sequenceOps is how many distinct ops a run needs.
func (sp *spec) sequenceOps(cfg runConfig) int {
	if sp.predict {
		// The trained points interleaved with as many untrained neighbours.
		return 2 * sp.train(cfg)
	}
	return sp.warm(cfg) + sp.ops(cfg)
}

// makeInputs generates the sequence from the seed alone. sys supplies the
// templates and the quantile inversion; the program under test only ever
// sees the generated points or values.
func makeInputs(sp *spec, sys *ppc.System, cfg runConfig) (*inputs, error) {
	total := sp.sequenceOps(cfg)
	in := &inputs{names: sp.templates}
	in.per = (total + len(sp.templates) - 1) / len(sp.templates)
	for k, name := range sp.templates {
		tmpl, err := sys.Template(name)
		if err != nil {
			return nil, err
		}
		pts := sp.gen(tmpl.Degree(), in.per, cfg.seed*1000+int64(k))
		vals := make([][]float64, len(pts))
		for j, p := range pts {
			inst, err := sys.Optimizer().InstanceAt(tmpl, p)
			if err != nil {
				return nil, fmt.Errorf("%s point %d: %w", name, j, err)
			}
			vals[j] = inst.Values
		}
		in.tmpls = append(in.tmpls, tmpl)
		in.points = append(in.points, pts)
		in.values = append(in.values, vals)
	}
	return in, nil
}

// openSystem opens an in-process System the way ppcserve does (same
// database, same defaults). det applies feedback inline, which makes a pass
// over a fixed sequence exactly repeatable.
func openSystem(sp *spec, det bool) (*ppc.System, error) {
	opts := ppc.Options{TPCH: dbConfig, CacheCapacity: sp.cacheCap}
	if det {
		opts.FeedbackQueue = -1
	}
	sys, err := ppc.Open(opts)
	if err != nil {
		return nil, err
	}
	if err := sys.RegisterStandard(); err != nil {
		sys.Close() //nolint:errcheck
		return nil, err
	}
	return sys, nil
}
