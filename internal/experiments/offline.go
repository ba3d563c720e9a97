package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/metrics"
)

// BaselineBytesPerSample is the paper's storage accounting for one raw
// sample point retained by BASELINE: r 32-bit coordinates, a 32-bit plan
// identifier and a 32-bit cost.
func BaselineBytesPerSample(r int) int { return 4*r + 8 }

// predictorKind names the algorithms compared in Section V-A.
type predictorKind int

const (
	kindBaseline predictorKind = iota
	kindNaive
	kindApproxLSH
	kindApproxLSHHist
)

func (k predictorKind) String() string {
	switch k {
	case kindBaseline:
		return "BASELINE"
	case kindNaive:
		return "NAIVE"
	case kindApproxLSH:
		return "APPROX-LSH"
	case kindApproxLSHHist:
		return "APPROX-LSH-HIST"
	}
	return "?"
}

// buildPredictor trains one predictor kind on the samples. Only NAÏVE and
// APPROXIMATE-LSH read cfg.GridBuckets.
func buildPredictor(kind predictorKind, cfg baselines.Config, samples []core.Sample) (baselines.Predictor, error) {
	switch kind {
	case kindBaseline:
		return baselines.NewDensity(samples, cfg.Radius, cfg.Gamma), nil
	case kindNaive:
		p, err := baselines.NewNaive(cfg)
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			p.Insert(s)
		}
		return p, nil
	case kindApproxLSH:
		p, err := baselines.NewApproxLSH(cfg)
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			p.Insert(s)
		}
		return p, nil
	case kindApproxLSHHist:
		p, err := core.NewApproxLSHHist(cfg.Config)
		if err != nil {
			return nil, err
		}
		for _, s := range samples {
			p.Insert(s)
		}
		return p, nil
	}
	return nil, fmt.Errorf("experiments: unknown predictor kind %d", kind)
}

// evalOffline measures Definition 4 precision and recall of a predictor
// over ground-truth-labeled test points.
func evalOffline(p baselines.Predictor, tests []core.Sample) metrics.Counter {
	var c metrics.Counter
	for _, tp := range tests {
		got := p.Predict(tp.Point)
		c.RecordTruth(got.OK, got.OK && got.Plan == tp.Plan)
	}
	return c
}

// distinctPlans counts distinct plan labels in a sample set.
func distinctPlans(samples []core.Sample) int {
	seen := make(map[int]bool)
	for _, s := range samples {
		seen[s.Plan] = true
	}
	if len(seen) == 0 {
		return 1
	}
	return len(seen)
}

// budgetBuckets computes a bucket budget from a byte budget, flooring at 8
// buckets so configurations stay valid at tiny budgets.
func budgetBuckets(budgetBytes, denomBytes int) int {
	b := budgetBytes / denomBytes
	if b < 8 {
		b = 8
	}
	return b
}
