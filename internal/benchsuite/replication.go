package benchsuite

// The replica's predict path in isolation: it must stay allocation-free,
// like the leader's. Catch-up time and record lag of a real leader/replica
// pair are bench/'s replica.catchup_ms and replica.lag_records_max.

import (
	"sync"
	"testing"

	"repro/internal/core"
)

var (
	replicaOnce sync.Once
	replicaErr  error
	replicaOn   *core.Online
)

// replicaPredictEnv ships the predictor-microbenchmark state through the
// replication encoding: the trained Q1 learner whose synopsis
// PredictApproxLSHHist measures, encoded by EncodeState (synopsis and
// counter trailer) and decoded into a predict-only replica driver. Using
// identical state keeps the three predict benchmarks — raw predictor,
// leader model snapshot, replica — directly comparable.
func replicaPredictEnv(b *testing.B) (*core.Online, [][]float64) {
	b.Helper()
	_, tests := predictorEnv(b)
	replicaOnce.Do(func() {
		replicaOn, replicaErr = core.NewReplicaOnline(predOn.EncodeState(nil))
	})
	if replicaErr != nil {
		b.Fatal(replicaErr)
	}
	return replicaOn, tests
}

// ReplicaPredict measures one prediction on a replica built from shipped
// state bytes: PredictModel against the published snapshot, exactly what a
// follower serves between WAL records. It shares the zero-allocation
// contract with the leader's serving path — a replica exists to absorb
// read load, so an allocation here is as much a regression as one in
// PredictModelSnapshot.
func ReplicaPredict(b *testing.B) {
	on, tests := replicaPredictEnv(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on.PredictModel(tests[i%len(tests)])
	}
}
