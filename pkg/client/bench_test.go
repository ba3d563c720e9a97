package client

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/netproto"
	"repro/internal/replica"
)

// The loopback floor of the predict RPC: BenchmarkClientPing is one framed
// round trip of an empty message to an in-process replica server on
// 127.0.0.1 over a pooled connection — the wire and nothing else — and
// BenchmarkClientPredict the same round trip carrying a predict request
// answered from a trained learner. Run together, the difference is what the
// predict adds to the floor on this host:
//
//	go test -run '^$' -bench 'BenchmarkClient' -benchmem ./pkg/client

// learnerPredictor answers predict RPCs from a learner through the body the
// leader's and the replicas' PredictRPC share.
type learnerPredictor struct{ o *core.Online }

func (p learnerPredictor) PredictRPC(req netproto.PredictRequest) netproto.PredictResult {
	return p.o.AnswerPredict(req, func(int) string { return "" })
}

// benchClient serves p on loopback and dials a client to it.
func benchClient(b *testing.B, p replica.Predictor) *Client {
	b.Helper()
	srv, err := replica.Serve(replica.Config{Addr: "127.0.0.1:0", Predictor: p})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() }) //nolint:errcheck
	cl, err := Dial(Options{Addr: srv.Addr(), PoolSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() }) //nolint:errcheck
	return cl
}

func BenchmarkClientPing(b *testing.B) {
	cl := benchClient(b, learnerPredictor{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Ping(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientPredict predicts at uniform points of a two-parameter
// template whose learner holds 3,200 optimizer-labelled points over four
// plan regions, and reports the share of NULL answers as null/op.
func BenchmarkClientPredict(b *testing.B) {
	o, err := core.NewOnline(core.OnlineConfig{
		Core: core.Config{Dims: 2, Radius: 0.05, Gamma: 0.7, Seed: 5},
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		plan := int(2*x[0]) + 2*int(2*x[1])
		if err := o.LearnValidated(x, plan, 10+100*x[0]); err != nil {
			b.Fatal(err)
		}
	}
	points := make([][]float64, 512)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64()}
	}
	cl := benchClient(b, learnerPredictor{o})
	nulls := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cl.Predict("Q1", points[i%len(points)])
		if err != nil {
			b.Fatal(err)
		}
		if res.Status == netproto.StatusNoPrediction {
			nulls++
		}
	}
	b.ReportMetric(float64(nulls)/float64(b.N), "null/op")
}
