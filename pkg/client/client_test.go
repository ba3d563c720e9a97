package client

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netproto"
	"repro/internal/replica"
)

// echoPredictor answers every request with a fixed plan, counts calls and
// keeps the most calls it has seen in flight at once.
type echoPredictor struct {
	calls    atomic.Int64
	inFlight atomic.Int64
	peak     atomic.Int64
	delay    time.Duration
}

func (p *echoPredictor) PredictRPC(req netproto.PredictRequest) netproto.PredictResult {
	p.calls.Add(1)
	n := p.inFlight.Add(1)
	defer p.inFlight.Add(-1)
	for old := p.peak.Load(); n > old && !p.peak.CompareAndSwap(old, n); old = p.peak.Load() {
	}
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	if req.Template == "missing" {
		return netproto.PredictResult{ID: req.ID, Status: netproto.StatusUnknownTemplate, ErrMsg: req.Template}
	}
	if req.Template == "null" {
		return netproto.PredictResult{ID: req.ID, Status: netproto.StatusNoPrediction}
	}
	return netproto.PredictResult{
		ID: req.ID, Status: netproto.StatusOK, Plan: 7, Confidence: 0.9,
		Cost: 42, CostKnown: true, Fingerprint: "plan-7",
	}
}

func newServer(t *testing.T, p replica.Predictor) *replica.Server {
	t.Helper()
	srv, err := replica.Serve(replica.Config{Addr: "127.0.0.1:0", Predictor: p})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return srv
}

func TestPredictRoundTrip(t *testing.T) {
	pred := &echoPredictor{}
	srv := newServer(t, pred)
	cl, err := Dial(Options{Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	res, err := cl.Predict("Q1", []float64{0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netproto.StatusOK || res.Plan != 7 || res.Fingerprint != "plan-7" {
		t.Fatalf("result %+v", res)
	}

	// NULL is an answer, not an error.
	res, err = cl.Predict("null", []float64{0.25})
	if err != nil || res.Status != netproto.StatusNoPrediction {
		t.Fatalf("null predict: %+v, %v", res, err)
	}

	// An unknown template is a typed failure — surfaced, not retried.
	before := pred.calls.Load()
	if _, err := cl.Predict("missing", []float64{0.25}); err == nil {
		t.Fatal("unknown template accepted")
	}
	if pred.calls.Load() != before+1 {
		t.Errorf("typed rejection retried: %d extra calls", pred.calls.Load()-before-1)
	}
}

// TestDialFailsFastOnBadAddr: a refused port fails each attempt at once,
// so Dial gives up after the retries' 75ms of backoff.
func TestDialFailsFastOnBadAddr(t *testing.T) {
	if _, err := Dial(Options{Addr: "127.0.0.1:1"}); err == nil {
		t.Fatal("dial to a dead port succeeded")
	}
	if _, err := Dial(Options{}); err == nil {
		t.Fatal("empty address accepted")
	}
}

// TestRetryAfterConnectionLoss kills the pooled connection between calls;
// the retry layer must dial a fresh one transparently.
func TestRetryAfterConnectionLoss(t *testing.T) {
	pred := &echoPredictor{}
	srv := newServer(t, pred)
	cl, err := Dial(Options{Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	if _, err := cl.Predict("Q1", []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	// Poison the pooled connection from the client side.
	cl.mu.Lock()
	for _, conn := range cl.idle {
		conn.NetConn().Close() //nolint:errcheck
	}
	cl.mu.Unlock()

	if _, err := cl.Predict("Q1", []float64{0.5}); err != nil {
		t.Fatalf("predict after connection loss: %v", err)
	}
}

// TestVersionMismatchSurfaced: a server that rejects the client's protocol
// version must produce a typed, non-retried error at Dial.
func TestVersionMismatchSurfaced(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close() //nolint:errcheck
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer raw.Close() //nolint:errcheck
				c := netproto.NewConn(raw, nil)
				if mt, _, err := c.ReadMsg(); err != nil || mt != netproto.MsgHello {
					return
				}
				reject := netproto.ErrorMsg{Code: netproto.CodeVersionMismatch, Msg: "server speaks v0"}
				c.WriteMsg(netproto.MsgError, reject.Encode(nil)) //nolint:errcheck
				c.ReadMsg()                                       //nolint:errcheck // until the client hangs up
			}()
		}
	}()

	cl, err := Dial(Options{Addr: ln.Addr().String()})
	if err == nil {
		cl.Close() //nolint:errcheck
		t.Fatal("Dial accepted a server that rejects its version")
	}
	var em netproto.ErrorMsg
	if !errors.As(err, &em) || em.Code != netproto.CodeVersionMismatch {
		t.Fatalf("Dial error = %v, want a netproto.ErrorMsg with CodeVersionMismatch", err)
	}
	// A retry would dial again, and its rejection would precede Dial's
	// return, so the count is final here.
	if n := conns.Load(); n != 1 {
		t.Errorf("the server saw %d connections, want 1: a typed rejection was retried", n)
	}
}

// TestConcurrentCallsUnderInFlightCap: more calls than the in-flight cap
// run at once, and the server never sees more than the cap of them.
func TestConcurrentCallsUnderInFlightCap(t *testing.T) {
	pred := &echoPredictor{delay: 10 * time.Millisecond}
	srv := newServer(t, pred)
	cl, err := Dial(Options{Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck

	const calls = 3 * maxInFlight
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cl.Predict("Q1", []float64{0.5})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The cap is real backpressure, not a hint.
	if peak := pred.peak.Load(); peak > maxInFlight {
		t.Errorf("the server saw %d calls in flight at once; the cap is %d", peak, maxInFlight)
	}
}

// TestCallTimeout: a server slower than the call deadline fails every
// attempt, so a call waits out three 2s deadlines and the 75ms of backoff
// between them. The server's delay is strictly longer than the deadline:
// at exactly the deadline an answer could still win the race.
func TestCallTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out three 2s call deadlines")
	}
	pred := &echoPredictor{delay: callTimeout + 500*time.Millisecond}
	srv := newServer(t, pred)
	cl, err := Dial(Options{Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	start := time.Now()
	if _, err := cl.Predict("Q1", []float64{0.5}); err == nil {
		t.Fatal("slow server call did not time out")
	}
	elapsed := time.Since(start)
	if n := pred.calls.Load(); n != maxRetries+1 {
		t.Errorf("the server saw %d calls, want %d attempts", n, maxRetries+1)
	}
	if elapsed < 6*time.Second || elapsed > 8*time.Second {
		t.Errorf("timeout took %v, want 3 × 2s deadlines plus backoff, in [6s, 8s]", elapsed)
	}
}

func TestClosedClient(t *testing.T) {
	srv := newServer(t, &echoPredictor{})
	cl, err := Dial(Options{Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Predict("Q1", []float64{0.5}); !errors.Is(err, ErrClosed) {
		t.Fatalf("predict on closed client: %v, want ErrClosed", err)
	}
}

func TestPoolReuse(t *testing.T) {
	pred := &echoPredictor{}
	srv := newServer(t, pred)
	cl, err := Dial(Options{Addr: srv.Addr(), PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close() //nolint:errcheck
	for i := 0; i < 10; i++ {
		if _, err := cl.Predict("Q1", []float64{0.5}); err != nil {
			t.Fatal(err)
		}
	}
	cl.mu.Lock()
	idle := len(cl.idle)
	cl.mu.Unlock()
	if idle != 1 {
		t.Errorf("%d idle connections after sequential calls, want 1 (reused)", idle)
	}
}
