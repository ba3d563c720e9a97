// Command ppcreplica runs a predict-only follower: it connects to a
// ppcserve leader's ship port (-ship-addr there), installs a full state
// snapshot, tails the leader's WAL live, and serves predictions from the
// replicated state — no optimizer, executor or learner of its own. The
// replica keeps serving (stale-but-consistent) state while the leader is
// down and converges again on reconnect; a leader from a different lineage
// (fresh durability directory) fences out everything it holds.
//
// Usage:
//
//	ppcreplica -leader HOST:PORT [-addr :8081] [-serve :7072] [-backoff 50ms]
//
// The session's clock is the leader's heartbeat: the replica acks its
// applied sequence in reply to each one, and reconnects after ten
// heartbeats' silence (5s).
//
// Endpoints:
//
//	GET /metrics   replication gauges as indented JSON (lag, applied seq, ...)
//	GET /health    200 once a snapshot is installed, 503 before; ready/epoch/lag
//	GET /predict?template=Q1&values=0.3,0.4   predict from replicated state
//
// /predict is read-only (it never feeds the learner), so unlike the
// leader's /run it stays a GET. With -serve set the replica also answers
// pkg/client predict RPCs over the binary protocol on that address.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/netproto"
	"repro/internal/replica"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ppcreplica:", err)
		os.Exit(1)
	}
}

func run() error {
	leader := flag.String("leader", "", "leader ship address (required)")
	addr := flag.String("addr", ":8081", "HTTP listen address")
	serveAddr := flag.String("serve", "", "binary-protocol listen address for predict clients (empty disables)")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "reconnect backoff: an unanswered dial retries after it; after a failed session it doubles, up to 3s")
	flag.Parse()
	if *leader == "" {
		return errors.New("-leader is required")
	}

	state := replica.NewState(nil)
	rep, err := replica.Start(replica.Options{
		LeaderAddr: *leader,
		State:      state,
		BackoffMin: *backoff,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ppcreplica: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer rep.Close() //nolint:errcheck

	if *serveAddr != "" {
		srv, err := replica.Serve(replica.Config{Addr: *serveAddr, Predictor: state})
		if err != nil {
			return err
		}
		defer srv.Close() //nolint:errcheck
		fmt.Fprintf(os.Stderr, "ppcreplica: predict RPCs on %s\n", srv.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := &http.Server{Addr: *addr, Handler: newMux(state)}
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "ppcreplica: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx) //nolint:errcheck
	}()
	fmt.Fprintf(os.Stderr, "ppcreplica: following %s, HTTP on %s\n", *leader, *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// newMux builds the replica's HTTP surface on a dedicated ServeMux.
func newMux(state *replica.State) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, state.Obs().Snapshot())
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		snap := state.Obs().Snapshot()
		body := map[string]any{
			"ready":       state.Ready(),
			"connected":   snap.Connected,
			"epoch":       fmt.Sprintf("%x", snap.Epoch),
			"lag_records": snap.LagRecords,
			"applied_seq": snap.AppliedSeq,
			"leader_seq":  snap.LeaderSeq,
			"templates":   state.Templates(),
		}
		w.Header().Set("Content-Type", "application/json")
		if !state.Ready() {
			// 503 until the first snapshot installs so load balancers keep
			// the replica out of rotation while it cannot answer anything.
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body) //nolint:errcheck
	})
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("template")
		point, err := parsePoint(r.URL.Query().Get("values"))
		if name == "" || err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("need ?template=NAME&values=v1,v2,...: %v", err))
			return
		}
		res := state.PredictRPC(netproto.PredictRequest{Template: name, Point: point})
		switch res.Status {
		case netproto.StatusNotReady:
			httpError(w, http.StatusServiceUnavailable, errors.New("no snapshot installed yet"))
			return
		case netproto.StatusUnknownTemplate:
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown template %q", name))
			return
		case netproto.StatusBadRequest:
			httpError(w, http.StatusBadRequest, errors.New(res.ErrMsg))
			return
		}
		writeJSON(w, map[string]any{
			"template":      name,
			"predicted":     res.Status == netproto.StatusOK,
			"plan_id":       res.Plan,
			"confidence":    res.Confidence,
			"cost":          res.Cost,
			"cost_known":    res.CostKnown,
			"fingerprint":   res.Fingerprint,
			"model_epoch":   res.Epoch,
			"model_version": res.ModelVersion,
		})
	})
	return mux
}

// parsePoint parses "0.3,0.4" into a plan-space point.
func parsePoint(s string) ([]float64, error) {
	if s == "" {
		return nil, errors.New("empty values")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //nolint:errcheck
}
