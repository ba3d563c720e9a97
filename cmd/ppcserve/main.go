// Command ppcserve exposes a running PPC system over HTTP: the serving-path
// metrics snapshot (whole, or one template's element of it), per-template
// decision traces, a liveness answer, and pprof. An optional built-in
// load generator keeps the serving path busy so the endpoints show a live
// system rather than a cold one.
//
// With -wal-dir set the system runs durably: validated feedback is logged
// to a write-ahead log before it is acknowledged, a background checkpointer
// compacts the log, and a restart with the same directory replays the tail
// so no acknowledged point is lost to a crash (see /recovery).
//
// With -ship-addr set (requires -wal-dir) the server additionally acts as a
// replication leader: predict-only replicas (cmd/ppcreplica) connect over
// the binary protocol, receive a full state snapshot, and then tail the WAL
// live; pkg/client connections are served predict RPCs on the same port.
// The ship session's timing is fixed: each stream carries a heartbeat every
// 500ms, which the replica answers with its applied-sequence ack, and a
// follower that cannot drain a write within 5s is disconnected.
//
// Usage:
//
//	ppcserve [-addr :8080] [-scale N] [-seed S] [-templates Q0,Q1,Q2,Q3]
//	         [-cache N] [-load WORKERS]
//	         [-wal-dir DIR] [-wal-sync always|interval]
//	         [-checkpoint-every 1m] [-ship-addr :7071] [-ship-max 8]
//
// Each template keeps its 64 most recent decision traces. The load
// generator's workers walk trajectories of locality r_d = 0.02, and
// -wal-sync=interval fsyncs the WAL at most every 100ms.
//
// Endpoints:
//
//	GET  /metrics                 MetricsSnapshot as indented JSON (ppc-metrics/v7)
//	GET  /metrics?template=Q1     that template's element of the snapshot, alone
//	GET  /trace?template=Q1       recent decision traces, oldest first
//	GET  /health                  liveness: 200 and the registered template names (never flushes)
//	POST /run?template=Q1&values=0.3,0.4   run one instance at a plan-space point (compact JSON reply)
//	GET  /recovery                LoadReport from startup recovery (404 when cold-started)
//	GET  /replication             leader-side replication gauges (404 without -wal-dir)
//	POST /checkpoint              force a checkpoint + WAL compaction now
//	GET  /debug/pprof/            pprof profiles
//
// /run and /checkpoint mutate state (they feed the learner and rewrite the
// checkpoint respectively) and therefore require POST; any other method gets
// 405 with an Allow header. /stats and /debug/vars are gone with
// ppc-metrics/v1: /metrics?template=NAME carries everything /stats did, and
// the expvar copy of the snapshot was /metrics under another path.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/replica"
	"repro/internal/tpch"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ppcserve:", err)
		os.Exit(1)
	}
}

// run holds the whole server lifecycle so that every exit path — flag
// errors, failed registration, listen failures, signals — flows through the
// single deferred Close, which flushes the feedback appliers and (when
// durability is on) syncs the WAL and takes a final checkpoint.
func run() (err error) {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	scale := flag.Int("scale", 1000, "TPC-H scale divisor")
	seed := flag.Int64("seed", 2012, "database generation seed")
	templates := flag.String("templates", "Q0,Q1,Q2,Q3", "comma-separated template names to serve")
	cacheCap := flag.Int("cache", 64, "plan cache capacity")
	load := flag.Int("load", 1, "background load-generator workers (0 disables)")
	walDir := flag.String("wal-dir", "", "durability directory (empty disables the WAL)")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always or interval")
	checkpointEvery := flag.Duration("checkpoint-every", time.Minute, "background checkpoint cadence (requires -wal-dir; 0 means 1m, negative disables the checkpointer)")
	shipAddr := flag.String("ship-addr", "", "binary-protocol listen address for replicas and clients (requires -wal-dir)")
	shipMax := flag.Int("ship-max", 8, "max concurrent replica ship streams (admission cap)")
	flag.Parse()

	if *shipAddr != "" && *walDir == "" {
		return errors.New("-ship-addr requires -wal-dir (replicas tail the WAL)")
	}

	var durability ppc.Durability
	if *walDir != "" {
		policy, err := wal.ParsePolicy(*walSync)
		if err != nil {
			return err
		}
		durability = ppc.Durability{
			Dir:                *walDir,
			Sync:               policy,
			CheckpointInterval: *checkpointEvery,
		}
	}

	fmt.Fprintf(os.Stderr, "ppcserve: generating database (SF1/%d, seed %d)...\n", *scale, *seed)
	sys, err := ppc.Open(ppc.Options{
		TPCH:          tpch.Config{Scale: *scale, Seed: *seed},
		CacheCapacity: *cacheCap,
		Durability:    durability,
	})
	if err != nil {
		return err
	}
	// Close stops the appliers (every acknowledged point reaches the
	// synopsis) and flushes durability; its error is the process's exit
	// status unless an earlier failure already claimed it.
	defer func() {
		if cerr := sys.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if err := sys.RegisterStandard(); err != nil {
		return err
	}
	names := splitNames(*templates)
	for _, name := range names {
		if _, err := sys.Template(name); err != nil {
			return err
		}
	}
	if rep := sys.LoadStateReport(); rep != nil && rep.WALEnabled {
		fmt.Fprintf(os.Stderr, "ppcserve: recovered %d templates, replayed %d WAL records (%d skipped, %d stale) in %s\n",
			rep.Templates, rep.WALReplayed, rep.WALSkipped, rep.WALStale, rep.RecoveryDuration)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var wg sync.WaitGroup
	for w := 0; w < *load; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			generateLoad(ctx, sys, names[w%len(names)], *seed+int64(w))
		}(w)
	}

	if *shipAddr != "" {
		ship, err := replica.Serve(replica.Config{Addr: *shipAddr, Source: sys, MaxShips: *shipMax})
		if err != nil {
			return err
		}
		defer ship.Close() //nolint:errcheck
		epoch, err := sys.ReplicationEpoch()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ppcserve: shipping state on %s (lineage %x, cap %d)\n",
			ship.Addr(), epoch, *shipMax)
	}

	srv := &http.Server{Addr: *addr, Handler: newMux(sys)}
	go func() {
		<-ctx.Done()
		fmt.Fprintln(os.Stderr, "ppcserve: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx) //nolint:errcheck
	}()
	fmt.Fprintf(os.Stderr, "ppcserve: serving %s on %s (load workers: %d, wal: %v)\n",
		strings.Join(names, ","), *addr, *load, *walDir != "")
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	wg.Wait()
	return nil
}

// newMux builds the server's handler on a dedicated ServeMux. Nothing here
// touches http.DefaultServeMux: pprof is mounted explicitly, so a
// third-party import that registers a debug handler on the default mux
// (or a second server in the same process) cannot silently expose it — or
// collide with us — on this listener.
func newMux(sys *ppc.System) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if name := r.URL.Query().Get("template"); name != "" {
			tm, err := sys.TemplateMetrics(name)
			if err != nil {
				httpError(w, http.StatusNotFound, err)
				return
			}
			writeJSON(w, tm)
			return
		}
		snap, err := sys.MetricsSnapshot()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("template")
		if name == "" {
			httpError(w, http.StatusBadRequest, errors.New("missing ?template="))
			return
		}
		trace, err := sys.TemplateTrace(name)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, trace)
	})
	// Liveness: the template names take only the registry's read lock, so
	// this answers even while a template's applier is stalled (everything
	// under /metrics flushes the feedback mailboxes first and would wait).
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, sys.TemplateNames())
	})
	mux.HandleFunc("/run", postOnly(func(w http.ResponseWriter, r *http.Request) {
		name, values := runParams(r)
		var buf [8]float64 // the standard templates have at most six parameters
		point, err := parsePoint(buf[:0], values)
		if name == "" || err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("need ?template=NAME&values=v1,v2,...: %v", err))
			return
		}
		tmpl, err := sys.Template(name)
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		inst, err := sys.Optimizer().InstanceAt(tmpl, point)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		res, err := sys.Run(name, inst.Values)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeRunReply(w, res)
	}))
	mux.HandleFunc("/recovery", func(w http.ResponseWriter, r *http.Request) {
		rep := sys.LoadStateReport()
		if rep == nil {
			httpError(w, http.StatusNotFound, errors.New("cold start: no recovery was performed"))
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("/replication", func(w http.ResponseWriter, r *http.Request) {
		rep := sys.ReplMetrics()
		if rep == nil {
			httpError(w, http.StatusNotFound, errors.New("durability disabled: nothing to replicate"))
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("/checkpoint", postOnly(func(w http.ResponseWriter, r *http.Request) {
		if err := sys.Checkpoint(); err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, sys.WALMetrics())
	}))
	// Debug surfaces, mounted explicitly on this mux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// postOnly rejects non-POST methods with 405. The wrapped handlers mutate
// state, so a crawler, a prefetcher or a curious GET must not trigger them.
func postOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			httpError(w, http.StatusMethodNotAllowed,
				fmt.Errorf("%s mutates state; use POST (got %s)", r.URL.Path, r.Method))
			return
		}
		h(w, r)
	}
}

// loadSigma is the load generator's trajectory locality r_d.
const loadSigma = 0.02

// generateLoad replays an endless trajectory workload against one template
// until the context is canceled.
func generateLoad(ctx context.Context, sys *ppc.System, name string, seed int64) {
	tmpl, err := sys.Template(name)
	if err != nil {
		return
	}
	rng := rand.New(rand.NewSource(seed))
	for ctx.Err() == nil {
		points := workload.MustTrajectories(workload.TrajectoryConfig{
			Dims: tmpl.Degree(), NumPoints: 256, Sigma: loadSigma, Seed: rng.Int63(),
		})
		for _, p := range points {
			if ctx.Err() != nil {
				return
			}
			inst, err := sys.Optimizer().InstanceAt(tmpl, p)
			if err != nil {
				continue
			}
			// Errors (e.g. injected or transient) are visible in /metrics
			// run_errors; the generator just keeps going.
			sys.Run(name, inst.Values) //nolint:errcheck
		}
	}
}

// splitNames parses the -templates flag.
func splitNames(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// runParams reads /run's template and values parameters. The serving path's
// callers send them unescaped, and then they are substrings of the raw
// query: no url.Values map is built. Anything escaped goes the long way.
func runParams(r *http.Request) (template, values string) {
	raw := r.URL.RawQuery
	if strings.ContainsAny(raw, "%+;") {
		q := r.URL.Query()
		return q.Get("template"), q.Get("values")
	}
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		switch key, value, _ := strings.Cut(pair, "="); {
		case key == "template" && template == "":
			template = value
		case key == "values" && values == "":
			values = value
		}
	}
	return template, values
}

// parsePoint parses "0.3,0.4" into a plan-space point appended to dst,
// walking the string: no field slice is built.
func parsePoint(dst []float64, s string) ([]float64, error) {
	if s == "" {
		return nil, errors.New("empty values")
	}
	for more := true; more; {
		var field string
		field, s, more = strings.Cut(s, ",")
		v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// replyBufs pools the buffers /run replies are encoded into.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// jsonContentType is shared by every reply's header map; nothing writes to
// it.
var jsonContentType = []string{"application/json"}

// writeRunReply writes the body of a /run reply — the decision, not the
// executed rows, which can be large: seven fields appended into a pooled
// buffer (no reflection, no indentation) and sent with one Write under an
// explicit Content-Length. The other endpoints are for people and keep
// writeJSON.
func writeRunReply(w http.ResponseWriter, res *ppc.RunResult) {
	rows := 0
	if res.Result != nil {
		rows = len(res.Result.Rows)
	}
	bp := replyBufs.Get().(*[]byte)
	b := append((*bp)[:0], `{"template":`...)
	b = appendJSONString(b, res.Template)
	b = append(b, `,"plan_id":`...)
	b = strconv.AppendInt(b, int64(res.PlanID), 10)
	b = append(b, `,"cache_hit":`...)
	b = strconv.AppendBool(b, res.CacheHit)
	b = append(b, `,"predicted":`...)
	b = strconv.AppendBool(b, res.Predicted)
	b = append(b, `,"invoked":`...)
	b = strconv.AppendBool(b, res.Invoked)
	b = append(b, `,"degraded":`...)
	b = strconv.AppendBool(b, res.Degraded)
	b = append(b, `,"rows":`...)
	b = strconv.AppendInt(b, int64(rows), 10)
	b = append(b, "}\n"...)
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(b))}
	w.Write(b) //nolint:errcheck
	*bp = b
	replyBufs.Put(bp)
}

// appendJSONString appends s as a JSON string. Template names are plain
// ASCII in practice and are copied between quotes; anything that needs
// escaping goes through encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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
