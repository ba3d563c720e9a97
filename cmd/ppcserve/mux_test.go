package main

// In-process tests for the HTTP surface: mutating endpoints must enforce
// POST, the debug handlers must be mounted on the dedicated mux (not
// inherited from http.DefaultServeMux), and one template's metrics must be
// its element of the whole snapshot.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/tpch"
)

func testSystem(t *testing.T) *ppc.System {
	t.Helper()
	// Feedback is applied inline, so that two systems fed the same runs
	// decide alike.
	sys, err := ppc.Open(ppc.Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}, FeedbackQueue: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() }) //nolint:errcheck
	if err := sys.RegisterStandard(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestMutatingEndpointsRequirePOST(t *testing.T) {
	sys := testSystem(t)
	srv := httptest.NewServer(newMux(sys))
	defer srv.Close()

	tmpl, err := sys.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}
	values := strings.TrimSuffix(strings.Repeat("0.3,", tmpl.Degree()), ",")
	runURL := srv.URL + "/run?template=Q1&values=" + values

	// Every non-POST method is refused with 405 and an Allow header.
	for _, target := range []string{runURL, srv.URL + "/checkpoint"} {
		for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete, http.MethodHead} {
			req, err := http.NewRequest(method, target, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()              //nolint:errcheck
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s = %d, want 405", method, target, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
				t.Errorf("%s %s Allow = %q, want POST", method, target, allow)
			}
		}
	}

	// POST goes through to the handler, and the reply carries what Run
	// returned, field for field: a twin system fed the same runs is the
	// oracle. The first run invokes the optimizer; repeated at one point the
	// learner takes over and the replies turn into cache hits.
	twin := testSystem(t)
	point := make([]float64, tmpl.Degree())
	for i := range point {
		point[i] = 0.3
	}
	inst, err := twin.Optimizer().InstanceAt(tmpl, point)
	if err != nil {
		t.Fatal(err)
	}
	invoked, hits := 0, 0
	for i := 0; i < 60; i++ {
		res, err := twin.Run("Q1", inst.Values)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Result.Rows) == 0 {
			t.Fatal("Q1 at 0.3 returned no rows; the reply check needs some")
		}
		checkRunReply(t, runURL, res)
		if res.Invoked {
			invoked++
		}
		if res.CacheHit && !res.Invoked {
			hits++
		}
	}
	if invoked == 0 || hits == 0 {
		t.Fatalf("%d invoked replies and %d cache hits in 60 runs; the reply check needs both", invoked, hits)
	}
	// /checkpoint without a WAL is a handler-level failure (500), never a
	// method-level one.
	resp, err := http.Post(srv.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	if resp.StatusCode == http.StatusMethodNotAllowed {
		t.Error("POST /checkpoint rejected as a method error")
	}
	// A POST /run that names no instance is the client's error, never a run.
	for query, want := range map[string]int{
		"template=Q1&values=0.3":     http.StatusBadRequest, // wrong arity
		"template=Q1&values=x,0.4":   http.StatusBadRequest, // not a number
		"template=Q1&values=NaN,0.4": http.StatusBadRequest, // no plan-space point
		"template=Q9&values=0.3,0.4": http.StatusNotFound,
	} {
		resp, err := http.Post(srv.URL+"/run?"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()              //nolint:errcheck
		if resp.StatusCode != want {
			t.Errorf("POST /run?%s = %d, want %d", query, resp.StatusCode, want)
		}
	}
}

// checkRunReply POSTs url and holds the reply to res, the twin's result for
// the same run: status 200, every field of the body, a declared JSON content
// type, a Content-Length that is the body's, and the compact one-line form.
func checkRunReply(t *testing.T, url string, res *ppc.RunResult) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("POST /run = %d, body read with %v; want 200", resp.StatusCode, err)
	}
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("POST /run replied %q: %v", body, err)
	}
	want := map[string]any{
		"template": res.Template, "plan_id": float64(res.PlanID), "cache_hit": res.CacheHit, "predicted": res.Predicted,
		"invoked": res.Invoked, "degraded": res.Degraded, "rows": float64(len(res.Result.Rows)),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("POST /run replied %v, Run returned %v", got, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("POST /run Content-Type = %q", ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("POST /run Content-Length = %q, body is %d bytes", cl, len(body))
	}
	if n := strings.Count(string(body), "\n"); n != 1 || !strings.HasSuffix(string(body), "}\n") {
		t.Errorf("POST /run reply is not one compact line: %q", body)
	}
}

// TestRunReplyDegraded: a reply written while the breaker holds the
// template in always-optimize mode says so, like its twin's Run.
func TestRunReplyDegraded(t *testing.T) {
	open := func() (*ppc.System, *faults.Injector) {
		inj := faults.New(3).Enable(faults.OptimizerError, 1)
		sys, err := ppc.Open(ppc.Options{
			TPCH:          tpch.Config{Scale: 2000, Seed: 5},
			FeedbackQueue: -1,
			Faults:        inj,
			Breaker:       metrics.BreakerConfig{FailureThreshold: 1, Cooldown: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() }) //nolint:errcheck
		if err := sys.RegisterStandard(); err != nil {
			t.Fatal(err)
		}
		return sys, inj
	}
	sys, sysFaults := open()
	twin, twinFaults := open()
	srv := httptest.NewServer(newMux(sys))
	defer srv.Close()
	runURL := srv.URL + "/run?template=Q0&values=0.4,0.4"
	tmpl, err := twin.Template("Q0")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := twin.Optimizer().InstanceAt(tmpl, []float64{0.4, 0.4})
	if err != nil {
		t.Fatal(err)
	}

	// The optimizer is down: the run fails on both and trips both breakers.
	resp, err := http.Post(runURL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	if _, err := twin.Run("Q0", inst.Values); err == nil || resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("with the optimizer down the twin's Run returned %v and POST /run %d", err, resp.StatusCode)
	}
	sysFaults.DisableAll()
	twinFaults.DisableAll()
	res, err := twin.Run("Q0", inst.Values)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || !res.Invoked {
		t.Fatalf("the twin's run under an open breaker: degraded %v, invoked %v", res.Degraded, res.Invoked)
	}
	checkRunReply(t, runURL, res)
}

// TestRunHandlerAllocBudget holds a warm /run — parse, InstanceAt, Run,
// reply — to the allocations of the Run it wraps plus the request's own: the
// recorder the test hands it (seven: itself, its header map and body, the
// header snapshot's three at the first Write, the body's growth), the
// instance's values, and the reply's headers (Content-Length's digits and
// slice, the header map's first bucket). The query is read as substrings, the point is parsed into the
// handler's frame and the reply is appended into a pooled buffer, so
// nothing else is allocated: the url.Values map, field slice and reflecting,
// indenting encoder this handler had cost twelve more (29 a request where
// this one reads 17).
func TestRunHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector's shadow memory inflates allocation counts")
	}
	sys := testSystem(t)
	mux := newMux(sys)
	req := httptest.NewRequest(http.MethodPost, "/run?template=Q1&values=0.3,0.3", nil)
	tmpl, err := sys.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sys.Optimizer().InstanceAt(tmpl, []float64{0.3, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("/run = %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 200; i++ { // warm: the learner serves this point from the cache
		serve()
	}
	run := testing.AllocsPerRun(200, func() {
		if _, err := sys.Run("Q1", inst.Values); err != nil {
			t.Fatal(err)
		}
	})
	handler := testing.AllocsPerRun(200, serve)
	const requestAllocs = 7 + 1 + 3
	// Two of slack: a model publication or an audit's optimizer call lands
	// in one loop and not the other, and AllocsPerRun truncates both means.
	if handler > run+requestAllocs+2 {
		t.Fatalf("/run allocates %.1f per request, Run alone %.1f: budget is Run's + %d", handler, run, requestAllocs)
	}
	t.Logf("/run %.1f allocs per request, Run alone %.1f", handler, run)
}

func TestReadEndpointsServeOnDedicatedMux(t *testing.T) {
	sys := testSystem(t)
	srv := httptest.NewServer(newMux(sys))
	defer srv.Close()

	for path, want := range map[string]int{
		"/metrics":              http.StatusOK,
		"/metrics?template=Q1":  http.StatusOK,
		"/metrics?template=Q99": http.StatusNotFound,
		"/health":               http.StatusOK,
		"/replication":          http.StatusNotFound, // no WAL in this system
		"/debug/pprof/":         http.StatusOK,
		"/debug/pprof/symbol":   http.StatusOK,
		// Gone with ppc-metrics/v1: /metrics?template= answers what /stats
		// did, and /debug/vars was /metrics under a second path.
		"/stats?template=Q1": http.StatusNotFound,
		"/debug/vars":        http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestMetricsOfOneTemplateIsItsSnapshotElement: /metrics?template=Q1 returns
// exactly the Q1 element of /metrics — one assembly, two framings — and
// /health is the facade's breaker states and nothing that needs a flush
// (TestBreakerStatesAnswerWhileApplierStalled, in the root package, stalls
// an applier under that read).
func TestMetricsOfOneTemplateIsItsSnapshotElement(t *testing.T) {
	sys := testSystem(t)
	srv := httptest.NewServer(newMux(sys))
	defer srv.Close()

	tmpl, err := sys.Template("Q1")
	if err != nil {
		t.Fatal(err)
	}
	values := strings.TrimSuffix(strings.Repeat("0.3,", tmpl.Degree()), ",")
	for i := 0; i < 5; i++ {
		resp, err := http.Post(srv.URL+"/run?template=Q1&values="+values, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //nolint:errcheck
	}
	get := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	var all struct {
		Schema    string            `json:"schema"`
		Templates []json.RawMessage `json:"templates"`
	}
	get("/metrics", &all)
	if all.Schema != ppc.MetricsSnapshotSchema {
		t.Errorf("schema %q, want %q", all.Schema, ppc.MetricsSnapshotSchema)
	}
	var one, element any
	get("/metrics?template=Q1", &one)
	for _, raw := range all.Templates {
		var head struct {
			Template string `json:"template"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			t.Fatal(err)
		}
		if head.Template == "Q1" {
			if err := json.Unmarshal(raw, &element); err != nil {
				t.Fatal(err)
			}
		}
	}
	if element == nil || !reflect.DeepEqual(one, element) {
		t.Errorf("/metrics?template=Q1 is not the Q1 element of /metrics:\n one: %v\n all: %v", one, element)
	}
	if runs := one.(map[string]any)["counters"].(map[string]any)["runs"]; runs != 5.0 {
		t.Errorf("counters.runs = %v after 5 runs", runs)
	}

	var health map[string]string
	get("/health", &health)
	if want := sys.BreakerStates(); !reflect.DeepEqual(health, want) || health["Q1"] != "closed" {
		t.Errorf("/health = %v, want the breaker states %v", health, want)
	}
}
