package main

// In-process tests for the HTTP surface: mutating endpoints must enforce
// POST, the debug handlers must be mounted on the dedicated mux (not
// inherited from http.DefaultServeMux), and the expvar publication must be
// safe to run more than once per process.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/tpch"
)

func testSystem(t *testing.T) *ppc.System {
	t.Helper()
	sys, err := ppc.Open(ppc.Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}})
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
	// returned: a twin system's first run at the same point is that result.
	resp, err := http.Post(runURL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("POST /run = %d, reply decodes with %v; want 200 and a JSON object", resp.StatusCode, err)
	}
	twin := testSystem(t)
	point := make([]float64, tmpl.Degree())
	for i := range point {
		point[i] = 0.3
	}
	inst, err := twin.Optimizer().InstanceAt(tmpl, point)
	if err != nil {
		t.Fatal(err)
	}
	res, err := twin.Run("Q1", inst.Values)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Invoked || len(res.Result.Rows) == 0 {
		t.Fatalf("a first run of Q1 invoked the optimizer = %v and returned %d rows; the reply check needs both", res.Invoked, len(res.Result.Rows))
	}
	want := map[string]any{
		"template": res.Template, "plan_id": float64(res.PlanID), "cache_hit": res.CacheHit, "predicted": res.Predicted,
		"invoked": res.Invoked, "degraded": res.Degraded, "rows": float64(len(res.Result.Rows)),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("POST /run replied %v, Run returned %v", got, want)
	}
	// /checkpoint without a WAL is a handler-level failure (500), never a
	// method-level one.
	resp, err = http.Post(srv.URL+"/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	if resp.StatusCode == http.StatusMethodNotAllowed {
		t.Error("POST /checkpoint rejected as a method error")
	}
}

func TestReadEndpointsServeOnDedicatedMux(t *testing.T) {
	sys := testSystem(t)
	publishExpvar(sys)
	srv := httptest.NewServer(newMux(sys))
	defer srv.Close()

	for path, want := range map[string]int{
		"/metrics":            http.StatusOK,
		"/health":             http.StatusOK,
		"/stats?template=Q1":  http.StatusOK,
		"/replication":        http.StatusNotFound, // no WAL in this system
		"/debug/vars":         http.StatusOK,
		"/debug/pprof/":       http.StatusOK,
		"/debug/pprof/symbol": http.StatusOK,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
		if path == "/debug/vars" && !strings.Contains(string(body), "ppc_metrics") {
			t.Error("/debug/vars does not carry the published ppc_metrics var")
		}
	}
}

// TestPublishExpvarIdempotent guards the second-server-in-one-process case:
// expvar.Publish panics on a duplicate name, so the publication must be
// once-guarded and re-pointable at a newer System.
func TestPublishExpvarIdempotent(t *testing.T) {
	sys := testSystem(t)
	publishExpvar(sys)
	publishExpvar(sys) // second publication must not panic
	sys2 := testSystem(t)
	publishExpvar(sys2)
	if got := expvarSys.Load(); got != sys2 {
		t.Error("expvar does not read through to the most recent system")
	}
}
