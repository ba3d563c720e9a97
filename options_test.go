package ppc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/tpch"
)

// TestConfigHasNoSwitches: a mechanism the paper states as a number — the
// noise fraction, the cost error bound ε, the self-label budget, a cadence
// — is configured by that number alone, so the configurations carry no
// on/off switch beside it. The walk recurses into nested structs, not into
// funcs, pointers or interfaces.
func TestConfigHasNoSwitches(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name := path + "." + f.Name
			switch f.Type.Kind() {
			case reflect.Bool:
				t.Errorf("%s is an on/off switch: make it a value of the parameter it gates", name)
			case reflect.Struct:
				walk(name, f.Type)
			}
		}
	}
	walk("ppc.Options", reflect.TypeOf(Options{}))
	walk("replica.Config", reflect.TypeOf(replica.Config{}))
	walk("replica.Options", reflect.TypeOf(replica.Options{}))
}

// Each template's learner takes its dimensionality from the template, so
// Open refuses a value it would otherwise overwrite, naming the field.
// TestZeroOptionsTakeTheDefaultDatabase: Options with no TPCH scale open
// the experiments' database, tpch.DefaultConfig.
func TestZeroOptionsTakeTheDefaultDatabase(t *testing.T) {
	opts, err := Options{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if opts.TPCH != tpch.DefaultConfig() {
		t.Fatalf("zero options take database %+v, want %+v", opts.TPCH, tpch.DefaultConfig())
	}
}

func TestOpenRejectsPerTemplateDims(t *testing.T) {
	for field, set := range map[string]func(*core.Config){
		"Online.Core.Dims":    func(c *core.Config) { c.Dims = 2 },
		"Online.Core.OutDims": func(c *core.Config) { c.OutDims = 1 },
	} {
		opts := Options{TPCH: tpch.Config{Scale: 2000, Seed: 5}}
		set(&opts.Online.Core)
		if _, err := Open(opts); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("Open with %s set: error %v, want one naming the field", field, err)
		}
	}
}

// A System opened with only Online.Core.NoiseFraction set serves with that
// floor: its learner answers as a predictor of its own configuration at
// that fraction, and not as one with noise elimination off. The workload is
// a dense plan with a second plan sprinkled under the floor, whose density
// only an unfloored vote counts against the first plan's confidence.
func TestSystemServesWithItsNoiseFraction(t *testing.T) {
	sys, err := Open(Options{
		TPCH:          tpch.Config{Scale: 2000, Seed: 5},
		Online:        core.OnlineConfig{Core: core.Config{NoiseFraction: 0.1}},
		FeedbackQueue: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close() //nolint:errcheck
	if err := sys.Register("Q1", mustSQL(t, "Q1")); err != nil {
		t.Fatal(err)
	}
	st, err := sys.lookup("Q1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := st.online.Predictor().Config()
	if cfg.NoiseFraction != 0.1 {
		t.Fatalf("learner NoiseFraction = %v, want 0.1", cfg.NoiseFraction)
	}
	offCfg := cfg
	offCfg.NoiseFraction = -1
	on, off := core.MustNewApproxLSHHist(cfg), core.MustNewApproxLSHHist(offCfg)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 3000; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		plan := 0
		if i%25 == 0 {
			plan = 1
		}
		if err := st.online.LearnValidated(x, plan, 1); err != nil {
			t.Fatal(err)
		}
		on.Insert(core.Sample{Point: x, Plan: plan, Cost: 1})
		off.Insert(core.Sample{Point: x, Plan: plan, Cost: 1})
	}
	differs := 0
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		served, _, _ := st.online.PredictModel(x)
		if want := on.Predict(x); served != want {
			t.Fatalf("at %v the System serves %+v, a NoiseFraction 0.1 predictor %+v", x, served, want)
		}
		if served != off.Predict(x) {
			differs++
		}
	}
	if differs == 0 {
		t.Error("no probe separates noise elimination on from off; the test is vacuous")
	}
}
