// Package experiments implements one reproducible runner per table and
// figure of the paper's evaluation (Section V and the appendices). Each
// runner returns printable tables with the same rows/series the paper
// reports; cmd/ppcbench prints them and bench_test.go exposes each as a
// benchmark target. The per-experiment configuration defaults follow the
// paper's stated parameters, with a Frac knob to scale workload sizes down
// for smoke tests.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/optimizer"
	"repro/internal/queries"
	"repro/internal/tpch"
)

// Env bundles the shared substrate every experiment runs against.
type Env struct {
	DB        *tpch.Database
	Cat       *catalog.Catalog
	Opt       *optimizer.Optimizer
	Exec      *executor.Executor
	Templates map[string]*optimizer.Template
}

// NewEnv generates the experiment database (1/scale of TPC-H SF1) and
// parses the standard templates.
func NewEnv(scale int, seed int64) (*Env, error) {
	if scale <= 0 {
		scale = 400
	}
	db, err := tpch.Generate(tpch.Config{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	cat, err := catalog.Build(db, 0)
	if err != nil {
		return nil, err
	}
	tmpls, err := queries.Templates()
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*optimizer.Template, len(tmpls))
	for _, tm := range tmpls {
		byName[tm.Name] = tm
	}
	return &Env{
		DB:        db,
		Cat:       cat,
		Opt:       optimizer.New(db, cat),
		Exec:      executor.New(db),
		Templates: byName,
	}, nil
}

// MustNewEnv is like NewEnv but panics on error.
func MustNewEnv(scale int, seed int64) *Env {
	e, err := NewEnv(scale, seed)
	if err != nil {
		panic(err)
	}
	return e
}

// Template returns a standard template by name.
func (e *Env) Template(name string) (*optimizer.Template, error) {
	tm := e.Templates[name]
	if tm == nil {
		return nil, fmt.Errorf("experiments: unknown template %s", name)
	}
	return tm, nil
}

// Oracle labels plan space points with the optimizer's plan choice and
// cost, memoizing by point so repeated probes are cheap. It also serves as
// the core.Environment for online experiments.
type Oracle struct {
	env  *Env
	tmpl *optimizer.Template
	reg  *optimizer.Registry
	memo map[string]labeled
	// plans keeps one representative tree per plan id for recosting.
	plans map[int]*optimizer.Plan
	// Calls counts real (non-memoized) optimizer invocations.
	Calls int
}

type labeled struct {
	plan int
	cost float64
}

// NewOracle creates an oracle for one template.
func NewOracle(env *Env, tmpl *optimizer.Template) *Oracle {
	return &Oracle{
		env:   env,
		tmpl:  tmpl,
		reg:   optimizer.NewRegistry(),
		memo:  make(map[string]labeled),
		plans: make(map[int]*optimizer.Plan),
	}
}

// Registry exposes the oracle's plan registry.
func (o *Oracle) Registry() *optimizer.Registry { return o.reg }

func pointKey(x []float64) string {
	var b strings.Builder
	for _, v := range x {
		fmt.Fprintf(&b, "%.9f,", v)
	}
	return b.String()
}

// Label returns the optimizer's plan id and cost at plan space point x.
func (o *Oracle) Label(x []float64) (int, float64, error) {
	key := pointKey(x)
	if l, ok := o.memo[key]; ok {
		return l.plan, l.cost, nil
	}
	inst, err := o.env.Opt.InstanceAt(o.tmpl, x)
	if err != nil {
		return 0, 0, err
	}
	plan, err := o.env.Opt.OptimizeInstance(inst)
	if err != nil {
		return 0, 0, err
	}
	o.Calls++
	id := o.reg.ID(plan.Fingerprint)
	o.plans[id] = plan
	o.memo[key] = labeled{plan: id, cost: plan.Cost}
	return id, plan.Cost, nil
}

// Optimize implements core.Environment.
func (o *Oracle) Optimize(x []float64) (int, float64, error) {
	return o.Label(x)
}

// ExecuteCost implements core.Environment via plan rebinding.
func (o *Oracle) ExecuteCost(x []float64, planID int) (float64, error) {
	plan, ok := o.plans[planID]
	if !ok {
		return 0, nil
	}
	inst, err := o.env.Opt.InstanceAt(o.tmpl, x)
	if err != nil {
		return 0, err
	}
	re, err := o.env.Opt.Recost(o.tmpl.Query, plan, inst.Values)
	if err != nil {
		return 0, err
	}
	return re.Cost, nil
}

// Reset clears the memoized plan space (used by the drift experiment after
// manipulating the cost model).
func (o *Oracle) Reset() {
	o.memo = make(map[string]labeled)
	o.plans = make(map[int]*optimizer.Plan)
}

// SamplePlanSpace labels n uniform plan space points.
func (o *Oracle) SamplePlanSpace(n int, seed int64) ([]core.Sample, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Sample, 0, n)
	for i := 0; i < n; i++ {
		x := make([]float64, o.tmpl.Degree())
		for j := range x {
			x[j] = rng.Float64()
		}
		plan, cost, err := o.Label(x)
		if err != nil {
			return nil, err
		}
		out = append(out, core.Sample{Point: x, Plan: plan, Cost: cost})
	}
	return out, nil
}

// DistinctPlans returns the number of distinct plans the oracle has seen.
func (o *Oracle) DistinctPlans() int { return o.reg.Count() }

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV writes the table as CSV (header row then data rows).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		trimmed := make([]string, len(row))
		for i, c := range row {
			trimmed[i] = strings.TrimSpace(c)
		}
		if err := cw.Write(trimmed); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// scaleInt scales a default count by frac (frac <= 0 means 1.0), floored
// at min.
func scaleInt(n int, frac float64, min int) int {
	if frac <= 0 || frac >= 1 {
		return n
	}
	v := int(float64(n) * frac)
	if v < min {
		v = min
	}
	return v
}
