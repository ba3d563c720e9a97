package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner executes one experiment at the given size fraction and returns
// its printable table.
type Runner struct {
	ID          string
	Description string
	Run         func(env *Env, frac float64) (*Table, error)
}

// Registry lists every paper table/figure runner by id.
var Registry = []Runner{
	{"fig2", "plan diagram of Q1's 2-D plan space (Figure 2)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunFig2(env, Fig2Config{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"fig3", "k-means vs single linkage vs density predict (Figure 3)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunFig3(env, Fig3Config{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"tab1", "complexity and space of the algorithms (Table I)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunTab1(env, Tab1Config{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"fig8", "NAIVE and APPROXIMATE-LSH vs BASELINE at equal space (Figure 8)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunFig8(env, Fig8Config{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"fig9", "APPROXIMATE-LSH vs APPROXIMATE-LSH-HISTOGRAMS (Figure 9)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunFig9(env, Fig9Config{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"tab2", "precision vs confidence threshold (Table II)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunTab2(env, Tab2Config{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"fig10a", "precision vs number of transformations (Figure 10(a))",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunFig10a(env, Fig10aConfig{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"fig10b", "recall vs histogram buckets (Figure 10(b))",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunFig10b(env, Fig10bConfig{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"fig11", "online precision/recall over random trajectories (Figure 11)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunFig11(env, Fig11Config{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"sec5b", "online precision/recall per template at r_d=0.08 (Section V-B)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunSec5b(env, Sec5bConfig{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"fig12", "noise elimination / negative feedback / invocation ablations (Figure 12)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunFig12(env, Fig12Config{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"fig13", "runtime: PPC vs ALWAYS-OPTIMIZE vs IDEAL (Figure 13)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunFig13(env, Fig13Config{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"fig14", "plan choice & cost predictability validation (Figure 14)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunFig14(env, Fig14Config{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"tab3", "query template inventory (Table III)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunTab3(env, Tab3Config{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"drift", "plan space manipulation and recovery (Section V-D)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunDrift(env, DriftConfig{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"extpf", "positive feedback extension study (Section VII future work)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunExtPF(env, ExtPFConfig{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
	{"extmem", "system context (memory) as an optimizer parameter (Section VII future work)",
		func(env *Env, frac float64) (*Table, error) {
			r, err := RunExtMem(env, ExtMemConfig{Frac: frac})
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}},
}

// Find returns the runner with the given id.
func Find(id string) (Runner, error) {
	for _, r := range Registry {
		if r.ID == id {
			return r, nil
		}
	}
	ids := make([]string, 0, len(Registry))
	for _, r := range Registry {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return Runner{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, ids)
}

// RunAll executes every experiment and prints its table to w.
func RunAll(env *Env, frac float64, w io.Writer) error {
	for _, r := range Registry {
		t, err := r.Run(env, frac)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		t.Fprint(w)
	}
	return nil
}
