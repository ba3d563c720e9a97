package stats

import "testing"

// fixedColumn answers every selectivity with sel and every distinct count
// with distinct.
type fixedColumn struct{ sel, distinct float64 }

func (c fixedColumn) SelectivityLE(float64) float64             { return c.sel }
func (c fixedColumn) SelectivityEq(float64) float64             { return c.sel }
func (c fixedColumn) SelectivityEqString(string) float64        { return c.sel }
func (c fixedColumn) SelectivityRange(float64, float64) float64 { return c.sel }
func (c fixedColumn) Quantile(p float64) float64                { return p }
func (c fixedColumn) DistinctCount() float64                    { return c.distinct }
func (c fixedColumn) Bounds() (float64, float64)                { return 0, 1 }

type fixedProvider struct{ col fixedColumn }

func (p *fixedProvider) Column(string, string) (Column, error) { return p.col, nil }

// TestDistortedRewritesEveryEstimate: a Distorted provider passes every
// selectivity its column answers through Sel, clamped to [0, 1] — equality
// on a number or a string as well as ranges — and the distinct count
// through DistinctFn, at least 1.
func TestDistortedRewritesEveryEstimate(t *testing.T) {
	d := &Distorted{
		Provider: &fixedProvider{fixedColumn{sel: 0.3, distinct: 40}},
		Sel: func(table, col string, sel float64) float64 {
			if table != "orders" || col != "o_totalprice" {
				t.Errorf("Sel asked about %s.%s", table, col)
			}
			return 4 * sel
		},
		DistinctFn: func(_, _ string, d float64) float64 { return d / 100 },
	}
	c, err := d.Column("orders", "o_totalprice")
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]float64{
		"SelectivityLE":       c.SelectivityLE(0.5),
		"SelectivityEq":       c.SelectivityEq(0.5),
		"SelectivityEqString": c.SelectivityEqString("x"),
		"SelectivityRange":    c.SelectivityRange(0.1, 0.5),
	} {
		if got != 1 {
			t.Errorf("%s = %v through a 4x distortion of 0.3, want it clamped to 1", name, got)
		}
	}
	if got := c.DistinctCount(); got != 1 {
		t.Errorf("DistinctCount = %v for 40 / 100, want it held at 1", got)
	}
}
