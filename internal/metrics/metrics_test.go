package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestWindowBasics(t *testing.T) {
	w := NewWindow(3)
	if _, ok := w.Rate(); ok {
		t.Error("empty window should report no rate")
	}
	w.Add(true)
	w.Add(false)
	if r, ok := w.Rate(); !ok || r != 0.5 {
		t.Errorf("rate = %v,%v", r, ok)
	}
	w.Add(true)
	w.Add(true) // evicts the first true
	if r, _ := w.Rate(); math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("rate after eviction = %v", r)
	}
	if w.Len() != 3 {
		t.Errorf("Len = %d", w.Len())
	}
	w.Reset()
	if _, ok := w.Rate(); ok || w.Len() != 0 {
		t.Error("reset failed")
	}
}

func TestWindowEvictionExact(t *testing.T) {
	w := NewWindow(2)
	w.Add(true)
	w.Add(true)
	w.Add(false) // evicts a true
	w.Add(false) // evicts the other true
	if r, _ := w.Rate(); r != 0 {
		t.Errorf("rate = %v, want 0", r)
	}
}

func TestWindowPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWindow(0)
}

func TestTemplateEstimatorRecallIdentity(t *testing.T) {
	e := NewTemplateEstimator(100)
	if _, ok := e.Recall(); ok {
		t.Error("empty estimator should report no recall")
	}
	// 6 answered (4 correct), 4 NULL: β = 0.6, prec = 2/3, rec = 0.4.
	for i := 0; i < 4; i++ {
		e.RecordPrediction(1, true)
	}
	e.RecordPrediction(2, false)
	e.RecordPrediction(2, false)
	for i := 0; i < 4; i++ {
		e.RecordNull()
	}
	beta, _ := e.Beta()
	prec, _ := e.Precision()
	rec, _ := e.Recall()
	if math.Abs(beta-0.6) > 1e-12 || math.Abs(prec-2.0/3) > 1e-12 || math.Abs(rec-0.4) > 1e-12 {
		t.Errorf("beta=%v prec=%v rec=%v", beta, prec, rec)
	}
	if e.SampleCount() != 10 {
		t.Errorf("SampleCount = %d", e.SampleCount())
	}
}

func TestTemplateEstimatorPerPlan(t *testing.T) {
	e := NewTemplateEstimator(10)
	e.RecordPrediction(7, true)
	e.RecordPrediction(7, false)
	e.RecordPrediction(9, true)
	if p, ok := e.PlanPrecision(7); !ok || p != 0.5 {
		t.Errorf("plan 7 precision = %v,%v", p, ok)
	}
	if p, ok := e.PlanPrecision(9); !ok || p != 1 {
		t.Errorf("plan 9 precision = %v,%v", p, ok)
	}
	if _, ok := e.PlanPrecision(1); ok {
		t.Error("unknown plan should report no precision")
	}
	e.Reset()
	if _, ok := e.Precision(); ok {
		t.Error("reset failed")
	}
	if _, ok := e.PlanPrecision(7); ok {
		t.Error("reset did not clear plans")
	}
}

func TestTemplateEstimatorAllNull(t *testing.T) {
	e := NewTemplateEstimator(10)
	e.RecordNull()
	e.RecordNull()
	rec, ok := e.Recall()
	if !ok || rec != 0 {
		t.Errorf("all-NULL recall = %v,%v want 0,true", rec, ok)
	}
}

func TestCounterDefinitionFour(t *testing.T) {
	var c Counter
	if c.Precision() != 1 || c.Recall() != 0 {
		t.Errorf("empty counter: prec=%v rec=%v", c.Precision(), c.Recall())
	}
	// 7 correct, 1 incorrect, 2 NULL.
	for i := 0; i < 7; i++ {
		c.RecordTruth(true, true)
	}
	c.RecordTruth(true, false)
	c.RecordTruth(false, false)
	c.RecordTruth(false, true) // correctness ignored for NULL
	if got := c.Precision(); math.Abs(got-7.0/8) > 1e-12 {
		t.Errorf("precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("recall = %v", got)
	}
	if total := c.Correct + c.Incorrect + c.Nulls; total != 10 {
		t.Errorf("total = %v", total)
	}
	var d Counter
	d.RecordTruth(true, true)
	c.Merge(d)
	if c.Correct != 8 || c.Correct+c.Incorrect+c.Nulls != 11 {
		t.Errorf("merge: %+v", c)
	}
}

// TestWindowProperty drives a Window through a random Add/Reset schedule and
// checks it against a shadow slice at every step.
func TestWindowProperty(t *testing.T) {
	for _, k := range []int{1, 2, 7, 32} {
		w := NewWindow(k)
		var shadow []bool
		rng := rand.New(rand.NewSource(int64(k)))
		for step := 0; step < 2000; step++ {
			switch {
			case rng.Intn(50) == 0:
				w.Reset()
				shadow = shadow[:0]
			default:
				v := rng.Intn(2) == 0
				w.Add(v)
				shadow = append(shadow, v)
				if len(shadow) > k {
					shadow = shadow[1:]
				}
			}
			if w.Len() != len(shadow) {
				t.Fatalf("k=%d step=%d: Len = %d, shadow %d", k, step, w.Len(), len(shadow))
			}
			trues := 0
			for _, v := range shadow {
				if v {
					trues++
				}
			}
			r, ok := w.Rate()
			if ok != (len(shadow) > 0) {
				t.Fatalf("k=%d step=%d: ok = %v with %d samples", k, step, ok, len(shadow))
			}
			if ok {
				want := float64(trues) / float64(len(shadow))
				if math.Abs(r-want) > 1e-12 {
					t.Fatalf("k=%d step=%d: rate = %f, want %f", k, step, r, want)
				}
			}
		}
	}
}

// TestPrecisionConventions pins the two no-data conventions against each
// other: Counter reports the vacuous 1.0 (paper plots), the estimator
// reports "does not exist".
func TestPrecisionConventions(t *testing.T) {
	var c Counter
	if c.Precision() != 1 {
		t.Errorf("empty Counter.Precision = %f, want vacuous 1", c.Precision())
	}
	if _, ok := NewTemplateEstimator(4).Precision(); ok {
		t.Error("empty estimator must report no precision")
	}
	c.RecordTruth(true, true)
	c.RecordTruth(true, false)
	if c.Precision() != 0.5 {
		t.Errorf("Precision = %f, want 0.5", c.Precision())
	}
	// NULL-only data: still no NULL-free predictions, so the vacuous 1.
	var n Counter
	n.RecordTruth(false, false)
	if n.Precision() != 1 {
		t.Errorf("NULL-only Counter.Precision = %f, want vacuous 1", n.Precision())
	}
}
