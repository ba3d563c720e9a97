package obsv

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{999 * time.Nanosecond, 0},
		{time.Microsecond, 1},     // us=1 -> Len64(1)=1
		{2 * time.Microsecond, 2}, // [2,4) us
		{3 * time.Microsecond, 2},
		{1024 * time.Microsecond, 11}, // [1024,2048) us
		{time.Hour, histBuckets - 1},  // overflow
	}
	for _, c := range cases {
		if got := bucketIndex(c.d.Nanoseconds()); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every bucket's upper bound must contain its own index: a duration just
	// under BucketUpperMicros(i) microseconds lands in bucket <= i.
	for i := 1; i < histBuckets-1; i++ {
		up := BucketUpperMicros(i)
		d := time.Duration(up-1) * time.Microsecond
		if got := bucketIndex(d.Nanoseconds()); got > i {
			t.Errorf("duration %v (bucket bound %d us) landed in bucket %d", d, up, got)
		}
	}
	if BucketUpperMicros(histBuckets-1) != 0 {
		t.Error("overflow bucket must report bound 0")
	}
}

func TestHistRecordAndSnapshot(t *testing.T) {
	var h Hist
	durs := []time.Duration{
		500 * time.Nanosecond,
		3 * time.Microsecond,
		3 * time.Microsecond,
		900 * time.Microsecond,
		-time.Second, // clamped to 0
	}
	var sum uint64
	for _, d := range durs {
		h.Record(d)
		if d > 0 {
			sum += uint64(d.Nanoseconds())
		}
	}
	s := h.Snapshot()
	if s.Count != uint64(len(durs)) {
		t.Fatalf("count = %d, want %d", s.Count, len(durs))
	}
	if s.SumNanos != sum {
		t.Errorf("sum = %d, want %d", s.SumNanos, sum)
	}
	if s.MaxNanos != uint64((900 * time.Microsecond).Nanoseconds()) {
		t.Errorf("max = %d", s.MaxNanos)
	}
	var bucketTotal uint64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Errorf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	if mean := s.MeanNanos(); mean != float64(sum)/float64(len(durs)) {
		t.Errorf("mean = %f", mean)
	}
	// Quantiles are bucket upper bounds: the median of {0,0,3us,3us,900us}
	// falls in the [2,4) us bucket.
	if q := s.Quantile(0.5); q != 4*time.Microsecond {
		t.Errorf("p50 = %v, want 4us", q)
	}
	if q := s.Quantile(1); q < 900*time.Microsecond {
		t.Errorf("p100 = %v, want >= 900us", q)
	}
	if (HistSnapshot{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
}

func TestHistConcurrent(t *testing.T) {
	var h Hist
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(w*i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

func TestTraceRingWraparound(t *testing.T) {
	var r traceRing
	if r.Snapshot() == nil || len(r.Snapshot()) != 0 {
		t.Fatal("a new ring must snapshot empty")
	}
	const extra = 6
	for i := 1; i <= traceRingSize+extra; i++ {
		rec := TraceRecord{Seq: uint64(i), PlanID: i}
		r.Append(&rec)
	}
	snap := r.Snapshot()
	if len(snap) != traceRingSize {
		t.Fatalf("snapshot length = %d, want %d", len(snap), traceRingSize)
	}
	for i, rec := range snap {
		if want := uint64(extra + 1 + i); rec.Seq != want {
			t.Errorf("snap[%d].Seq = %d, want %d (oldest first)", i, rec.Seq, want)
		}
	}
}

func TestTraceRecordJSON(t *testing.T) {
	var rec TraceRecord
	rec.Seq = 3
	rec.Template = "Q1"
	rec.SetValues([]float64{1.5, 2.5})
	rec.SetPoint([]float64{0.1, 0.2})
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	vals, ok := out["values"].([]any)
	if !ok || len(vals) != 2 || vals[0].(float64) != 1.5 {
		t.Errorf("values not trimmed to populated prefix: %s", data)
	}
	pt, ok := out["point"].([]any)
	if !ok || len(pt) != 2 {
		t.Errorf("point not trimmed: %s", data)
	}
	// Oversized input truncates rather than overflowing.
	rec.SetValues(make([]float64, MaxTraceDims+5))
	if rec.NumValues != MaxTraceDims {
		t.Errorf("NumValues = %d, want %d", rec.NumValues, MaxTraceDims)
	}
}

func TestRegistryTemplateReuse(t *testing.T) {
	reg := NewRegistry()
	a := reg.Template("Q1")
	a.CountRunError()
	if b := reg.Template("Q1"); b != a {
		t.Fatal("re-registering must return the same TemplateObs")
	}
	if got := reg.Template("Q1").Snapshot().Counters.RunErrors; got != 1 {
		t.Errorf("counters lost across re-registration: %d", got)
	}
	names := reg.TemplateNames()
	if len(names) != 1 || names[0] != "Q1" {
		t.Errorf("names = %v", names)
	}
}

func TestObserveCountersAndConcurrency(t *testing.T) {
	tm := NewRegistry().Template("Q")
	const workers, per = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := TraceRecord{
					Template:  "Q",
					Predicted: i%2 == 0,
					CacheHit:  i%2 == 0,
					Invoked:   i%2 == 1,
					Executed:  true,
					PredictNs: 100, OptimizeNs: 200, ExecuteNs: 300,
				}
				tm.Observe(&rec)
			}
		}()
	}
	wg.Wait()
	c := tm.Snapshot().Counters
	total := uint64(workers * per)
	if c.Runs != total {
		t.Fatalf("runs = %d, want %d", c.Runs, total)
	}
	if c.Predicted != total/2 || c.CacheHits != total/2 {
		t.Errorf("split = %d/%d, want %d each", c.Predicted, c.CacheHits, total/2)
	}
	if c.OptimizerInvocations != total/2 {
		t.Errorf("invocations = %d", c.OptimizerInvocations)
	}
	s := tm.Snapshot()
	if s.PredictLatency.Count != total || s.ExecuteLatency.Count != total {
		t.Errorf("hist counts = %d/%d, want %d", s.PredictLatency.Count, s.ExecuteLatency.Count, total)
	}
	if s.OptimizeLatency.Count != total/2 {
		t.Errorf("optimize hist count = %d", s.OptimizeLatency.Count)
	}
	if got := tm.Trace(); len(got) != traceRingSize {
		t.Errorf("trace length = %d, want %d", len(got), traceRingSize)
	}
	// Seq numbers are unique: the ring's records must be distinct values.
	seen := map[uint64]bool{}
	for _, rec := range tm.Trace() {
		if seen[rec.Seq] {
			t.Errorf("duplicate seq %d", rec.Seq)
		}
		seen[rec.Seq] = true
	}
}

func TestQuantileMonotone(t *testing.T) {
	var h Hist
	for i := 0; i < 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	prev := time.Duration(-1)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		cur := s.Quantile(q)
		if cur < prev {
			t.Fatalf("quantile not monotone: q=%f gives %v after %v", q, cur, prev)
		}
		prev = cur
	}
}
