package plancache

import (
	"reflect"
	"testing"
)

// has reports presence without touching recency.
func has(c *Cache, planID int) bool {
	_, ok := c.Peek(planID)
	return ok
}

// order lists the cached plan ids as Each yields them: LRU first.
func order(c *Cache) []int {
	var ids []int
	c.Each(func(id int, _ any) { ids = append(ids, id) })
	return ids
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("expected error for capacity 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic")
		}
	}()
	MustNew(-1, nil)
}

func TestPutGetBasics(t *testing.T) {
	c := MustNew(2, nil)
	if ev := c.Put(1, "plan1"); ev != -1 {
		t.Errorf("eviction on first put: %d", ev)
	}
	c.Put(2, "plan2")
	if plan, ok := c.Peek(1); !ok || plan != "plan1" {
		t.Errorf("Peek(1) = %v, %v", plan, ok)
	}
	if _, ok := c.Peek(99); ok {
		t.Error("Peek(99) should miss")
	}
	if c.Len() != 2 || c.Capacity() != 2 {
		t.Errorf("Len=%d Cap=%d", c.Len(), c.Capacity())
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(2, nil)
	if c.Put(1, "a") != -1 || c.Put(2, "b") != -1 {
		t.Error("eviction below capacity")
	}
	c.Touch(1) // 2 becomes LRU
	if ev := c.Put(3, "c"); ev != 2 {
		t.Errorf("evicted %d, want 2", ev)
	}
	if has(c, 2) {
		t.Error("evicted plan still present")
	}
}

func TestPutRefreshDoesNotEvict(t *testing.T) {
	c := MustNew(2, nil)
	c.Put(1, "a")
	c.Put(2, "b")
	if ev := c.Put(1, "a2"); ev != -1 {
		t.Errorf("refresh evicted %d", ev)
	}
	if plan, _ := c.Peek(1); plan != "a2" {
		t.Error("refresh did not update plan")
	}
}

func TestPrecisionAwareEviction(t *testing.T) {
	// Plan 1 is recently used but error-prone (precision 0.1); plan 2 is
	// older but precise (precision 1.0). The precision-weighted policy
	// must evict plan 1 even though LRU would evict plan 2.
	prec := func(planID int) (float64, bool) {
		if planID == 1 {
			return 0.1, true
		}
		return 1.0, true
	}
	c := MustNew(2, prec)
	c.Put(2, "precise")
	c.Put(1, "sloppy") // most recent
	if ev := c.Put(3, "new"); ev != 1 {
		t.Errorf("evicted %d, want sloppy plan 1", ev)
	}
}

func TestUnknownPrecisionIsNeutral(t *testing.T) {
	prec := func(planID int) (float64, bool) { return 0, false }
	c := MustNew(2, prec)
	c.Put(1, "a")
	c.Put(2, "b")
	if ev := c.Put(3, "c"); ev != 1 {
		t.Errorf("evicted %d, want LRU victim 1", ev)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := MustNew(3, nil)
	evictions := 0
	for i := 0; i < 100; i++ {
		if c.Put(i, i) >= 0 {
			evictions++
		}
		if c.Len() > 3 {
			t.Fatalf("capacity exceeded at %d: %d", i, c.Len())
		}
	}
	if evictions != 97 {
		t.Errorf("%d evictions, want 97", evictions)
	}
}

func TestTouchSemantics(t *testing.T) {
	c := MustNew(2, nil)
	c.Put(1, "a")
	c.Put(2, "b")
	if !c.Touch(1) {
		t.Fatal("Touch(1) on a cached plan must succeed")
	}
	// 1 is now most recent: inserting 3 must evict 2, not 1.
	c.Put(3, "c")
	if !has(c, 1) || has(c, 2) {
		t.Errorf("after touch+insert: has(1)=%v has(2)=%v", has(c, 1), has(c, 2))
	}
	// Touching an absent plan is a no-op.
	before := order(c)
	if c.Touch(99) {
		t.Error("Touch of absent plan must report false")
	}
	if after := order(c); !reflect.DeepEqual(after, before) {
		t.Errorf("absent Touch changed the cache: %v -> %v", before, after)
	}
}

// TestEachAndPeekOrder pins what SaveState and LoadState rely on: Each
// walks from least to most recently used, Peek leaves that order alone, and
// replaying Each's sequence into an empty cache reproduces it.
func TestEachAndPeekOrder(t *testing.T) {
	c := MustNew(4, nil)
	for id := 1; id <= 4; id++ {
		c.Put(id, id*10)
	}
	c.Touch(2)
	c.Put(1, 11) // a refresh is a use
	c.Peek(3)
	want := []int{3, 4, 2, 1}
	if got := order(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("Each order = %v, want LRU→MRU %v", got, want)
	}
	if plan, _ := c.Peek(1); plan != 11 {
		t.Errorf("Peek(1) = %v, want the refreshed plan 11", plan)
	}
	replay := MustNew(4, nil)
	c.Each(func(id int, plan any) { replay.Put(id, plan) })
	if got := order(replay); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed order = %v, want %v", got, want)
	}
}
