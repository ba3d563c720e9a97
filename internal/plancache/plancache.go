// Package plancache implements the bounded query plan cache the PPC
// framework feeds (Figure 1): cached physical plans keyed by plan
// identifier, with an eviction policy that combines recency with the
// per-plan precision estimations of Section IV-E ("performance of the
// clustering algorithm is monitored to help decide which plans to evict
// from a full cache").
//
// Eviction score: plans are evicted in ascending order of
// precision × recency-rank, so a recently used, precisely predicted plan
// survives a stale or error-prone one.
package plancache

import (
	"container/list"
	"fmt"
)

// entry is one cached plan: the dense plan identifier from the optimizer
// registry and the plan itself (opaque to the cache).
type entry struct {
	id   int
	plan any
}

// PrecisionFunc reports the estimated precision of predictions of a plan
// (from metrics.TemplateEstimator.PlanPrecision); ok=false means unknown.
type PrecisionFunc func(planID int) (prec float64, ok bool)

// Cache is a bounded plan cache. Not safe for concurrent use.
type Cache struct {
	capacity  int
	entries   map[int]*list.Element // planID -> element in lru
	lru       *list.List            // front = most recently used
	precision PrecisionFunc
}

// New creates a cache holding at most capacity plans. precision may be nil,
// in which case eviction is pure LRU.
func New(capacity int, precision PrecisionFunc) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("plancache: capacity must be positive, got %d", capacity)
	}
	return &Cache{
		capacity:  capacity,
		entries:   make(map[int]*list.Element),
		lru:       list.New(),
		precision: precision,
	}, nil
}

// MustNew is like New but panics on error.
func MustNew(capacity int, precision PrecisionFunc) *Cache {
	c, err := New(capacity, precision)
	if err != nil {
		panic(err)
	}
	return c
}

// Peek returns the cached plan without touching its recency.
func (c *Cache) Peek(planID int) (any, bool) {
	el, ok := c.entries[planID]
	if !ok {
		return nil, false
	}
	return el.Value.(*entry).plan, true
}

// Touch refreshes a plan's recency if it is cached, and reports whether it
// was. Touching an absent plan — e.g. one a concurrent insertion evicted
// moments ago — is a no-op.
func (c *Cache) Touch(planID int) bool {
	el, ok := c.entries[planID]
	if !ok {
		return false
	}
	c.lru.MoveToFront(el)
	return true
}

// Put inserts (or refreshes) a plan, evicting if necessary. It returns the
// evicted plan identifier, or -1.
func (c *Cache) Put(planID int, plan any) int {
	if el, ok := c.entries[planID]; ok {
		el.Value.(*entry).plan = plan
		c.lru.MoveToFront(el)
		return -1
	}
	evicted := -1
	if c.lru.Len() >= c.capacity {
		evicted = c.evict()
	}
	c.entries[planID] = c.lru.PushFront(&entry{id: planID, plan: plan})
	return evicted
}

// evict removes the entry with the lowest precision-weighted recency score
// and returns its plan identifier.
func (c *Cache) evict() int {
	// Recency rank: 0 for the least recently used, increasing toward the
	// front. Score = (rank+1) · precision; lowest score evicted. Unknown
	// precision counts as neutral (1.0), reducing to LRU.
	type scored struct {
		el    *list.Element
		score float64
	}
	var worst *scored
	rank := 0
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		prec := 1.0
		if c.precision != nil {
			if p, ok := c.precision(e.id); ok {
				prec = p
			}
		}
		s := float64(rank+1) * (prec + 1e-9)
		if worst == nil || s < worst.score {
			worst = &scored{el: el, score: s}
		}
		rank++
	}
	e := worst.el.Value.(*entry)
	c.lru.Remove(worst.el)
	delete(c.entries, e.id)
	return e.id
}

// Each visits every cached plan from least to most recently used — the
// order in which re-inserting them into an empty cache reproduces this
// one's recency. visit must not modify the cache.
func (c *Cache) Each(visit func(planID int, plan any)) {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		visit(e.id, e.plan)
	}
}

// Len returns the number of cached plans.
func (c *Cache) Len() int { return c.lru.Len() }

// Capacity returns the configured bound.
func (c *Cache) Capacity() int { return c.capacity }
