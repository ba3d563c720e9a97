package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/wal"
)

// CorrConfig tunes one template's correction learner.
type CorrConfig struct {
	// Alpha is the EWMA weight of a new log-q-error observation.
	Alpha float64
	// ClampMin/ClampMax bound the published multiplicative factor, so a
	// burst of pathological observations cannot swing estimates by more
	// than a constant (default [1/8, 8]).
	ClampMin, ClampMax float64
	// MinObs is the cold-start passthrough: a site publishes the identity
	// factor until it has seen this many observations (default 3).
	MinObs uint64
	// EpochLogDelta is the invalidation threshold: when a site's smoothed
	// log-q-error has moved this far from its value at the last epoch
	// publish, the template's correction epoch advances and memo caches
	// re-derive (default ln(1.25) — a 25% shift in the factor).
	EpochLogDelta float64
}

func (c CorrConfig) withDefaults() CorrConfig {
	if c.Alpha == 0 {
		c.Alpha = 0.25
	}
	if c.ClampMin == 0 {
		c.ClampMin = 1.0 / 8
	}
	if c.ClampMax == 0 {
		c.ClampMax = 8
	}
	if c.MinObs == 0 {
		c.MinObs = 3
	}
	if c.EpochLogDelta == 0 {
		c.EpochLogDelta = math.Log(1.25)
	}
	return c
}

// Obs is one predicate-site cardinality observation on its way into the
// corrections: the signed log q-error of the base estimate at an executed
// parameter instantiation (LogQ(base, observed)).
type Obs struct {
	Site int
	LogQ float64
}

// siteState is one predicate site's learned correction, guarded by
// Corrections.mu.
type siteState struct {
	logc float64 // EWMA of log q-error
	n    uint64  // observations seen
	ref  float64 // logc at the last epoch publish (0 = identity)
}

// Corrections is one template's per-predicate-site correction state. Reads
// (Factor/CorrectSel/Epoch) are lock-free; writes (Apply/Replay/decode)
// serialize on an internal leaf mutex.
type Corrections struct {
	cfg CorrConfig

	mu    sync.Mutex
	sites []siteState
	// Apply scratch, guarded by mu: per-site batch stamps and the touched
	// list keep the hot write path allocation-free, and rec gives the
	// logger call a stable address so the record never escapes per site.
	stamp    []uint64
	stampGen uint64
	touched  []int
	rec      wal.Record

	// factors publishes each site's clamped multiplicative factor as
	// Float64bits; the zero value decodes as the identity (cold start).
	factors []atomic.Uint64
	// epoch advances when any site's correction moves past the
	// invalidation threshold; memo caches compare against it.
	epoch atomic.Uint64
	// appliedSeq is the WAL watermark of the newest correction record
	// reflected in the state (mirrors core.Online.appliedSeq for feedback).
	appliedSeq atomic.Uint64
}

// NewCorrections creates correction state for a template with nSites
// predicate sites (sites are 1-based; site s lives at index s-1).
func NewCorrections(nSites int, cfg CorrConfig) *Corrections {
	if nSites < 0 {
		nSites = 0
	}
	return &Corrections{
		cfg:     cfg.withDefaults(),
		sites:   make([]siteState, nSites),
		stamp:   make([]uint64, nSites),
		touched: make([]int, 0, nSites),
		factors: make([]atomic.Uint64, nSites),
	}
}

// NSites returns the number of predicate sites.
func (c *Corrections) NSites() int { return len(c.factors) }

// Epoch returns the template's correction epoch (0 on a nil receiver: no
// corrections).
func (c *Corrections) Epoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// AppliedSeq returns the WAL watermark of the newest correction reflected
// in the state.
func (c *Corrections) AppliedSeq() uint64 { return c.appliedSeq.Load() }

// Factor returns the published multiplicative factor for a 1-based site:
// lock-free, identity for unknown sites, cold sites and a nil receiver.
func (c *Corrections) Factor(site int) float64 {
	if c == nil || site < 1 || site > len(c.factors) {
		return 1
	}
	bits := c.factors[site-1].Load()
	if bits == 0 {
		return 1
	}
	return math.Float64frombits(bits)
}

// CorrectSel applies the site's factor to a base selectivity estimate,
// clamped back into [0, 1].
func (c *Corrections) CorrectSel(site int, sel float64) float64 {
	f := c.Factor(site)
	if f == 1 {
		return sel
	}
	return clamp01(sel * f)
}

// publishLocked computes and publishes site s's factor. Callers hold mu.
func (c *Corrections) publishLocked(s int) {
	st := &c.sites[s]
	if st.n < c.cfg.MinObs {
		c.factors[s].Store(0) // cold-start passthrough
		return
	}
	f := math.Exp(st.logc)
	if f < c.cfg.ClampMin {
		f = c.cfg.ClampMin
	}
	if f > c.cfg.ClampMax {
		f = c.cfg.ClampMax
	}
	c.factors[s].Store(math.Float64bits(f))
}

// Apply folds a batch of observations into the EWMA state, logs the
// post-update state of every touched site (log-before-publish, so a
// checkpoint's watermark never claims a record it does not contain), and
// publishes the new factors. It returns whether the template's correction
// epoch advanced — the signal that memo caches must re-derive. lg may be
// nil (no durability).
func (c *Corrections) Apply(batch []Obs, lg wal.Appender) (epochBumped bool) {
	if len(batch) == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stampGen++
	c.touched = c.touched[:0]
	for _, ob := range batch {
		if ob.Site < 1 || ob.Site > len(c.sites) || math.IsNaN(ob.LogQ) || math.IsInf(ob.LogQ, 0) {
			continue
		}
		st := &c.sites[ob.Site-1]
		st.n++
		if st.n == 1 {
			st.logc = ob.LogQ
		} else {
			st.logc = (1-c.cfg.Alpha)*st.logc + c.cfg.Alpha*ob.LogQ
		}
		if c.stamp[ob.Site-1] != c.stampGen {
			c.stamp[ob.Site-1] = c.stampGen
			c.touched = append(c.touched, ob.Site)
		}
	}
	if len(c.touched) == 0 {
		return false
	}
	// Epoch decision: any touched site whose smoothed correction moved past
	// the threshold (relative to its last published reference) bumps the
	// epoch once for the whole batch, and re-anchors its reference.
	for _, site := range c.touched {
		st := &c.sites[site-1]
		if st.n >= c.cfg.MinObs && math.Abs(st.logc-st.ref) >= c.cfg.EpochLogDelta {
			st.ref = st.logc
			epochBumped = true
		}
	}
	epoch := c.epoch.Load()
	if epochBumped {
		epoch++
	}
	// Log before publish: each touched site's absolute post-update state,
	// in batch order (deterministic, unlike a map walk). Append failures
	// degrade durability only — the factors publish anyway.
	if lg != nil {
		for _, site := range c.touched {
			st := &c.sites[site-1]
			c.rec = wal.Record{
				Kind: wal.RecordCorrection, CorrEpoch: epoch,
				Site: uint32(site), LogC: st.logc, N: st.n, Ref: st.ref,
			}
			if seq, err := lg.Append(&c.rec); err == nil && seq > 0 {
				c.appliedSeq.Store(seq)
			}
		}
	}
	for _, site := range c.touched {
		c.publishLocked(site - 1)
	}
	if epochBumped {
		c.epoch.Store(epoch)
	}
	return epochBumped
}

// Replay re-applies one correction record — the durable form of one site
// update that Apply logs: the post-update absolute EWMA state — read back
// from the WAL (crash recovery) or shipped over a replication stream.
// Idempotent via the applied-sequence watermark; records carry absolute
// state, so replay in sequence order reconstructs exactly the pre-crash
// factors. Records for sites beyond the template's shape are skipped (the
// template changed between crash and restart) but still advance the
// watermark.
func (c *Corrections) Replay(rec *wal.Record) (applied bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rec.Seq != 0 && rec.Seq <= c.appliedSeq.Load() {
		return false
	}
	if rec.Seq != 0 {
		c.appliedSeq.Store(rec.Seq)
	}
	if rec.Site < 1 || int(rec.Site) > len(c.sites) {
		return false
	}
	st := &c.sites[rec.Site-1]
	st.logc, st.n, st.ref = rec.LogC, rec.N, rec.Ref
	c.publishLocked(int(rec.Site) - 1)
	if rec.CorrEpoch > c.epoch.Load() {
		c.epoch.Store(rec.CorrEpoch)
	}
	return true
}

// SiteState is the exported copy of one site's learned state.
type SiteState struct {
	LogC float64
	N    uint64
	Ref  float64
}

// State copies the full correction state (tests, parity checks).
func (c *Corrections) State() (epoch, appliedSeq uint64, sites []SiteState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sites = make([]SiteState, len(c.sites))
	for i, s := range c.sites {
		sites[i] = SiteState{LogC: s.logc, N: s.n, Ref: s.ref}
	}
	return c.epoch.Load(), c.appliedSeq.Load(), sites
}

// ActiveSites counts sites past the cold-start threshold (publishing a
// non-identity-capable factor).
func (c *Corrections) ActiveSites() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.sites {
		if c.sites[i].n >= c.cfg.MinObs {
			n++
		}
	}
	return n
}

// Encode appends the correction state — site count, config, epoch, WAL
// watermark and every site's EWMA state — to dst: the body of the learner
// state's corrections section (core.Online.EncodeState).
func (c *Corrections) Encode(dst []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(c.sites)))
	for _, v := range [...]float64{c.cfg.Alpha, c.cfg.ClampMin, c.cfg.ClampMax, float64(c.cfg.MinObs), c.cfg.EpochLogDelta} {
		dst = le.AppendUint64(dst, math.Float64bits(v))
	}
	dst = le.AppendUint64(le.AppendUint64(dst, c.epoch.Load()), c.appliedSeq.Load())
	for _, s := range c.sites {
		dst = le.AppendUint64(le.AppendUint64(le.AppendUint64(dst, math.Float64bits(s.logc)), s.n), math.Float64bits(s.ref))
	}
	return dst
}

// DecodeCorrections decodes a section body written by Encode into freshly
// constructed state; a body with a byte more or less than its site count
// declares is an error.
func DecodeCorrections(b []byte) (*Corrections, error) {
	const siteBytes, fixed = 24, 4 + 5*8 + 2*8
	le := binary.LittleEndian
	if len(b) < fixed || uint64(le.Uint32(b))*siteBytes != uint64(len(b)-fixed) {
		return nil, fmt.Errorf("stats: corrections section of %d bytes does not match its site count", len(b))
	}
	f64 := func(off int) float64 { return math.Float64frombits(le.Uint64(b[off:])) }
	c := NewCorrections(int(le.Uint32(b)), CorrConfig{Alpha: f64(4), ClampMin: f64(12), ClampMax: f64(20),
		MinObs: uint64(f64(28)), EpochLogDelta: f64(36)})
	c.epoch.Store(le.Uint64(b[44:]))
	c.appliedSeq.Store(le.Uint64(b[52:]))
	for i := range c.sites {
		off := fixed + siteBytes*i
		c.sites[i] = siteState{logc: f64(off), n: le.Uint64(b[off+8:]), ref: f64(off + 16)}
		c.publishLocked(i)
	}
	return c, nil
}

// Adopt replaces this state with a decoded one (nil resets to cold),
// requiring the same site count: a shape change between save and restore
// degrades the template to correction-cold via the returned error.
func (c *Corrections) Adopt(dec *Corrections) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if dec == nil {
		for i := range c.sites {
			c.sites[i] = siteState{}
			c.factors[i].Store(0)
		}
		c.epoch.Store(0)
		c.appliedSeq.Store(0)
		return nil
	}
	if dec.NSites() != len(c.sites) {
		return fmt.Errorf("stats: restored corrections have %d sites, template has %d", dec.NSites(), len(c.sites))
	}
	c.cfg = dec.cfg
	copy(c.sites, dec.sites)
	for i := range c.sites {
		c.publishLocked(i)
	}
	c.epoch.Store(dec.epoch.Load())
	c.appliedSeq.Store(dec.appliedSeq.Load())
	return nil
}

// Adaptive layers per-template corrections over a base provider. The
// template map is copy-on-write: Corrections, Correct and Epoch are a
// lock-free map read plus atomics (the serving path keeps the *Corrections
// it resolved when it bound a plan and skips the map); Register is rare and
// serializes on a mutex.
type Adaptive struct {
	Provider
	cfg CorrConfig

	mu     sync.Mutex
	byTmpl atomic.Pointer[map[string]*Corrections]
}

// NewAdaptive layers correction state over base. The zero CorrConfig takes
// the package defaults.
func NewAdaptive(base Provider, cfg CorrConfig) *Adaptive {
	a := &Adaptive{Provider: base, cfg: cfg.withDefaults()}
	m := make(map[string]*Corrections)
	a.byTmpl.Store(&m)
	return a
}

// Register creates (or returns) the correction state for a template with
// nSites predicate sites.
func (a *Adaptive) Register(template string, nSites int) *Corrections {
	if c := a.Corrections(template); c != nil {
		return c
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	old := *a.byTmpl.Load()
	if c, ok := old[template]; ok {
		return c
	}
	c := NewCorrections(nSites, a.cfg)
	next := make(map[string]*Corrections, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[template] = c
	a.byTmpl.Store(&next)
	return c
}

// Drop removes a template's correction state (re-registration after a
// corrupt snapshot starts cold).
func (a *Adaptive) Drop(template string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	old := *a.byTmpl.Load()
	if _, ok := old[template]; !ok {
		return
	}
	next := make(map[string]*Corrections, len(old))
	for k, v := range old {
		if k != template {
			next[k] = v
		}
	}
	a.byTmpl.Store(&next)
}

// Corrections returns a template's correction state, nil when unregistered.
func (a *Adaptive) Corrections(template string) *Corrections {
	return (*a.byTmpl.Load())[template]
}

// Correct applies the template's learned factor for a predicate site.
func (a *Adaptive) Correct(template string, site int, sel float64) float64 {
	if template == "" {
		return sel
	}
	return a.Corrections(template).CorrectSel(site, sel)
}

// Epoch returns the template's correction epoch (0 when unregistered).
func (a *Adaptive) Epoch(template string) uint64 { return a.Corrections(template).Epoch() }
