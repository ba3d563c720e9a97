package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// The correction learner's constants.
const (
	// corrAlpha is the EWMA weight of a new log-q-error observation.
	corrAlpha = 0.25
	// corrClampMin and corrClampMax bound the published multiplicative
	// factor, so a burst of pathological observations cannot swing
	// estimates by more than a constant.
	corrClampMin, corrClampMax = 1.0 / 8, 8
	// corrMinObs is the cold-start passthrough: a site publishes the
	// identity factor until it has seen this many observations.
	corrMinObs = 3
)

// corrEpochLogDelta is the epoch threshold: when a site's smoothed
// log-q-error has moved this far from its value at the last epoch publish,
// the template's correction epoch advances (ln 1.25 — a 25% shift in the
// factor). The epoch is a gauge of how far the corrections have travelled;
// no estimate waits on it.
var corrEpochLogDelta = math.Log(1.25)

// corrSlots are the constants as a corrections section carries them, in
// its five configuration slots: Encode writes them, and DecodeCorrections
// refuses a section whose slots hold anything else.
var corrSlots = [5]float64{corrAlpha, corrClampMin, corrClampMax, corrMinObs, corrEpochLogDelta}

// Obs is one predicate-site cardinality observation on its way into the
// corrections: the signed log q-error of the base estimate at an executed
// parameter instantiation (LogQ(base, observed)).
type Obs struct {
	Site int
	LogQ float64
}

// siteState is one predicate site's learned correction.
type siteState struct {
	logc float64 // EWMA of log q-error
	n    uint64  // observations seen
	ref  float64 // logc at the last epoch publish (0 = identity)
}

// Corrections is one template's per-predicate-site correction state and its
// arithmetic. Reads (Factor/CorrectSel/Epoch/ActiveSites) are lock-free
// atomics. It takes no lock of its own: writes (Apply/Install/Adopt) and the
// reads of the whole state (State/Encode) are serialized by its owner — the
// template's learner lock (core.Online), which also logs what Apply changed.
type Corrections struct {
	sites []siteState
	// Apply scratch: per-site batch stamps and the touched list keep the
	// hot write path allocation-free.
	stamp    []uint64
	stampGen uint64
	touched  []int

	// factors publishes each site's clamped multiplicative factor as
	// Float64bits; the zero value decodes as the identity (cold start).
	factors []atomic.Uint64
	// epoch advances when any site's correction moves past the epoch
	// threshold: the learner.correction_epoch gauge.
	epoch atomic.Uint64
}

// NewCorrections creates correction state for a template with nSites
// predicate sites (sites are 1-based; site s lives at index s-1).
func NewCorrections(nSites int) *Corrections {
	if nSites < 0 {
		nSites = 0
	}
	return &Corrections{
		sites:   make([]siteState, nSites),
		stamp:   make([]uint64, nSites),
		touched: make([]int, 0, nSites),
		factors: make([]atomic.Uint64, nSites),
	}
}

// NSites returns the number of predicate sites.
func (c *Corrections) NSites() int { return len(c.factors) }

// Epoch returns the template's correction epoch (0 on a nil receiver: no
// corrections): how many batches have moved some site past the epoch
// threshold.
func (c *Corrections) Epoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

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

// publish computes and publishes site s's factor.
func (c *Corrections) publish(s int) {
	st := &c.sites[s]
	if st.n < corrMinObs {
		c.factors[s].Store(0) // cold-start passthrough
		return
	}
	f := min(max(math.Exp(st.logc), corrClampMin), corrClampMax)
	c.factors[s].Store(math.Float64bits(f))
}

// Apply folds a batch of observations, in order, into the EWMA state and
// publishes the touched sites' new factors; the next estimate of a site
// reads its new factor. The epoch anchor is checked once for the whole
// batch. It returns the touched sites in first-touch order — scratch, valid
// until the next Apply — whose post-batch state (Site) the owner logs.
func (c *Corrections) Apply(batch []Obs) (touched []int) {
	c.stampGen++
	c.touched = c.touched[:0]
	for _, ob := range batch {
		if ob.Site < 1 || ob.Site > len(c.sites) || !finite(ob.LogQ) {
			continue
		}
		st := &c.sites[ob.Site-1]
		st.n++
		if st.n == 1 {
			st.logc = ob.LogQ
		} else {
			st.logc = (1-corrAlpha)*st.logc + corrAlpha*ob.LogQ
		}
		if c.stamp[ob.Site-1] != c.stampGen {
			c.stamp[ob.Site-1] = c.stampGen
			c.touched = append(c.touched, ob.Site)
		}
	}
	// Epoch decision: any touched site whose smoothed correction moved past
	// the threshold (relative to its last published reference) bumps the
	// epoch once for the whole batch, and re-anchors its reference.
	epochBumped := false
	for _, site := range c.touched {
		st := &c.sites[site-1]
		if st.n >= corrMinObs && math.Abs(st.logc-st.ref) >= corrEpochLogDelta {
			st.ref = st.logc
			epochBumped = true
		}
		c.publish(site - 1)
	}
	if epochBumped {
		c.epoch.Add(1)
	}
	return c.touched
}

// Site returns a 1-based site's absolute learned state: what a correction
// record carries.
func (c *Corrections) Site(site int) SiteState {
	s := c.sites[site-1]
	return SiteState{LogC: s.logc, N: s.n, Ref: s.ref}
}

// Install sets a 1-based site's absolute learned state — a correction
// record read back from the WAL or a replication stream — and publishes its
// factor; the epoch only moves forward. Records carry absolute state, so
// installing them in sequence order reconstructs exactly the factors Apply
// published. A site beyond the template's shape, or state that is not
// finite (no Apply writes one), is refused.
func (c *Corrections) Install(site int, s SiteState, epoch uint64) bool {
	if site < 1 || site > len(c.sites) || !finite(s.LogC) || !finite(s.Ref) {
		return false
	}
	c.sites[site-1] = siteState{logc: s.LogC, n: s.N, ref: s.Ref}
	c.publish(site - 1)
	if epoch > c.epoch.Load() {
		c.epoch.Store(epoch)
	}
	return true
}

// finite reports whether v is neither NaN nor infinite: a site's EWMA and
// reference always are, since Apply folds in finite observations only.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// SiteState is the exported copy of one site's learned state.
type SiteState struct {
	LogC float64
	N    uint64
	Ref  float64
}

// State copies the full correction state (tests, parity checks). Callers
// serialize it with writes.
func (c *Corrections) State() (epoch uint64, sites []SiteState) {
	sites = make([]SiteState, len(c.sites))
	for i := range sites {
		sites[i] = c.Site(i + 1)
	}
	return c.epoch.Load(), sites
}

// ActiveSites counts sites past the cold-start threshold: the ones whose
// published factor is not the cold-start passthrough. Lock-free.
func (c *Corrections) ActiveSites() int {
	n := 0
	for i := range c.factors {
		if c.factors[i].Load() != 0 {
			n++
		}
	}
	return n
}

// Encode appends the correction state — site count, the learner's
// constants, epoch and every site's EWMA state — to dst: the body of the learner state's corrections section
// (core.Online.EncodeState).
func (c *Corrections) Encode(dst []byte) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(c.sites)))
	for _, v := range corrSlots {
		dst = le.AppendUint64(dst, math.Float64bits(v))
	}
	dst = le.AppendUint64(dst, c.epoch.Load())
	for _, s := range c.sites {
		dst = le.AppendUint64(le.AppendUint64(le.AppendUint64(dst, math.Float64bits(s.logc)), s.n), math.Float64bits(s.ref))
	}
	return dst
}

// DecodeCorrections decodes a section body written by Encode into freshly
// constructed state. A body with a byte more
// or less than its site count declares is an error, and so is one whose
// configuration slots differ from this learner's constants (its factors were
// learned by another rule) or whose site state is not finite: nothing from
// outside the process publishes a factor Apply could not have.
func DecodeCorrections(b []byte) (*Corrections, error) {
	const siteBytes, fixed = 24, 4 + 5*8 + 8
	le := binary.LittleEndian
	if len(b) < fixed || uint64(le.Uint32(b))*siteBytes != uint64(len(b)-fixed) {
		return nil, fmt.Errorf("stats: corrections section of %d bytes does not match its site count", len(b))
	}
	f64 := func(off int) float64 { return math.Float64frombits(le.Uint64(b[off:])) }
	for i, want := range corrSlots {
		if got := le.Uint64(b[4+8*i:]); got != math.Float64bits(want) {
			return nil, fmt.Errorf("stats: corrections section configuration slot %d holds %v, the learner's constant is %v", i, math.Float64frombits(got), want)
		}
	}
	c := NewCorrections(int(le.Uint32(b)))
	c.epoch.Store(le.Uint64(b[44:]))
	for i := range c.sites {
		off := fixed + siteBytes*i
		c.sites[i] = siteState{logc: f64(off), n: le.Uint64(b[off+8:]), ref: f64(off + 16)}
		if !finite(c.sites[i].logc) || !finite(c.sites[i].ref) {
			return nil, fmt.Errorf("stats: correction site %d holds non-finite state", i+1)
		}
		c.publish(i)
	}
	return c, nil
}

// Adopt replaces this state with a decoded one (nil resets to cold),
// requiring the same site count: a shape change between save and restore
// degrades the template to correction-cold via the returned error.
func (c *Corrections) Adopt(dec *Corrections) error {
	if dec == nil {
		for i := range c.sites {
			c.sites[i] = siteState{}
			c.factors[i].Store(0)
		}
		c.epoch.Store(0)
		return nil
	}
	if dec.NSites() != len(c.sites) {
		return fmt.Errorf("stats: restored corrections have %d sites, template has %d", dec.NSites(), len(c.sites))
	}
	copy(c.sites, dec.sites)
	for i := range c.sites {
		c.publish(i)
	}
	c.epoch.Store(dec.epoch.Load())
	return nil
}
