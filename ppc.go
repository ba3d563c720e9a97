// Package ppc is the public facade of the parametric plan caching (PPC)
// reproduction: it wires the TPC-H-style database substrate, the cost-based
// optimizer, the bulk executor, the bounded plan cache, and one online
// density-based plan space learner per registered query template
// (ONLINE-APPROXIMATE-LSH-HISTOGRAMS, paper Sections IV-C/D/E) into a
// single System that applications drive with SQL templates and parameter
// values.
//
// Typical use:
//
//	sys, err := ppc.Open(ppc.Options{})
//	sys.Register("Q1", `SELECT s.s_suppkey, COUNT(*) FROM supplier s, lineitem l
//	                    WHERE l.l_suppkey = s.s_suppkey AND s.s_date <= ? AND l.l_partkey <= ?
//	                    GROUP BY s.s_suppkey`)
//	res, err := sys.Run("Q1", []float64{900, 1200})
//	// res.CacheHit tells whether optimization was bypassed;
//	// res.Result carries the executed rows.
//
// The workflow matches the paper's Figure 1: every instance is mapped to
// its plan space point (the selectivity vector of its parameterized
// predicates); the learner predicts a cached plan or defers to the
// optimizer; optimizer-validated points feed the histogram synopses; and
// sliding-window precision estimates drive cache eviction and drift
// recovery.
package ppc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/executor"
	"repro/internal/faults"
	"repro/internal/obsv"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/queries"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/wal"
)

// Options configures a System.
type Options struct {
	// TPCH configures the generated database; zero value uses
	// tpch.DefaultConfig().
	TPCH tpch.Config
	// CacheCapacity bounds the plan cache (default 64 plans).
	CacheCapacity int
	// Online configures the per-template learners. Core.Dims and
	// Core.OutDims must be left 0: each template's learner takes its
	// dimensionality from the template's parameter degree.
	Online core.OnlineConfig
	// Faults optionally injects deterministic faults into the optimizer,
	// executor, learner and snapshot writer (chaos testing). nil disables
	// injection.
	Faults *faults.Injector
	// FeedbackQueue bounds each template's feedback mailbox — the queue
	// between the lock-free serving path and the background apply goroutine
	// (default 256). A run that learned something — its learner step's
	// label, its attributed cardinality observations, or both — sends the
	// applier one message carrying all of it, unless the message holds
	// correction observations alone and the learner is free, when the run
	// folds them itself (counted as inline). When the mailbox is full, the
	// run applies its message synchronously on the serving goroutine
	// (counted as deferred; never dropped). Negative disables the
	// background applier entirely: every run applies its message inline, as
	// one apply batch, before it returns, restoring strictly deterministic
	// serial behaviour for experiments.
	FeedbackQueue int
	// Durability enables the write-ahead log and checkpoint layer when its
	// Dir is non-empty: Open recovers the latest checkpoint plus the WAL
	// tail, and every applied feedback point is logged before it enters the
	// synopsis. See the Durability type for the recovery contract.
	Durability Durability
	// disableAdaptiveStats attaches no corrections to the templates: the
	// optimizer estimates selectivities from the statistics provider alone,
	// with no per-site correction factors learned from executed
	// cardinalities. Corrections are always on outside this package's
	// tests; it is a test seam, like statsWrap: the control arms of the
	// adaptive-statistics tests set it, and so do tests whose costs must
	// depend on the values alone.
	disableAdaptiveStats bool
	// statsWrap, when non-nil, wraps the base statistics provider the
	// optimizer estimates through; the templates' corrections apply on top
	// of its answers. It is a test seam, settable only inside this package:
	// the adaptive-statistics tests inject base-estimate error through it
	// (stats.Distorted) and watch the corrections repair it, and the
	// binding tests count the columns a run resolves.
	statsWrap func(stats.Provider) stats.Provider
	// walSegmentBytes, when positive, rotates WAL segments past this size
	// in place of the log's 4 MiB. It is a test seam, like statsWrap: a
	// durability test rotates small segments to make compaction reach them.
	walSegmentBytes int64
}

// withDefaults fills the facade's defaults, or reports a field the facade
// would otherwise silently overwrite.
func (o Options) withDefaults() (Options, error) {
	if o.Online.Core.Dims != 0 {
		return o, fmt.Errorf("ppc: Options.Online.Core.Dims is %d; it must be 0 (each template sets its own)", o.Online.Core.Dims)
	}
	if o.Online.Core.OutDims != 0 {
		return o, fmt.Errorf("ppc: Options.Online.Core.OutDims is %d; it must be 0 (each template takes its default)", o.Online.Core.OutDims)
	}
	if o.TPCH.Scale == 0 {
		o.TPCH = tpch.DefaultConfig()
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 64
	}
	if o.Online.Core.Radius == 0 {
		o.Online.Core.Radius = 0.05
	}
	// A low random audit rate is on by default (Section IV-D), beside the
	// learner's own defaults: noise elimination and cost-based negative
	// feedback (Section IV-E).
	if o.Online.InvocationProb == 0 {
		o.Online.InvocationProb = 0.05
	}
	if o.FeedbackQueue == 0 {
		o.FeedbackQueue = defaultFeedbackQueue
	}
	return o, nil
}

// System is an open PPC-enabled database instance. Safe for concurrent use
// by multiple goroutines; queries proceed in parallel both across templates
// and against a single hot template — the learner decision is lock-free
// (an immutable model snapshot read through an atomic pointer), and learned
// feedback is applied by a per-template background goroutine.
//
// Lock hierarchy (see DESIGN.md "Concurrency architecture"; locks are
// always acquired top to bottom, never in reverse):
//
//	regMu  > drainMu > core.Online.mu > cacheMu > TemplateEstimator.mu
//
// regMu guards the template registry map; each template's drainMu is held
// by a drain of its feedback mailbox from taking a batch to applying it
// (its mailMu, guarding the queue itself, is a leaf); each core.Online.mu
// serializes that template's learner write path (feedback application,
// correction folds, WAL appends, snapshot publication, drift reset, state
// encode/decode) — the read path takes no lock at all; cacheMu guards the
// shared plan cache, the only index of compiled plans; the estimator is an
// internally synchronized leaf so cache eviction can score plans without
// any template lock. All health counters are atomics. The optimizer,
// executor, catalog and plan registry are read-only or internally
// synchronized and are used outside all facade locks.
type System struct {
	db   *tpch.Database
	cat  *catalog.Catalog
	opt  *optimizer.Optimizer
	exec *executor.Executor
	reg  *optimizer.Registry

	// regMu guards the templates map. Per-template state has its own lock.
	regMu     sync.RWMutex
	templates map[string]*templateState

	// cacheMu guards the shared plan cache, whose entries are the
	// *cachedPlan values — the one plan index: a plan the cache evicts is
	// gone from the serving path by construction. Peek and Each take the
	// read lock; Put and Touch move recency and take the write lock.
	cacheMu sync.RWMutex
	cache   *plancache.Cache

	// loadMu guards lastLoad.
	loadMu   sync.Mutex
	lastLoad *LoadReport

	// obs is the serving path's metrics registry (DESIGN.md §9: a lock-free
	// leaf — its atomic counters may be updated under any facade lock).
	// cacheObs caches the registry's shared-cache counters for the hot path.
	obs      *obsv.Registry
	cacheObs *obsv.CacheObs

	// Durability layer (nil/zero when Options.Durability.Dir is empty).
	// wal is the shared feedback log; walObs its metrics; walPending holds
	// recovered records (all kinds, interleaved in log order) for templates
	// the checkpoint did not contain, keyed by template name and guarded by
	// regMu (consumed at registration).
	wal        *wal.Log
	walObs     *obsv.WALObs
	walPending map[string][]wal.Record
	// checkpointStop/Done bracket the background checkpointer goroutine.
	checkpointStop chan struct{}
	checkpointDone chan struct{}
	checkpointOnce sync.Once

	// lineage is the leader lineage epoch (see ReplicationEpoch), fixed at
	// Open and carried by every checkpoint.
	lineage uint64

	opts Options
}

// cachedPlan is the plan cache's entry value: a physical plan under its
// dense registry id, paired with the template state that owns it. The owner
// pointer lets the eviction scorer and the foreign-plan guard resolve a
// plan's template without the registry lock.
//
// prog and rebind are the plan's compiled forms, so a cache hit does
// O(params) work instead of O(plan): prog executes the plan through the
// batched columnar engine, rebind re-costs it by binding parameter slots in
// place. Neither is ever nil: newCachedPlan is the only place a cachedPlan
// is made, and it fails rather than return a plan the serving path could
// not run. Register admits only templates whose plans all compile
// (optimizer.TypeError), so a failure there is an invariant violation.
type cachedPlan struct {
	id     int
	owner  *templateState
	plan   *optimizer.Plan
	prog   *executor.CompiledPlan
	rebind *optimizer.RebindProgram
}

// newCachedPlan compiles a plan of st's template into its cache entry.
func (s *System) newCachedPlan(st *templateState, id int, plan *optimizer.Plan) (*cachedPlan, error) {
	prog, err := s.exec.Compile(plan, st.tmpl.Query)
	if err != nil {
		return nil, err
	}
	rebind, err := s.opt.CompileRebind(st.tmpl.Query, plan)
	if err != nil {
		return nil, err
	}
	return &cachedPlan{id: id, owner: st, plan: plan, prog: prog, rebind: rebind}, nil
}

// applyBatchMax bounds how many queued runs' messages one apply batch
// absorbs before publishing a snapshot, bounding publish latency under a
// flood.
const applyBatchMax = 64

// defaultFeedbackQueue is the mailbox capacity when Options.FeedbackQueue
// is zero.
const defaultFeedbackQueue = 256

// templateState is one template's serving state. The learner decision runs
// lock-free on the published model snapshot, the health counters are
// atomics, and feedback flows through the bounded mailbox to the template's
// background apply goroutine. The sys, tmpl, obs, mailCap and channel fields
// are immutable after registration.
type templateState struct {
	sys  *System
	tmpl *optimizer.Template

	// memo is the template's optimization memo: the parameter-independent
	// part of plan enumeration, computed at registration and shared by
	// every optimizer invocation for this template (it is immutable apart
	// from its internal scratch pool, which is concurrency-safe). It reads
	// the template's corrections (tmpl.Query.Corr, nil when they are
	// disabled) at each invocation, so nothing in it goes stale.
	memo *optimizer.Memo

	online *core.Online

	// The feedback mailbox: mail queues the runs the applier has yet to
	// take, at most mailCap of them (0 in serial mode, where nothing queues
	// and no applier runs), and closed turns sends away once shutdown has
	// begun; mailMu, a leaf, guards both. wake holds a token while queued
	// runs wait for the applier, and applied closes when the applier has
	// exited. drainMu is held by a drain from the moment it takes a batch
	// off the mailbox until the batch is applied.
	mailMu  sync.Mutex
	mail    []*runBuf
	mailCap int
	closed  bool
	wake    chan struct{}
	applied chan struct{}
	drainMu sync.Mutex

	// obs is this template's metrics (immutable pointer, set before the
	// state is published; the counters themselves are atomics and need no
	// lock).
	obs *obsv.TemplateObs
}

// runBuf is what one run hands its template's learner: the learner step's
// label, when it produced one, and the scratch for the run's cardinality
// harvest — the raw per-operator observations and the site-attributed
// log-q-error samples distilled from them. Run takes one from the pool and
// sends it once; it returns to the pool only after the apply batch holding
// it is applied, so the label's point lives in the buffer and the whole
// exchange is allocation-free in steady state.
type runBuf struct {
	label []core.Feedback // none or one; label[0].Point is point
	point []float64
	cards []executor.CardObservation
	obs   []stats.Obs
}

var runBufPool = sync.Pool{New: func() any { return &runBuf{label: make([]core.Feedback, 0, 1)} }}

// keep files the run's label, its point copied into the buffer: the slice
// it was made at is the caller's (RunResult.Point) once Run returns.
func (b *runBuf) keep(fb core.Feedback) {
	b.point = append(b.point[:0], fb.Point...)
	fb.Point = b.point
	b.label = append(b.label[:0], fb)
}

func (b *runBuf) release() {
	b.label, b.cards, b.obs = b.label[:0], b.cards[:0], b.obs[:0]
	runBufPool.Put(b)
}

// send is a run's one message to its template's learner: it queues the
// run's label and observations for the background applier, or applies them
// on the calling goroutine, as a batch of their own, when the mailbox is
// full or closed (counted as deferred; in serial mode it is always full) —
// backpressure degrades latency, never durability: nothing the learner
// should see is silently dropped. A run that learned nothing sends nothing.
//
// A message with no label holds correction observations alone: a few
// hundred ns of EWMA work, against the microsecond a send costs to wake a
// parked applier. The run folds those itself (counted as inline) when the
// template keeps no log and its learner lock is free (core's TryObserve);
// otherwise they take the mailbox like any message. Labelled messages
// always do, since their model publish is the expensive part, and serial
// mode applies every message as a batch of its own, as before.
func (st *templateState) send(buf *runBuf) {
	if len(buf.label) == 0 && len(buf.obs) == 0 {
		buf.release()
		return
	}
	if st.mailCap > 0 && len(buf.label) == 0 && st.online.TryObserve(buf.obs) {
		st.obs.CountFeedbackInline()
		buf.release()
		return
	}
	st.mailMu.Lock()
	queued := !st.closed && len(st.mail) < st.mailCap
	if queued {
		st.mail = append(st.mail, buf)
		select {
		case st.wake <- struct{}{}:
		default: // a token is already waiting: its drain will take this run too
		}
	}
	st.mailMu.Unlock()
	if queued {
		st.obs.CountFeedbackEnqueued()
		return
	}
	st.obs.CountFeedbackDeferred()
	st.learn(buf.label, buf.obs)
	buf.release()
}

// learn hands the learner points and observations in one call — one lock
// hold, at most one model publication, one WAL group commit — and counts it.
func (st *templateState) learn(points []core.Feedback, obs []stats.Obs) {
	if len(points) == 0 && len(obs) == 0 {
		return
	}
	t0 := time.Now()
	st.online.ApplyBatch(points, obs)
	st.obs.RecordApply(time.Since(t0))
}

// applyBatch is one apply batch under assembly: the runs taken off the
// mailbox (their labels' points live in their buffers until the batch is
// applied) and their labels and observations, each in mailbox order, as
// the learner takes them in one call. The applier reuses one across
// batches, so draining allocates nothing in steady state.
type applyBatch struct {
	runs   []*runBuf
	points []core.Feedback
	obs    []stats.Obs
}

// applyLoop is the template's background learner: it drains the mailbox
// for every wake token and exits once shutdown closes wake.
func (st *templateState) applyLoop() {
	defer close(st.applied)
	b := &applyBatch{runs: make([]*runBuf, 0, applyBatchMax)}
	for range st.wake {
		st.drain(b)
	}
}

// drain applies every run queued when it takes drainMu, in mailbox order,
// in batches of at most applyBatchMax runs; a batch also takes runs queued
// since, up to that bound. It is the one code that takes runs off the
// mailbox: the applier calls it for each wake token, and flush calls it on
// the caller's goroutine. Holding drainMu from take to apply means a drain
// begins only after any batch another drain has taken is in the learner.
func (st *templateState) drain(b *applyBatch) {
	st.drainMu.Lock()
	defer st.drainMu.Unlock()
	st.mailMu.Lock()
	for left := len(st.mail); left > 0; {
		n := min(len(st.mail), applyBatchMax)
		b.runs = append(b.runs[:0], st.mail[:n]...)
		st.mail = st.mail[:copy(st.mail, st.mail[n:])]
		st.mailMu.Unlock()
		left -= n
		for _, r := range b.runs {
			b.points = append(b.points, r.label...)
			b.obs = append(b.obs, r.obs...)
		}
		st.learn(b.points, b.obs)
		for _, r := range b.runs {
			r.release()
		}
		b.runs, b.points, b.obs = b.runs[:0], b.points[:0], b.obs[:0]
		st.mailMu.Lock()
	}
	st.mailMu.Unlock()
}

// flush returns once every run's message queued before the call has been
// applied to the synopsis, linearizing the caller with the background
// applier. Readers of learned state (stats, metrics, SaveState) flush first
// so they observe a model equivalent to all acknowledged feedback. Safe in
// serial mode and during and after shutdown: the queue is empty then, or
// the drain empties it.
func (st *templateState) flush() {
	st.drain(&applyBatch{})
}

// shutdown stops the background applier after it has drained the mailbox.
// Closing wake under mailMu, beside closed, means no run queues after the
// close: later sends apply synchronously. Idempotent.
func (st *templateState) shutdown() {
	st.mailMu.Lock()
	if !st.closed {
		st.closed = true
		close(st.wake)
	}
	st.mailMu.Unlock()
	<-st.applied
}

// Open generates the database, builds statistics, and initializes the
// optimizer, executor and plan cache.
func Open(opts Options) (*System, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	db, err := tpch.Generate(opts.TPCH)
	if err != nil {
		return nil, err
	}
	cat, err := catalog.Build(db, 0)
	if err != nil {
		return nil, err
	}
	s := &System{
		db:        db,
		cat:       cat,
		opt:       optimizer.New(db, cat),
		exec:      executor.New(db),
		reg:       optimizer.NewRegistry(),
		templates: make(map[string]*templateState),
		obs:       obsv.NewRegistry(),
		opts:      opts,
	}
	s.cacheObs = s.obs.Cache()
	s.opt.SetFaults(opts.Faults)
	s.exec.SetFaults(opts.Faults)
	// The optimizer's statistics: catalog histograms under a test's
	// wrapper, if any. Installed before any template registers, so every
	// memo is built through the final provider.
	var provider stats.Provider = stats.NewBase(cat)
	if opts.statsWrap != nil {
		provider = opts.statsWrap(provider)
	}
	s.opt.SetStats(provider)
	cache, err := plancache.New(opts.CacheCapacity, s.planPrecision)
	if err != nil {
		return nil, err
	}
	s.cache = cache
	if opts.Durability.Dir != "" {
		if err := s.openDurable(); err != nil {
			// Recovery may have registered templates before it failed;
			// stop their appliers.
			for _, st := range s.statesByName() {
				st.shutdown()
			}
			if s.wal != nil {
				// The final fsync's verdict matters even on the failure
				// path: join it so a dirty close is not reported as clean.
				err = errors.Join(err, s.wal.Close())
			}
			return nil, err
		}
	}
	return s, nil
}

// DB exposes the generated database (read-only use).
func (s *System) DB() *tpch.Database { return s.db }

// Catalog exposes the statistics catalog.
func (s *System) Catalog() *catalog.Catalog { return s.cat }

// Optimizer exposes the cost-based optimizer.
func (s *System) Optimizer() *optimizer.Optimizer { return s.opt }

// Registry exposes the plan fingerprint registry.
func (s *System) Registry() *optimizer.Registry { return s.reg }

// Register parses a SQL template and attaches an online learner to it.
// Internal panics are recovered into a typed *InternalError.
func (s *System) Register(name, sql string) (err error) {
	defer capturePanic("ppc.Register", &err)
	s.regMu.Lock()
	defer s.regMu.Unlock()
	return s.registerLocked(name, sql)
}

// registerLocked implements Register; callers hold s.regMu.
func (s *System) registerLocked(name, sql string) error {
	if name == "" || len(name) > wal.MaxTemplateName {
		return fmt.Errorf("ppc: template name of %d bytes, want 1 to %d", len(name), wal.MaxTemplateName)
	}
	if _, dup := s.templates[name]; dup {
		return fmt.Errorf("ppc: template %s already registered", name)
	}
	q, err := sqlparse.Parse(sql, queries.Schema)
	if err != nil {
		return err
	}
	tmpl, err := optimizer.NewTemplate(name, sql, q)
	if err != nil {
		return err
	}
	cfg := s.opts.Online
	cfg.Core.Dims = tmpl.Degree()
	// No driver-level environment: every Run steps the learner against
	// itself (see run).
	online, err := core.NewOnline(cfg, nil)
	if err != nil {
		return err
	}
	online.SetFaults(s.opts.Faults)
	st := &templateState{
		sys: s, tmpl: tmpl, online: online,
		mailCap: max(s.opts.FeedbackQueue, 0),
		wake:    make(chan struct{}, 1),
		applied: make(chan struct{}),
		obs:     s.obs.Template(name),
	}
	if !s.opts.disableAdaptiveStats {
		// One correction site per WHERE predicate (1-based, as stamped by
		// NewTemplate), owned by the template's query so every estimate of
		// it reads them. Attached to the learner before any state decode so
		// checkpoint restores flow into it.
		tmpl.Query.Corr = stats.NewCorrections(len(tmpl.Query.Preds))
		online.AttachCorrections(tmpl.Query.Corr)
	}
	if s.wal != nil {
		online.AttachLog(&walSink{log: s.wal, template: name})
	}
	if st.memo, err = s.opt.NewMemo(tmpl.Query); err != nil {
		return fmt.Errorf("ppc: register %s: %w", name, err)
	}
	st.mail = make([]*runBuf, 0, st.mailCap)
	if st.mailCap > 0 {
		go st.applyLoop()
	} else {
		close(st.applied) // serial mode: there is no applier to wait for
	}
	s.templates[name] = st
	// Replay any WAL records recovered for this template before the
	// checkpoint knew it (or because the checkpoint was corrupt) — the
	// template serves warm from its first Run.
	if s.wal != nil {
		s.replayPendingLocked(name, st)
	}
	return nil
}

// Close stops every template's background apply goroutine after draining
// its mailbox, then — when durability is enabled — stops the background
// checkpointer, takes a final checkpoint and closes the WAL, so a restart
// replays nothing. The System stays usable for in-memory serving
// (subsequent Runs apply feedback synchronously, without logging) and
// Close is idempotent.
func (s *System) Close() error {
	s.stopCheckpointer()
	for _, st := range s.statesByName() {
		st.shutdown()
	}
	return s.closeDurable()
}

// RegisterStandard registers the paper's Q0–Q8 templates. Templates that
// already exist are left alone rather than treated as errors, so it is safe
// to call after crash recovery restored some (or all) of them from a
// checkpoint — the idiom every durable restart uses.
func (s *System) RegisterStandard() error {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	for _, d := range queries.Defs {
		if _, dup := s.templates[d.Name]; dup {
			continue
		}
		if err := s.registerLocked(d.Name, d.SQL); err != nil {
			return err
		}
	}
	return nil
}

// lookup resolves a template name to its state under the registry lock.
func (s *System) lookup(template string) (*templateState, error) {
	s.regMu.RLock()
	st := s.templates[template]
	s.regMu.RUnlock()
	if st == nil {
		return nil, fmt.Errorf("ppc: template %s not registered", template)
	}
	return st, nil
}

// Template returns a registered template.
func (s *System) Template(name string) (*optimizer.Template, error) {
	st, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return st.tmpl, nil
}

// statesByName returns the registered templates' states in name order: the
// registry snapshot every whole-system walk (names, metrics, snapshots,
// shutdown) starts from, taken under the registry lock and used outside it.
func (s *System) statesByName() []*templateState {
	s.regMu.RLock()
	states := make([]*templateState, 0, len(s.templates))
	for _, st := range s.templates {
		states = append(states, st)
	}
	s.regMu.RUnlock()
	sort.Slice(states, func(i, j int) bool { return states[i].tmpl.Name < states[j].tmpl.Name })
	return states
}

// TemplateNames returns the registered template names, sorted.
func (s *System) TemplateNames() []string {
	states := s.statesByName()
	names := make([]string, len(states))
	for i, st := range states {
		names[i] = st.tmpl.Name
	}
	return names
}

// RunResult reports one query execution through the PPC pipeline: the
// run's facts (its trace record carries the same value), the instance and
// the executed rows.
type RunResult struct {
	obsv.Facts
	// Values identifies the instance; Point is its plan space point
	// (predicate selectivities).
	Values []float64
	Point  []float64
	// Result holds the executed rows.
	Result *executor.Result
}

// Run pushes one query instance through the full PPC workflow of Figure 1.
//
// Run is fault-hardened: internal panics are recovered into a typed
// *InternalError, a failed learner step falls back to invoking the
// optimizer directly for that run (the answer is then the same one a system
// without a plan cache would produce), and pipeline-stage
// failures surface as typed *PipelineError values. A Run therefore either
// succeeds with a correct result or returns a typed error — a misbehaving
// learner alone can never fail a query.
//
// Concurrency: the learner decision is lock-free — it predicts on the
// template's published model snapshot and queues feedback to a background
// applier — so runs proceed in parallel both across templates and against
// one hot template. Instantiation, optimization, plan rebinding and
// execution happen outside all facade locks; the shared cache is touched
// only briefly under its own lock.
func (s *System) Run(template string, values []float64) (res *RunResult, err error) {
	defer capturePanic("ppc.Run", &err)
	st, err := s.lookup(template)
	if err != nil {
		return nil, err
	}
	// Count typed-error returns for the metrics registry. (Recovered panics
	// are not counted: capturePanic assigns err after this defer has run.)
	defer func() {
		if err != nil {
			st.obs.CountRunError()
		}
	}()
	// Bind: the instance and its plan space point.
	inst, err := st.tmpl.Instantiate(values)
	if err != nil {
		return nil, err
	}
	point, err := s.opt.SelectivityPoint(inst)
	if err != nil {
		return nil, err
	}
	res = &RunResult{Facts: obsv.Facts{Template: template}, Values: values, Point: point}
	r := &run{st: st, res: res, buf: runBufPool.Get().(*runBuf)}
	err = r.serve()
	// Learn: one message to the learner carries what the run learned — the
	// step's label and the execution's observations — sent also when the
	// run failed after its learner step, so a validated label is never lost.
	st.send(r.buf)
	if err != nil {
		return nil, err
	}
	s.observeRun(st, res)
	return res, nil
}

// serve takes a bound run through decide, resolve and execute, filing what
// it learns in the run's buffer.
func (r *run) serve() error {
	// Decide: the learner picks a cached plan or asks for the optimizer;
	// if its step failed, the optimizer is invoked directly.
	if r.decide() {
		if err := r.degrade(); err != nil {
			return err
		}
	}
	// Resolve: the compiled plan to execute, costed at this instance.
	if err := r.resolve(); err != nil {
		return err
	}
	// Execute: the plan runs, and its cardinalities are harvested.
	return r.execute()
}

// execute runs the compiled plan — batched columnar execution over pooled
// arenas — while harvesting its per-operator observed cardinalities into
// the run's buffer: for the estimation q-error histogram always, and for
// the correction learner when the template has corrections. It attributes
// each unambiguous one to its template predicate site, records the
// estimation q-errors, and files the attributed log-q-error samples in the
// buffer for the run's message to the learner. The serving-goroutine cost
// is O(plan nodes) — vector-length reads plus a few histogram probes for
// the base estimates, through the column handles the plan's rebind program
// bound when it was compiled; the EWMA updates and WAL appends run on the
// applier.
func (r *run) execute() error {
	st, entry, values, buf := r.st, r.entry, r.res.Values, r.buf
	t0 := time.Now()
	out, err := entry.prog.ExecObserve(values, &buf.cards)
	if err != nil {
		return &PipelineError{Stage: "execute", Template: r.res.Template, Err: err}
	}
	for i := range buf.cards {
		c := &buf.cards[i]
		so, ok := entry.rebind.AttributeCard(c.Node, values, c.Rows, c.LeftRows, c.RightRows, c.Lo, c.Hi)
		if !ok {
			continue
		}
		// The exported q-error histogram tracks the estimate the optimizer
		// actually serves — base estimate times the learned factor — so it
		// converges toward 1 as corrections absorb the base estimator's bias
		// (and measures the raw base error when corrections are off).
		// The learner itself always consumes the base-estimate error: the
		// factor corrects the base, so feeding it corrected errors would make
		// the EWMA chase its own output.
		corr := st.tmpl.Query.Corr
		st.obs.RecordQError(stats.QError(corr.CorrectSel(so.Site, so.Est), so.Obs))
		if corr != nil {
			buf.obs = append(buf.obs, stats.Obs{Site: so.Site, LogQ: stats.LogQ(so.Est, so.Obs)})
		}
	}
	r.res.ExecuteTime = time.Since(t0)
	r.res.Result = out
	return nil
}

// observeRun feeds one completed run into the metrics registry and the
// template's trace ring. It runs after the run has finished, outside all
// locks; the record is built on the stack and copied, so the observability
// layer adds no allocations to the serving path.
func (s *System) observeRun(st *templateState, res *RunResult) {
	rec := obsv.TraceRecord{Facts: res.Facts, Executed: res.Result != nil}
	rec.SetValues(res.Values)
	rec.SetPoint(res.Point)
	st.obs.Observe(&rec)
}

// run is one bound query instance on its way through Run: the template
// state, the result under construction (which carries the caller's values
// and the plan space point), the cache entry the run has resolved so far
// and the buffer of what it learned. It is also the core.Environment the
// learner steps against, so the learner's optimizer call and its cost
// observation work at the run's own values — the point→values inverse
// (Optimizer.InstanceAt) belongs to workload generation, not to serving —
// and whatever entry and cost they produce is what the run goes on to
// execute and report, not a second lookup and a second recost. One value per Run, never shared: concurrent
// runs on one template cannot cross-contaminate each other's accounting.
type run struct {
	st  *templateState
	res *RunResult
	// entry is the plan the run will execute (nil until Optimize,
	// ExecuteCost or resolve finds one); res.EstimatedCost is its cost at
	// res.Values.
	entry *cachedPlan
	// buf holds the learner step's label and the execution's observations
	// until Run sends them.
	buf *runBuf
}

// Optimize implements core.Environment: the optimizer's choice for this
// run's instance (x is the run's own point).
func (r *run) Optimize([]float64) (int, float64, error) {
	if err := r.optimize(); err != nil {
		return 0, 0, err
	}
	return r.entry.id, r.res.EstimatedCost, nil
}

// ExecuteCost implements core.Environment: the execution cost of a given
// (possibly stale) plan at this run's instance, by binding the cached
// plan's parameter slots and re-costing in place — no tree copy.
func (r *run) ExecuteCost(_ []float64, planID int) (float64, error) {
	entry := r.st.sys.cachedPlanOf(r.st, planID)
	if entry == nil {
		// Plan fell out of the cache, or belongs to another template (a
		// garbled prediction that happens to resolve, which must never
		// execute here); behave like a severe cost surprise so the learner
		// re-optimizes.
		return 0, nil
	}
	cost, err := entry.rebind.Recost(r.st.sys.opt, r.res.Values)
	if err != nil {
		return 0, err
	}
	r.entry, r.res.EstimatedCost = entry, cost
	return cost, nil
}

// optimize is the one place a run invokes the optimizer, outside all
// locks: through the template's memo, at the run's own values, then intern
// (and, first time, compile) the winner. The learner's invocation, a
// degraded run and a cache-miss fallback all land here, so the label a run
// feeds the synopsis is always the plan a system without a plan cache would
// produce. The optimizer names its winner before building it: when the
// cache holds that plan for this template, the run keeps the cached entry
// (made most recent again, as internPlan would) and no tree is built; on
// first sight, or after an eviction, the winner is built and interned.
func (r *run) optimize() error {
	s, st := r.st.sys, r.st
	t0 := time.Now()
	var entry *cachedPlan
	plan, err := s.opt.OptimizeMemoHeld(st.memo, r.res.Values, func(fp string) bool {
		entry = s.cachedPlanOf(st, s.reg.ID(fp))
		return entry != nil
	})
	if err != nil {
		return &PipelineError{Stage: "optimize", Template: r.res.Template, Err: err}
	}
	if plan.Root == nil {
		s.cachePlan(entry)
	} else if entry, err = s.internPlan(st, plan); err != nil {
		return err
	}
	r.res.OptimizeTime += time.Since(t0)
	r.res.Invoked = true
	r.res.CacheHit = false
	// The optimizer costs the plan at these values already.
	r.entry, r.res.EstimatedCost = entry, plan.Cost
	return nil
}

// decide runs the learner protocol — lock-free on the template's published
// model snapshot — and reports whether its step failed, in which case the
// run falls back to invoking the optimizer directly. A step fails only when
// its environment does (in practice, the optimizer call it made), so the
// error is absorbed here and the next run steps the learner as usual.
func (r *run) decide() (failed bool) {
	st, res := r.st, r.res
	t0 := time.Now()
	decision, lerr := st.online.StepConcurrent(res.Point, r)
	// The step's latency splits into predict and optimize components: the
	// optimizer work it triggered was timed by optimize.
	res.PredictTime = time.Since(t0) - res.OptimizeTime
	if res.PredictTime < 0 {
		res.PredictTime = 0
	}
	if decision.Label.Point != nil {
		r.buf.keep(decision.Label)
	}
	if lerr != nil {
		// The failed step did not corrupt the learner's state. Its time
		// stays in the run's accounting (PredictTime above; optimizer work
		// timed inside the step stays in OptimizeTime, which degrade
		// extends).
		return true
	}
	res.Verdict = decision.Verdict
	return false
}

// degrade serves a run whose learner step failed by invoking the optimizer
// directly: the same plan (and answer) a system without a plan cache would
// produce. The run's label is the validated point, sent like a healthy
// run's.
func (r *run) degrade() error {
	st, res := r.st, r.res
	res.Degraded = true
	if err := r.optimize(); err != nil {
		return err
	}
	// A point always has its learner's dimensionality: the learner is sized
	// to the template's degree at Register, and every restore refuses a
	// state of another (TestRestoredLearnersKeepTheirDegree). A mismatch is
	// an invariant violation, reported like a failed compile.
	fb, err := st.online.ValidatedFeedback(res.Point, r.entry.id, res.EstimatedCost)
	if err != nil {
		return &PipelineError{Stage: "learn", Template: res.Template, Err: err}
	}
	r.buf.keep(fb)
	return nil
}

// resolve settles the compiled plan to execute. Normally decide (or
// degrade) already did the work: the learner's own optimizer call or cost
// observation left the entry and its cost at this instance on the run, so
// a hit pays one index lookup and one recost in total, and resolve only
// refreshes the plan's recency. When nothing was left — the predicted plan
// was evicted or belongs to another template and the cost check had no
// estimate to catch it against — it is a cache miss despite a possibly
// correct prediction: optimize afresh.
func (r *run) resolve() error {
	s := r.st.sys
	if r.entry == nil {
		if err := r.optimize(); err != nil {
			return err
		}
		// No recency refresh: internPlan just Put the plan, which made it
		// the cache's most recent entry.
		s.cacheObs.CountMiss()
	} else {
		// Touch leaves an id a concurrent insertion has just evicted alone;
		// the run still holds the entry and executes it.
		s.cacheMu.Lock()
		s.cache.Touch(r.entry.id)
		s.cacheMu.Unlock()
		s.cacheObs.CountHit()
	}
	r.res.PlanID = r.entry.id
	r.res.Fingerprint = r.entry.plan.Fingerprint
	return nil
}

// cachedPlanOf returns st's cache entry under the given plan id, or nil when
// the cache does not hold the id or holds it for another template. It does
// not touch recency.
func (s *System) cachedPlanOf(st *templateState, id int) *cachedPlan {
	s.cacheMu.RLock()
	v, _ := s.cache.Peek(id)
	s.cacheMu.RUnlock()
	if entry, _ := v.(*cachedPlan); entry != nil && entry.owner == st {
		return entry
	}
	return nil
}

// internPlan registers a fresh plan in the registry and the cache, and
// returns its cache entry (which carries the dense id). The registry is
// internally synchronized. When the insertion evicts another plan, its
// compiled forms go with the cache slot — learners still referencing the
// id simply miss, and Run re-optimizes if the plan is predicted again.
//
// An id already cached for this template keeps its existing entry (the
// trees are fingerprint-identical), so re-interning a plan on every audit
// or degraded run never recompiles it. Fresh entries are compiled outside
// cacheMu; a plan that does not compile is not interned and surfaces as a
// *PipelineError at stage "compile".
func (s *System) internPlan(st *templateState, plan *optimizer.Plan) (*cachedPlan, error) {
	id := s.reg.ID(plan.Fingerprint)
	entry := s.cachedPlanOf(st, id)
	if entry == nil {
		var err error
		if entry, err = s.newCachedPlan(st, id, plan); err != nil {
			return nil, &PipelineError{Stage: "compile", Template: st.tmpl.Name, Err: err}
		}
	}
	s.cachePlan(entry)
	return entry, nil
}

// cachePlan makes the entry the cache's most recent, evicting within the
// cache's bound. Every insertion — a fresh optimization, a restored
// snapshot — goes through here.
func (s *System) cachePlan(entry *cachedPlan) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	s.cacheObs.CountPut()
	if s.cache.Put(entry.id, entry) >= 0 {
		s.cacheObs.CountEviction()
	}
}

// CacheLen returns the number of plans currently cached.
func (s *System) CacheLen() int {
	s.cacheMu.RLock()
	defer s.cacheMu.RUnlock()
	return s.cache.Len()
}

// CacheEvictions returns the number of evictions performed so far.
func (s *System) CacheEvictions() int {
	return int(s.cacheObs.Snapshot().Evictions)
}

// planPrecision adapts the per-plan sliding-window precision estimates to
// the cache eviction policy. It is invoked by the cache's eviction scan,
// i.e. with cacheMu already held; it follows the plan's owner pointer and
// queries only the internally synchronized estimator, so it never needs the
// registry or a template lock (which would invert the lock hierarchy).
func (s *System) planPrecision(planID int) (float64, bool) {
	v, ok := s.cache.Peek(planID)
	if !ok {
		return 0, false
	}
	return v.(*cachedPlan).owner.online.Estimator().PlanPrecision(planID)
}
