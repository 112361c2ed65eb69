// Package engine executes relational algebra queries over a catalog of
// pc-tables and caches the compiled artifacts.
//
// A query is *prepared* once: parsed, validated against a catalog snapshot,
// run through the closed algebra (Theorems 4 and 9) to obtain the answer
// pc-table, and its candidate answer tuples and lineage conditions are
// extracted. The prepared plan is cached under a key derived from the query
// text, the marginal engine, and the exact versions of the catalog tables
// the query reads — so replacing one table invalidates exactly the plans
// that depend on it, while plans over other tables keep hitting. The cache
// is LRU-bounded and publishes hit/miss/eviction/latency counters.
//
// Execution computes tuple marginals with one of three engines — dtree
// (d-tree decomposition, internal/probcalc), enum (brute-force valuation
// enumeration) or mc (Monte-Carlo estimation) — under a bounded worker
// pool. Exact marginals are computed once per plan and memoized; Monte-Carlo
// re-samples per request (deterministically for a fixed seed).
package engine

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uncertaindb/internal/catalog"
	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/obs"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
	"uncertaindb/internal/wal"
)

// Typed execution errors. Callers classify failures with errors.Is — the
// HTTP layer maps ErrUnknownTable to 404 and ErrBadQuery to 400 — instead of
// matching opaque error strings.
var (
	// ErrUnknownTable reports a query referencing a table absent from the
	// catalog snapshot it executed against.
	ErrUnknownTable = errors.New("engine: unknown table")
	// ErrBadQuery reports a request that can never succeed against any
	// catalog: unparsable query text, an ill-formed algebra expression, an
	// unknown marginal engine, or a table without the distributions
	// marginals need.
	ErrBadQuery = errors.New("engine: bad query")
)

// Kind selects how tuple marginals are computed.
type Kind string

const (
	// KindDTree decomposes lineage conditions (internal/probcalc). Default.
	KindDTree Kind = "dtree"
	// KindCircuit compiles the whole answer's lineage set into one shared
	// arithmetic circuit (probcalc.CompileAnswer) and evaluates every
	// marginal in a single bottom-up pass. The circuit is retained on the
	// cached plan, so what-if re-evaluation skips decomposition entirely.
	KindCircuit Kind = "circuit"
	// KindEnum enumerates every valuation of the lineage variables.
	KindEnum Kind = "enum"
	// KindMC estimates marginals by Monte-Carlo sampling.
	KindMC Kind = "mc"
	// KindAuto picks dtree, circuit or mc per answer from the lineage-set
	// statistics gathered at plan compilation (see Selection).
	KindAuto Kind = "auto"
)

// ParseKind parses an engine name; the empty string selects KindDTree.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "":
		return KindDTree, nil
	case string(KindDTree), string(KindCircuit), string(KindEnum), string(KindMC), string(KindAuto):
		return Kind(s), nil
	default:
		return "", fmt.Errorf("%w: unknown engine %q (valid engines: auto, circuit, dtree, enum, mc)", ErrBadQuery, s)
	}
}

// CertainEps is the tolerance under which a float marginal counts as 1 and
// the tuple is reported as a certain answer.
const CertainEps = 1e-9

// Options tunes an Engine.
type Options struct {
	// CacheSize bounds the number of cached prepared plans (LRU eviction).
	// Zero or negative selects 128.
	CacheSize int
	// Workers bounds the number of concurrently executing queries and the
	// morsel-driven parallelism inside each plan compilation (the batch
	// engine splits base-table scans into morsels and runs operator
	// pipelines on a pool of this size). Zero or negative selects
	// GOMAXPROCS.
	Workers int
	// Obs, when non-nil, turns on observability: every Execute records a
	// span tree (snapshot, parse, compile with per-pipeline children,
	// marginals), query latencies land in cold/warm histograms, the
	// engine's counters are exported through Obs.Reg, and executions at or
	// above Obs.SlowThreshold are captured in the slow-query ring. Nil (the
	// default) makes every instrumentation point a no-op.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.CacheSize <= 0 {
		o.CacheSize = 128
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Stats is a point-in-time snapshot of the engine's counters.
type Stats struct {
	// Cache counters.
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`     // LRU-bound evictions
	Invalidations uint64 `json:"invalidations"` // plans dropped because a table they read was replaced
	Entries       int    `json:"entries"`
	CacheSize     int    `json:"cacheSize"`
	// Execution counters.
	Executions uint64 `json:"executions"`
	Errors     uint64 `json:"errors"`
	// Cumulative latencies (nanoseconds): preparation (parse + closed
	// algebra + candidate discovery, cache misses only) and execution
	// (marginal computation).
	PrepareNanos uint64 `json:"prepareNanos"`
	ExecNanos    uint64 `json:"execNanos"`
	Workers      int    `json:"workers"`
	// Ops aggregates the physical-operator counters — rows in/out of the
	// counting operators, hash-bucket probes, residual-bucket hits, and how
	// many joins compiled to the symbolic hash join vs the nested-loop
	// fallback — over every plan compilation since startup (cache hits
	// reuse the compiled answer and add nothing).
	Ops exec.OpStats `json:"ops"`
	// Probcalc aggregates the probability-engine counters across every
	// execution. The per-evaluator probcalc.Stats would otherwise be lost
	// when an evaluator is dropped with its plan; these totals make the
	// cross-query memo hit-ratio (and circuit sharing) observable.
	Probcalc ProbcalcStats `json:"probcalc"`
	// Auto counts what the engine=auto selector chose, per target engine.
	Auto AutoStats `json:"auto"`
	// Maintenance counts incremental view maintenance work: patches applied,
	// plans maintained in place vs recompiles forced (by fallback reason),
	// and memoized marginals reused vs refreshed.
	Maintenance MaintenanceStats `json:"maintenance"`
}

// ProbcalcStats aggregates decomposition-memo and circuit-compilation
// counters over every marginal computation since startup.
type ProbcalcStats struct {
	// MemoHits/MemoMisses total the d-tree decomposition memo across all
	// evaluators the engine has run (fresh computations only; memoized plan
	// marginals add nothing).
	MemoHits   uint64 `json:"memoHits"`
	MemoMisses uint64 `json:"memoMisses"`
	// MemoHitRatio is MemoHits / (MemoHits + MemoMisses), 0 when idle.
	MemoHitRatio float64 `json:"memoHitRatio"`
	// CircuitCompiles counts shared-circuit compilations; CircuitNodes and
	// CircuitShared total their DAG sizes and compile-time memo hits
	// (subcircuits reused across answer tuples via hash-consed IDs).
	CircuitCompiles uint64 `json:"circuitCompiles"`
	CircuitNodes    uint64 `json:"circuitNodes"`
	CircuitShared   uint64 `json:"circuitShared"`
}

// AutoStats counts engine=auto selector decisions by chosen engine.
type AutoStats struct {
	DTree   uint64 `json:"dtree"`
	Circuit uint64 `json:"circuit"`
	MC      uint64 `json:"mc"`
}

// Request is one query execution.
type Request struct {
	// Query is the relational algebra query text (parser.ParseQuery syntax).
	Query string
	// Engine selects the marginal engine; empty means dtree.
	Engine string
	// Samples is the Monte-Carlo sample count (mc only; default 10000).
	Samples int
	// Seed is the Monte-Carlo random seed (mc only; default 1).
	Seed int64
	// Workers shards the Monte-Carlo draw (mc only; default 1, sequential).
	Workers int
	// Analyze re-executes the compiled algebra with per-operator
	// instrumentation and attaches the timed plan tree (and the execution's
	// span tree) to the Result — EXPLAIN ANALYZE. The instrumented run is
	// separate from the cached artifact, so analyzing never perturbs the
	// answer or the cache.
	Analyze bool
	// Distributions overrides variable distributions for this execution
	// only — the what-if query. Keys are variable names; values map value
	// literals (parser syntax: integer, 'string', true/false) to
	// probabilities, which must form a distribution over a subset of the
	// variable's declared support. What-if marginals are computed fresh per
	// request and never cached; with the circuit engine the cached circuit
	// is re-weighted without re-decomposing.
	Distributions map[string]map[string]float64
}

// TupleAnswer is one answer tuple with its marginal probability.
type TupleAnswer struct {
	Tuple value.Tuple
	P     float64
	// StdErr is the standard error of a Monte-Carlo estimate (0 for exact
	// engines).
	StdErr float64
	// Certain reports whether the tuple is a certain answer: marginal 1
	// within CertainEps for the exact engines; for Monte-Carlo, only a
	// lineage that simplified to the constant true (an estimate of 1 is not
	// proof).
	Certain bool
}

// Selection is the engine=auto selector's decision for one plan, together
// with the lineage-set statistics that drove it. It is computed once at plan
// compilation and reported in results, /v1/stats and EXPLAIN ANALYZE spans.
type Selection struct {
	// Tuples is the number of candidate answer tuples.
	Tuples int `json:"tuples"`
	// Vars is the number of distinct variables across all lineages.
	Vars int `json:"vars"`
	// SharingDegree is Σᵢ |vars(lineageᵢ)| / Vars: 1 means tuples share no
	// variables; higher means cross-tuple sharing a circuit can exploit.
	SharingDegree float64 `json:"sharingDegree"`
	// MaxComponentVars is the variable count of the largest
	// variable-connected component within any single lineage — the biggest
	// exact subproblem one marginal poses. Variables shared across DIFFERENT
	// tuples' lineages don't couple: each marginal is computed on its own.
	MaxComponentVars int `json:"maxComponentVars"`
	// Chosen is the engine the selector picked; Reason says why.
	Chosen Kind   `json:"chosen"`
	Reason string `json:"reason"`
}

// Result is the outcome of executing a Request.
type Result struct {
	Query string
	Kind  Kind
	// Effective is the engine that actually computed the marginals: equal
	// to Kind except for auto, where it is the selector's choice.
	Effective Kind
	// Selection is the auto-selector's inputs and decision (Kind auto only).
	Selection *Selection
	// WhatIf reports the marginals were computed under request-supplied
	// distribution overrides (Request.Distributions) and bypassed the
	// memoized plan marginals.
	WhatIf         bool
	CatalogVersion uint64
	// Tables are the catalog tables the query read, sorted.
	Tables []string
	// CacheHit reports whether the prepared plan came from the cache.
	CacheHit bool
	// Answer is the rendered answer pc-table (conditions are lineage).
	Answer string
	// Plan is the rendered physical operator tree the query compiled to
	// (hash joins with their keys, scans, breakers); cached with the plan.
	Plan string
	// Tuples are the possible answer tuples with marginals, sorted by tuple
	// key; deterministic for a fixed catalog version and request.
	Tuples []TupleAnswer
	// PrepareDuration is the plan-compilation time (0 on a cache hit);
	// ExecDuration is the marginal-computation time of this request.
	PrepareDuration time.Duration
	ExecDuration    time.Duration
	// Analyzed is the per-operator timed plan tree (Request.Analyze only).
	Analyzed *exec.PlanNode
	// Trace is the exported span tree of this execution (Request.Analyze
	// with Options.Obs configured only; slow executions are additionally
	// captured in the observer's slow-query ring).
	Trace *obs.SpanExport
}

// plan is a compiled query: the closed-algebra answer and the candidate
// answers, plus memoized exact marginals. Immutable after construction
// except for the once-guarded marginal fields.
type plan struct {
	key       string
	queryText string
	kind      Kind
	tables    []string // sorted referenced table names

	// query is the parsed algebra and tableVers the per-table catalog
	// versions the plan was compiled (or last maintained) against; together
	// they let a patch derive the plan's next cache key and delta plan
	// without re-parsing or string surgery on the key.
	query     ra.Query
	tableVers map[string]uint64

	answer     *pctable.PCTable
	physical   string // rendered physical operator tree (exec.Explain)
	ops        exec.OpStats
	candidates []pctable.Candidate
	sel        Selection // lineage-set statistics + auto-selector decision

	// Render state, built when the answer is rendered (renderAnswer): the
	// text, the byte offset at which each row's line starts (plus the end of
	// the last), and per-variable row refcounts, so a maintained plan splices
	// its answer in O(delta). groupIndex is the top projection's group index
	// keyed by canonical term identity, built on the first patch. Successors
	// copy-then-extend these; a plan's own maps and slices are never mutated,
	// so concurrent maintainers reading the same predecessor stay safe.
	rendered   string
	rowOff     []int32 // an answer's text stays far below 2 GiB
	varRefs    map[condition.Variable]int
	groupIndex map[string]int

	// Exact marginals (dtree/enum/circuit) are computed once on first
	// execution and shared by every later hit. margDone is set (after the
	// once completes successfully) so incremental maintenance knows the
	// memoized marginals exist and may be carried forward.
	once      sync.Once
	margDone  atomic.Bool
	marginals []TupleAnswer
	probStats probcalc.Stats // d-tree decomposition shape (dtree only)
	execErr   error

	// The shared circuit is compiled once per plan (first circuit execution
	// or what-if) and retained, so re-evaluation under overridden
	// distributions never re-decomposes.
	circuitOnce sync.Once
	circuit     *probcalc.Circuit
	circuitErr  error
}

// Engine is the concurrent query service core: a catalog plus a bounded
// LRU cache of prepared plans and a bounded execution pool. Safe for
// concurrent use.
type Engine struct {
	cat      *catalog.Catalog
	opts     Options
	sem      chan struct{}
	execPool *exec.WorkerPool // shared morsel-worker budget across executions

	mu      sync.Mutex
	lru     *list.List // of *plan; front = most recently used
	byKey   map[string]*list.Element
	byTable map[string]map[string]bool // table name -> cache keys reading it

	hits, misses, evictions, invalidations   uint64
	executions, errors, prepNanos, execNanos atomic.Uint64

	opMu     sync.Mutex
	opTotals exec.OpStats // physical-operator counters over all compilations

	// Probability-engine totals (fed on fresh computations; memoized plan
	// marginals add nothing) and auto-selector decision counters.
	memoHits, memoMisses                        atomic.Uint64
	circuitCompiles, circuitNodes, circuitShare atomic.Uint64
	autoDTree, autoCircuit, autoMC              atomic.Uint64

	// Incremental view maintenance counters (see MaintenanceStats).
	mnt maintCounters

	// Observability (all nil-safe no-ops when Options.Obs is unset).
	obs                      *obs.Observer
	coldSeconds, warmSeconds *obs.Histogram
	applySeconds             *obs.Histogram // delta-apply latency per patch
}

// New builds an engine over the given catalog.
func New(cat *catalog.Catalog, opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{
		cat:      cat,
		opts:     opts,
		sem:      make(chan struct{}, opts.Workers),
		execPool: exec.NewWorkerPool(opts.Workers),
		lru:      list.New(),
		byKey:    make(map[string]*list.Element),
		byTable:  make(map[string]map[string]bool),
		obs:      opts.Obs,
	}
	if opts.Obs != nil {
		e.instrument(opts.Obs)
	}
	return e
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// PutTable registers (or replaces) a catalog table and invalidates every
// cached plan that reads it.
func (e *Engine) PutTable(name string, t *pctable.PCTable) (uint64, error) {
	v, err := e.cat.Put(name, t)
	if err != nil {
		return 0, err
	}
	e.invalidateReplaced(name)
	return v, nil
}

// PatchTable applies a row-level patch to a catalog table and incrementally
// maintains every cached plan that reads it: instead of dropping dependent
// plans (the PutTable path), each plan's materialized answer is updated by
// delta propagation or re-evaluation and re-keyed under the new table
// version, so the very next execution is a cache hit. Plans whose shape the
// maintainer cannot handle fall back to invalidation with a typed reason
// (see MaintenanceStats).
func (e *Engine) PatchTable(name string, p *wal.Patch) (uint64, error) {
	if e.cat.Snapshot().Get(name) == nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	v, ap, err := e.cat.ApplyPatch(name, p)
	if err != nil {
		return 0, err
	}
	e.maintainTable(name, v, ap)
	return v, nil
}

// PutParsed is PutTable for a table parsed by internal/parser.
func (e *Engine) PutParsed(pt *parser.ParsedTable) (uint64, error) {
	return e.PutTable(pt.Name, pt.PCTable)
}

// LoadCatalogScript loads a multi-table catalog script into the catalog,
// invalidating plans that read any (re)defined table.
func (e *Engine) LoadCatalogScript(r io.Reader) ([]string, error) {
	names, err := e.cat.LoadScript(r)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		e.invalidateReplaced(name)
	}
	return names, nil
}

// DropTable removes a catalog table and invalidates dependent plans. The
// error is non-nil only when the catalog's durability sink refused the
// mutation (the drop did not happen and nothing was invalidated).
func (e *Engine) DropTable(name string) (bool, error) {
	ok, err := e.cat.Drop(name)
	if ok {
		e.invalidateReplaced(name)
	}
	return ok, err
}

// ApplyChange applies one replicated mutation record (catalog.ApplyRecord)
// — the follower-side twin of PutTable/DropTable/PatchTable. Put and delete
// records invalidate every cached plan reading the affected table; patch
// records run the same incremental maintenance the leader ran, so a follower's
// cache tracks row-level mutations without recompiles. Because the applied
// entry keeps the leader's per-table version, plans compiled or maintained
// after the apply carry exactly the leader's cache keys.
func (e *Engine) ApplyChange(rec *wal.Record) error {
	ap, err := e.cat.ApplyRecordEx(rec)
	if err != nil {
		return err
	}
	if rec.Kind == wal.KindPatch && ap != nil {
		e.maintainTable(rec.Name, rec.Version, ap)
		return nil
	}
	e.invalidateReplaced(rec.Name)
	return nil
}

// ResetCatalog replaces the catalog's content with the given state
// (catalog.ResetToState — the follower resync path) and purges the entire
// plan cache: after a resync the set of versions that changed is unknown, so
// every compiled plan is suspect.
func (e *Engine) ResetCatalog(st *wal.State) {
	e.cat.ResetToState(st)
	e.mu.Lock()
	for e.lru.Len() > 0 {
		e.removeLocked(e.lru.Front(), &e.invalidations)
	}
	e.mu.Unlock()
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{
		Hits:          e.hits,
		Misses:        e.misses,
		Evictions:     e.evictions,
		Invalidations: e.invalidations,
		Entries:       e.lru.Len(),
		CacheSize:     e.opts.CacheSize,
	}
	e.mu.Unlock()
	s.Executions = e.executions.Load()
	s.Errors = e.errors.Load()
	s.PrepareNanos = e.prepNanos.Load()
	s.ExecNanos = e.execNanos.Load()
	s.Workers = e.opts.Workers
	e.opMu.Lock()
	s.Ops = e.opTotals
	e.opMu.Unlock()
	s.Probcalc = ProbcalcStats{
		MemoHits:        e.memoHits.Load(),
		MemoMisses:      e.memoMisses.Load(),
		CircuitCompiles: e.circuitCompiles.Load(),
		CircuitNodes:    e.circuitNodes.Load(),
		CircuitShared:   e.circuitShare.Load(),
	}
	if total := s.Probcalc.MemoHits + s.Probcalc.MemoMisses; total > 0 {
		s.Probcalc.MemoHitRatio = float64(s.Probcalc.MemoHits) / float64(total)
	}
	s.Auto = AutoStats{
		DTree:   e.autoDTree.Load(),
		Circuit: e.autoCircuit.Load(),
		MC:      e.autoMC.Load(),
	}
	s.Maintenance = e.mnt.snapshot()
	return s
}

// phases is the per-execution observability state: the boundary clock
// readings of the warm path's fixed phases plus a lazily materialized trace.
// A cache-hit execution has a statically known span shape — snapshot, parse,
// marginals under the root — so nothing is recorded while it runs: the warm
// path's entire observability cost is two extra clock readings and one
// histogram observation, and the span tree is reconstructed from the saved
// readings only if the query turns out slow or analyzed. The cold path
// materializes the trace at compile start, where the operator core needs a
// live span to hang rewrite/batch/pipeline children under.
type phases struct {
	obs     *obs.Observer
	t0, t1  int64 // obs.Nanotime readings: root start; snapshot end = parse start
	hasSnap bool  // whether a snapshot phase was timed (false for batch items)
	tr      *obs.Trace
	root    obs.SpanRef
}

// materialize builds the trace (idempotent) and backfills the snapshot and
// parse spans from the saved boundary readings, ending parse at parseEnd.
// Returns the root span — a no-op ref with observability off.
func (ph *phases) materialize(parseEnd int64) obs.SpanRef {
	if ph.tr != nil || ph.obs == nil {
		return ph.root
	}
	ph.tr = ph.obs.StartTraceAt("query", ph.t0)
	ph.root = ph.tr.Root()
	if ph.hasSnap {
		sp := ph.root.ChildAt("snapshot", ph.t0)
		sp.EndAt(ph.t1)
	}
	sp := ph.root.ChildAt("parse", ph.t1)
	sp.EndAt(parseEnd)
	return ph.root
}

// dtreeAttrs attaches the d-tree decomposition shape to a marginals span.
func dtreeAttrs(sp obs.SpanRef, st probcalc.Stats) {
	sp.SetInt("dtreeNodes", int64(st.ComponentSplits+st.ExclusiveSplits+st.ShannonExpansions+st.Enumerations))
	sp.SetInt("memoHits", int64(st.MemoHits))
	sp.SetInt("memoMisses", int64(st.MemoMisses))
	sp.SetInt("memoEntries", int64(st.MemoEntries))
}

// marginalAttrs describes a marginal computation on its span: the effective
// engine, the auto-selector's inputs and decision, and — for freshly
// computed exact marginals — the decomposition or circuit shape.
func marginalAttrs(sp obs.SpanRef, chosen Kind, sel *Selection, computed bool, p *plan) {
	sp.SetStr("engine", string(chosen))
	if sel != nil {
		sp.SetInt("selTuples", int64(sel.Tuples))
		sp.SetInt("selVars", int64(sel.Vars))
		sp.SetInt("selSharingPct", int64(sel.SharingDegree*100))
		sp.SetInt("selMaxComponentVars", int64(sel.MaxComponentVars))
		sp.SetStr("selReason", sel.Reason)
	}
	if !computed {
		return
	}
	switch chosen {
	case KindDTree:
		dtreeAttrs(sp, p.probStats)
	case KindCircuit:
		if p.circuit != nil {
			st := p.circuit.Stats()
			sp.SetInt("circuitNodes", int64(st.Nodes))
			sp.SetInt("circuitRoots", int64(st.Roots))
			sp.SetInt("circuitShared", int64(st.SharedHits))
		}
	}
}

// Execute runs one request: prepare (or fetch) the plan, then compute the
// marginals with the requested engine under the bounded worker pool.
//
// With Options.Obs set, the execution is described by a span tree rooted at
// "query": a "snapshot" child for catalog snapshot acquisition, "parse"
// (query text to validated algebra, including cache lookup and pool
// admission), on a cache miss "compile" (with rewrite/build/pipeline children
// from the operator core), "marginals" (d-tree decomposition shape as
// attributes), and for analyze requests "analyze". Warm (cache-hit)
// executions never record spans while running — see phases — so the warm
// path pays only two extra clock readings and a histogram observation.
func (e *Engine) Execute(req Request) (*Result, error) {
	ph := phases{obs: e.obs}
	if e.obs != nil {
		ph.t0 = obs.Nanotime()
	}
	snap := e.cat.Snapshot()
	if e.obs != nil {
		ph.t1 = obs.Nanotime()
		ph.hasSnap = true
	}
	res, err := e.executeOn(snap, req, &ph)
	if err != nil {
		e.errors.Add(1)
		return nil, err
	}
	return res, nil
}

// BatchItem is one outcome of ExecuteBatch: a result or a per-query error.
type BatchItem struct {
	Result *Result
	Err    error
}

// ExecuteBatch runs every request against a single catalog snapshot, so the
// whole batch sees one consistent version (returned alongside the items,
// even when every query fails) and snapshotting is paid once instead of per
// request. Items execute concurrently under the engine's bounded worker
// pool; results come back in request order. Failures are reported per item:
// one bad query does not abort its neighbours.
func (e *Engine) ExecuteBatch(reqs []Request) ([]BatchItem, uint64) {
	snap := e.cat.Snapshot()
	out := make([]BatchItem, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			// Batch items share one snapshot, so their traces have no
			// "snapshot" child; parse starts at the root.
			ph := phases{obs: e.obs}
			if e.obs != nil {
				ph.t0 = obs.Nanotime()
				ph.t1 = ph.t0
			}
			res, err := e.executeOn(snap, req, &ph)
			if err != nil {
				e.errors.Add(1)
			}
			out[i] = BatchItem{Result: res, Err: err}
		}(i, req)
	}
	wg.Wait()
	return out, snap.Version()
}

func (e *Engine) executeOn(snap *catalog.Snapshot, req Request, ph *phases) (*Result, error) {
	defer func() { e.obs.FinishTrace(ph.tr) }()
	kind, err := ParseKind(req.Engine)
	if err != nil {
		return nil, err
	}

	// Bounded execution pool: at most opts.Workers queries in flight at
	// once. The slot covers both plan compilation (the expensive cold path)
	// and marginal computation.
	e.sem <- struct{}{}
	defer func() { <-e.sem }()

	p, hit, prepDur, err := e.prepare(snap, req.Query, kind, ph)
	if err != nil {
		return nil, err
	}

	// Resolve auto to a concrete engine from the plan's lineage statistics
	// (computed once at compilation, so warm hits pay nothing here).
	chosen := kind
	var sel *Selection
	if kind == KindAuto {
		sel = &p.sel
		chosen = p.sel.Chosen
		switch chosen {
		case KindCircuit:
			e.autoCircuit.Add(1)
		case KindMC:
			e.autoMC.Add(1)
		default:
			e.autoDTree.Add(1)
		}
	}
	override, err := overrideTable(p, req.Distributions)
	if err != nil {
		return nil, err
	}

	start := obs.Nanotime()
	var margSpan obs.SpanRef
	if ph.tr != nil {
		// Cold path: the trace was materialized at compile start, so the
		// marginals phase records live and its d-tree attributes can attach.
		margSpan = ph.root.ChildAt("marginals", start)
	}
	var tuples []TupleAnswer
	computed := false
	switch {
	case override != nil:
		// What-if: fresh marginals under the overridden distributions,
		// never memoized on the plan (the override is per-request state).
		tuples, err = e.whatIfMarginals(p, chosen, override, req)
		if err != nil {
			return nil, err
		}
	case chosen == KindDTree || chosen == KindEnum || chosen == KindCircuit:
		p.once.Do(func() {
			if chosen == KindCircuit {
				p.marginals, p.execErr = e.circuitMarginals(p, nil)
			} else {
				p.marginals, p.probStats, p.execErr = exactMarginals(p, chosen)
				if p.execErr == nil {
					e.memoHits.Add(uint64(p.probStats.MemoHits))
					e.memoMisses.Add(uint64(p.probStats.MemoMisses))
				}
			}
			if p.execErr == nil {
				p.margDone.Store(true)
			}
			computed = true
		})
		if p.execErr != nil {
			return nil, p.execErr
		}
		tuples = p.marginals
	case chosen == KindMC:
		tuples, err = sampledMarginals(p, p.answer, req)
		if err != nil {
			return nil, err
		}
	}
	end := obs.Nanotime()
	execDur := time.Duration(end - start)
	margSpan.EndDur(execDur)
	// Effective engine, selector decision and — for fresh exact runs — the
	// decomposition/circuit shape; warm hits reuse the memoized marginals
	// and attach only the engine and selection.
	marginalAttrs(margSpan, chosen, sel, computed, p)
	e.executions.Add(1)
	e.execNanos.Add(uint64(execDur))

	res := &Result{
		Query:     p.queryText,
		Kind:      kind,
		Effective: chosen,
		WhatIf:    override != nil,
		// Stamp the execution snapshot's version, not the prepare-time one a
		// cached plan carries: the answer is valid at the version the
		// execution read, and replicas at equal versions must stamp equal
		// versions regardless of cache history (the router's freshness
		// enforcement depends on it).
		CatalogVersion:  snap.Version(),
		Tables:          p.tables,
		CacheHit:        hit,
		Answer:          p.rendered,
		Plan:            p.physical,
		Tuples:          tuples,
		PrepareDuration: prepDur,
		ExecDuration:    execDur,
	}
	if sel != nil {
		selCopy := *sel
		res.Selection = &selCopy
	}

	if ph.obs == nil {
		if req.Analyze {
			res.Analyzed, err = e.analyzePlan(snap, p)
			if err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	total := time.Duration(end - ph.t0)
	if hit {
		e.warmSeconds.Observe(total)
	} else {
		e.coldSeconds.Observe(total)
	}
	slow := e.obs.SlowThreshold > 0 && total >= e.obs.SlowThreshold
	if (req.Analyze || slow) && ph.tr == nil {
		// A warm execution that turned out slow or analyzed: reconstruct its
		// span tree from the boundary readings saved on the fast path.
		root := ph.materialize(start)
		ms := root.ChildAt("marginals", start)
		ms.EndDur(execDur)
		marginalAttrs(ms, chosen, sel, computed, p)
	}
	if req.Analyze {
		aspan := ph.root.Child("analyze")
		res.Analyzed, err = e.analyzePlan(snap, p)
		if err != nil {
			return nil, err
		}
		aspan.End()
		end = obs.Nanotime()
	}
	if ph.tr != nil {
		ph.root.EndAt(end)
		var exported *obs.SpanExport
		if req.Analyze {
			exported = ph.tr.Export()
			res.Trace = exported
		}
		if slow {
			if exported == nil {
				exported = ph.tr.Export()
			}
			e.obs.Slow.Add(obs.SlowQuery{
				Time:          time.Now(),
				Query:         p.queryText,
				Engine:        string(chosen),
				CacheHit:      hit,
				DurationNanos: int64(total),
				Trace:         exported,
			})
		}
	}
	return res, nil
}

// analyzePlan re-executes the compiled query's algebra with per-operator
// instrumentation (exec.Analyze) against the same snapshot the plan was
// keyed on. The run is independent of the cached artifact: it re-parses the
// cached query text and discards its answer, keeping only the timed tree.
func (e *Engine) analyzePlan(snap *catalog.Snapshot, p *plan) (*exec.PlanNode, error) {
	q, err := parser.ParseQuery(p.queryText)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	env, err := snap.Env(p.tables)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownTable, err)
	}
	an, err := exec.Analyze(q, env.ExecEnv(), e.algebraOptions().ExecOptions())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return an, nil
}

// prepare returns the cached plan for (query, kind) against the given
// catalog snapshot, or compiles and caches a new one. On a miss the trace is
// materialized at compile start (backfilling the snapshot and parse spans
// from ph's saved readings) so the operator core gets a live "compile" span;
// on a hit no span work happens at all — the caller reconstructs the warm
// span tree later if it needs one.
func (e *Engine) prepare(snap *catalog.Snapshot, queryText string, kind Kind, ph *phases) (*plan, bool, time.Duration, error) {
	q, err := parser.ParseQuery(queryText)
	if err != nil {
		return nil, false, 0, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	names := make([]string, 0, 2)
	for name := range ra.InputNames(q) {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if snap.Get(name) == nil {
			return nil, false, 0, fmt.Errorf("%w: %q (have %v)", ErrUnknownTable, name, snap.Names())
		}
	}
	key := cacheKey(queryText, kind, names, snap)

	e.mu.Lock()
	if el, ok := e.byKey[key]; ok {
		e.lru.MoveToFront(el)
		e.hits++
		e.mu.Unlock()
		return el.Value.(*plan), true, 0, nil
	}
	e.misses++
	e.mu.Unlock()

	start := obs.Nanotime()
	compileSpan := ph.materialize(start).ChildAt("compile", start)
	opts := e.algebraOptions()
	opts.Trace = compileSpan
	p, err := compile(q, queryText, kind, names, snap, key, opts)
	if err != nil {
		return nil, false, 0, err
	}
	prepDur := time.Duration(obs.Nanotime() - start)
	compileSpan.EndDur(prepDur)
	e.prepNanos.Add(uint64(prepDur))
	e.opMu.Lock()
	e.opTotals.Add(p.ops)
	e.opMu.Unlock()

	e.mu.Lock()
	// A concurrent miss may have compiled the same plan; keep the first so
	// every waiter shares one memoized artifact.
	if el, ok := e.byKey[key]; ok {
		e.lru.MoveToFront(el)
		e.mu.Unlock()
		return el.Value.(*plan), false, prepDur, nil
	}
	el := e.lru.PushFront(p)
	e.byKey[key] = el
	for _, name := range names {
		set := e.byTable[name]
		if set == nil {
			set = make(map[string]bool)
			e.byTable[name] = set
		}
		set[key] = true
	}
	for e.lru.Len() > e.opts.CacheSize {
		e.removeLocked(e.lru.Back(), &e.evictions)
	}
	e.mu.Unlock()
	return p, false, prepDur, nil
}

// invalidateTable drops every cached plan that reads the named table and
// returns how many were dropped.
func (e *Engine) invalidateTable(name string) int {
	e.mu.Lock()
	before := e.invalidations
	for key := range e.byTable[name] {
		if el, ok := e.byKey[key]; ok {
			e.removeLocked(el, &e.invalidations)
		}
	}
	n := int(e.invalidations - before)
	e.mu.Unlock()
	return n
}

// invalidateReplaced is invalidateTable for whole-table replacement (put,
// delete, catalog script reload): dropped plans are counted as maintenance
// recompiles forced by reason "tableReplaced".
func (e *Engine) invalidateReplaced(name string) {
	if n := e.invalidateTable(name); n > 0 {
		e.mnt.forcedReplaced.Add(uint64(n))
	}
}

// removeLocked removes one plan from the cache and reverse index,
// incrementing the given counter. Caller holds e.mu.
func (e *Engine) removeLocked(el *list.Element, counter *uint64) {
	p := e.lru.Remove(el).(*plan)
	delete(e.byKey, p.key)
	for _, name := range p.tables {
		if set := e.byTable[name]; set != nil {
			delete(set, p.key)
			if len(set) == 0 {
				delete(e.byTable, name)
			}
		}
	}
	*counter++
}

// cacheKey identifies a compiled plan: engine, query text, and the exact
// version of every referenced table in the snapshot. Replacing a table
// changes its version, so stale plans can never be served.
func cacheKey(queryText string, kind Kind, names []string, snap *catalog.Snapshot) string {
	return planKey(queryText, kind, names, snapVersions(names, snap))
}

// planKey is cacheKey over an explicit name→version map; incremental
// maintenance uses it to derive a maintained plan's next key from the plan's
// recorded versions with only the patched table's version bumped.
func planKey(queryText string, kind Kind, names []string, vers map[string]uint64) string {
	var b strings.Builder
	b.WriteString(string(kind))
	b.WriteByte(0)
	b.WriteString(queryText)
	for _, name := range names {
		fmt.Fprintf(&b, "\x00%s@%d", name, vers[name])
	}
	return b.String()
}

// snapVersions extracts the versions of the named tables from a snapshot
// (0 for absent tables, matching the historical key format).
func snapVersions(names []string, snap *catalog.Snapshot) map[string]uint64 {
	vers := make(map[string]uint64, len(names))
	for _, name := range names {
		if ent := snap.Get(name); ent != nil {
			vers[name] = ent.Version
		} else {
			vers[name] = 0
		}
	}
	return vers
}

// algebraOptions returns the operator-core options the engine compiles with:
// conditions simplified, plans rewritten, and the engine's worker bound
// doubling as the morsel-parallelism bound of the batch engine. Every
// execution draws its extra morsel goroutines from one shared pool of that
// size — concurrent queries cannot multiply the per-query width into
// Workers² busy goroutines.
func (e *Engine) algebraOptions() ctable.Options {
	return ctable.Options{
		Simplify: true,
		Rewrite:  true,
		Workers:  e.opts.Workers,
		Pool:     e.execPool,
	}
}

// compile runs the cold path: resolve tables, closed algebra on the shared
// operator core, candidate discovery. The physical plan is part of the
// compiled artifact: its rendering (exec.Explain) and its operator counters
// are cached on the plan, so hits surface the same plan text without
// re-planning.
func compile(q ra.Query, queryText string, kind Kind, names []string, snap *catalog.Snapshot, key string, opts ctable.Options) (*plan, error) {
	env, err := snap.Env(names)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownTable, err)
	}
	for _, name := range names {
		if !snap.Get(name).Probabilistic {
			return nil, fmt.Errorf("%w: table %q has no variable distributions; marginals are undefined (load it with dist directives)", ErrBadQuery, name)
		}
	}
	var ops exec.OpStats
	opts.Stats = &ops
	answer, err := pctable.EvalQueryEnvWithOptions(q, env, opts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	physical, err := exec.Explain(q, env.ExecEnv(), opts.ExecOptions())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	candidates, err := answer.Candidates()
	if err != nil {
		return nil, err
	}
	refs := make(map[condition.Variable]int)
	rendered, rowOff := renderAnswer(answer, refs, nil, nil)
	return &plan{
		key:        key,
		queryText:  queryText,
		kind:       kind,
		tables:     names,
		query:      q,
		tableVers:  snapVersions(names, snap),
		answer:     answer,
		physical:   physical,
		ops:        ops,
		candidates: candidates,
		sel:        selectEngine(candidates),
		rendered:   rendered,
		rowOff:     rowOff,
		varRefs:    refs,
	}, nil
}

// Auto-selector thresholds (see Selection). Beyond autoMCComponentVars
// variables in one connected component of a SINGLE lineage, computing that
// tuple's exact marginal risks exponential blowup and sampling scales; from
// autoCircuitMinTuples tuples with cross-tuple sharing of at least
// autoCircuitMinShare, one shared circuit amortizes decomposition across the
// answer; otherwise the per-tuple d-tree's lower constant factors win.
const (
	autoMCComponentVars  = 44
	autoCircuitMinTuples = 16
	autoCircuitMinShare  = 1.25
)

// selectEngine derives the lineage-set statistics of a compiled plan and
// the engine=auto decision they imply. It runs once per plan compilation;
// the per-lineage variable sets are cached by hash-consed condition ID, so
// answers whose tuples share structure pay each subcondition's walk once.
func selectEngine(candidates []pctable.Candidate) Selection {
	in := condition.NewInterner()
	allVars := make(map[condition.Variable]bool)
	varTotal := 0
	maxComp := 0
	for _, c := range candidates {
		vars := in.Vars(c.Lineage)
		varTotal += len(vars)
		for _, x := range vars {
			allVars[x] = true
		}
		if n := maxLineageComponent(in, c.Lineage, len(vars)); n > maxComp {
			maxComp = n
		}
	}
	sel := Selection{
		Tuples:           len(candidates),
		Vars:             len(allVars),
		MaxComponentVars: maxComp,
	}
	if sel.Vars > 0 {
		sel.SharingDegree = float64(varTotal) / float64(sel.Vars)
	}
	switch {
	case maxComp > autoMCComponentVars:
		sel.Chosen = KindMC
		sel.Reason = fmt.Sprintf("largest connected lineage component has %d variables (> %d): exact decomposition risks blowup, sampling scales", maxComp, autoMCComponentVars)
	case sel.Tuples >= autoCircuitMinTuples && sel.SharingDegree >= autoCircuitMinShare:
		sel.Chosen = KindCircuit
		sel.Reason = fmt.Sprintf("%d tuples with sharing degree %.2f (>= %.2f): one shared circuit amortizes decomposition", sel.Tuples, sel.SharingDegree, autoCircuitMinShare)
	default:
		sel.Chosen = KindDTree
		sel.Reason = fmt.Sprintf("%d tuples, sharing degree %.2f: per-tuple d-tree has the lowest constants", sel.Tuples, sel.SharingDegree)
	}
	return sel
}

// maxLineageComponent returns the variable count of the largest
// variable-connected component within ONE lineage. Top-level juncts of a
// conjunction or disjunction that share no variables decompose into
// independent subproblems (products; De Morgan products for disjunctions),
// so the hardness of one marginal is governed by its largest connected junct
// group — not by the lineage's total variable count, and never by variables
// shared with other tuples' lineages, which each evaluator treats as
// separate roots. Non-junction lineages count as one component.
func maxLineageComponent(in *condition.Interner, c condition.Condition, total int) int {
	var juncts []condition.Condition
	switch c := c.(type) {
	case condition.AndCond:
		juncts = c.Conds
	case condition.OrCond:
		juncts = c.Conds
	default:
		return total
	}
	parent := make(map[condition.Variable]condition.Variable, total)
	var find func(x condition.Variable) condition.Variable
	find = func(x condition.Variable) condition.Variable {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, j := range juncts {
		var root condition.Variable
		for _, x := range in.Vars(j) {
			if _, ok := parent[x]; !ok {
				parent[x] = x
			}
			rx := find(x)
			if root == "" {
				root = rx
			} else if rx != root {
				parent[rx] = root
			}
		}
	}
	maxComp := 0
	size := make(map[condition.Variable]int)
	for x := range parent {
		r := find(x)
		size[r]++
		if size[r] > maxComp {
			maxComp = size[r]
		}
	}
	return maxComp
}

// planCircuit compiles (once) and returns the plan's shared circuit,
// feeding the engine's circuit counters on the actual compilation.
func (e *Engine) planCircuit(p *plan) (*probcalc.Circuit, error) {
	p.circuitOnce.Do(func() {
		conds := make([]condition.Condition, len(p.candidates))
		for i, c := range p.candidates {
			conds[i] = c.Lineage
		}
		p.circuit, p.circuitErr = probcalc.CompileAnswer(conds, p.answer)
		if p.circuitErr == nil {
			st := p.circuit.Stats()
			e.circuitCompiles.Add(1)
			e.circuitNodes.Add(uint64(st.Nodes))
			e.circuitShare.Add(uint64(st.SharedHits))
		}
	})
	return p.circuit, p.circuitErr
}

// circuitMarginals evaluates the plan's shared circuit under dists (nil
// selects the answer's own distributions), shaping the result like the
// other exact engines: zero-probability candidates are dropped and
// certainty is the CertainEps threshold.
func (e *Engine) circuitMarginals(p *plan, dists probcalc.DistProvider) ([]TupleAnswer, error) {
	circ, err := e.planCircuit(p)
	if err != nil {
		return nil, err
	}
	if dists == nil {
		dists = p.answer
	}
	probs, err := circ.EvalFloat(dists)
	if err != nil {
		return nil, err
	}
	out := make([]TupleAnswer, 0, len(p.candidates))
	for i, c := range p.candidates {
		pr := probs[i]
		if pr == 0 {
			continue
		}
		out = append(out, TupleAnswer{Tuple: c.Tuple, P: pr, Certain: pr >= 1-CertainEps})
	}
	return out, nil
}

// overrideTable builds the what-if view of the plan's answer from the
// request's distribution overrides (nil when the request has none). Value
// keys are parsed as literals; each override must form a probability
// distribution over a subset of the variable's declared support —
// violations are ErrBadQuery, because the circuit's Shannon branches (and
// the c-table's domains) were fixed at compile time.
func overrideTable(p *plan, dists map[string]map[string]float64) (*pctable.PCTable, error) {
	if len(dists) == 0 {
		return nil, nil
	}
	over := make(map[condition.Variable]*prob.Space, len(dists))
	for name, outcomes := range dists {
		m := make(map[value.Value]float64, len(outcomes))
		for lit, pr := range outcomes {
			v, err := parser.ParseValueLiteral(lit)
			if err != nil {
				return nil, fmt.Errorf("%w: distributions[%s]: %v", ErrBadQuery, name, err)
			}
			m[v] = pr
		}
		sp, err := prob.NewValueSpace(m)
		if err != nil {
			return nil, fmt.Errorf("%w: distributions[%s]: %v", ErrBadQuery, name, err)
		}
		over[condition.Variable(name)] = sp
	}
	t, err := p.answer.WithDists(over)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return t, nil
}

// whatIfMarginals computes marginals under request-supplied distribution
// overrides. Results are never memoized on the plan — the override is
// per-request state — but the circuit path reuses the plan's compiled
// circuit, so a what-if over a prepared answer is a pure re-weighting pass
// with no decomposition at all.
func (e *Engine) whatIfMarginals(p *plan, chosen Kind, over *pctable.PCTable, req Request) ([]TupleAnswer, error) {
	switch chosen {
	case KindCircuit:
		return e.circuitMarginals(p, over)
	case KindMC:
		return sampledMarginals(p, over, req)
	}
	out := make([]TupleAnswer, 0, len(p.candidates))
	var ev *probcalc.Evaluator
	if chosen == KindDTree {
		ev = probcalc.New(over)
	}
	for _, c := range p.candidates {
		var (
			pr  float64
			err error
		)
		if ev != nil {
			pr, err = ev.Probability(c.Lineage)
		} else {
			pr, err = probcalc.EnumProbability(c.Lineage, over)
		}
		if err != nil {
			return nil, err
		}
		if pr == 0 {
			continue
		}
		out = append(out, TupleAnswer{Tuple: c.Tuple, P: pr, Certain: pr >= 1-CertainEps})
	}
	if ev != nil {
		st := ev.Stats()
		e.memoHits.Add(uint64(st.MemoHits))
		e.memoMisses.Add(uint64(st.MemoMisses))
	}
	return out, nil
}

// exactMarginals computes every candidate's marginal with an exact engine.
// The dtree path shares one decomposition evaluator (and its memo cache)
// across candidates and reports the decomposition's shape alongside the
// answers (zero Stats for enum).
func exactMarginals(p *plan, kind Kind) ([]TupleAnswer, probcalc.Stats, error) {
	out := make([]TupleAnswer, 0, len(p.candidates))
	var ev *probcalc.Evaluator
	if kind == KindDTree {
		ev = probcalc.New(p.answer)
	}
	for _, c := range p.candidates {
		var (
			prob float64
			err  error
		)
		if kind == KindDTree {
			prob, err = ev.Probability(c.Lineage)
		} else {
			prob, err = p.answer.ConditionProbabilityEnum(c.Lineage)
		}
		if err != nil {
			return nil, probcalc.Stats{}, err
		}
		if prob == 0 {
			// Row-pattern candidate with unsatisfiable lineage.
			continue
		}
		out = append(out, TupleAnswer{Tuple: c.Tuple, P: prob, Certain: prob >= 1-CertainEps})
	}
	var st probcalc.Stats
	if ev != nil {
		st = ev.Stats()
	}
	return out, st, nil
}

// sampledMarginals estimates every candidate's marginal by Monte-Carlo over
// table t (the plan's answer, or its what-if view). A fresh sampler per
// request keeps concurrent executions independent and deterministic for a
// fixed (seed, samples, workers).
func sampledMarginals(p *plan, t *pctable.PCTable, req Request) ([]TupleAnswer, error) {
	samples := req.Samples
	if samples <= 0 {
		samples = 10000
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	workers := req.Workers
	if workers <= 0 {
		workers = 1
	}
	sampler, err := pctable.NewSampler(t, seed)
	if err != nil {
		return nil, err
	}
	out := make([]TupleAnswer, 0, len(p.candidates))
	for _, c := range p.candidates {
		est, se, err := sampler.EstimateConditionProbabilityParallel(c.Lineage, samples, workers)
		if err != nil {
			return nil, err
		}
		// Certainty is a logical property; a sampled estimate of 1 is not
		// proof. Only a lineage that simplified to the constant true makes
		// a Monte-Carlo answer certain.
		_, isTrue := c.Lineage.(condition.TrueCond)
		out = append(out, TupleAnswer{Tuple: c.Tuple, P: est, StdErr: se, Certain: isTrue})
	}
	return out, nil
}
