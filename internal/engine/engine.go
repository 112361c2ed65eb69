// Package engine executes relational algebra queries over a catalog of
// pc-tables and caches the compiled artifacts.
//
// A query is *prepared* once: parsed, validated against a catalog snapshot,
// run through the closed algebra (Theorems 4 and 9) to obtain the answer
// pc-table, and its candidate answer tuples and lineage conditions are
// extracted. The prepared plan is cached under its marginal engine and query
// text, and records the versions of the catalog tables it is current at. A
// query whose snapshot shows those versions hits; one whose snapshot is newer
// catches the plan up first (maintenance on read, see maintain.go), so a
// row-level patch costs nothing until the plan is read again; one whose
// snapshot is older compiles its own plan uncached. Replacing or dropping a
// table invalidates exactly the plans that read it, while plans over other
// tables keep hitting. The cache is LRU-bounded and publishes
// hit/miss/eviction/latency counters.
//
// Execution computes tuple marginals under a bounded worker pool with one of
// three engines — circuit (the exact engine: internal/probcalc's compiler
// turns the whole answer's lineage into one circuit, retained on the plan),
// enum (brute-force valuation enumeration, the reference) or mc (Monte-Carlo
// estimation) — or with auto, which picks circuit or mc per plan from its
// lineage statistics. The name dtree is accepted as an alias of circuit.
// Every engine runs through one function, pctable.Marginals, which owns the
// rules for dropping zero-probability candidates and flagging certain
// answers. Exact marginals are computed once per plan and memoized;
// Monte-Carlo re-samples per request (deterministically for a fixed seed),
// and what-if requests re-evaluate the plan's circuit under their overridden
// distributions.
package engine

import (
	"cmp"
	"container/list"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
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
	// KindCircuit compiles the whole answer's lineage set into one shared
	// arithmetic circuit (probcalc.CompileAnswer) and evaluates every
	// marginal in a single bottom-up pass. The circuit is retained on the
	// cached plan, so what-if re-evaluation skips decomposition entirely.
	// Default; "dtree" names it too.
	KindCircuit Kind = pctable.EngineCircuit
	// KindEnum enumerates every valuation of the lineage variables.
	KindEnum Kind = pctable.EngineEnum
	// KindMC estimates marginals by Monte-Carlo sampling.
	KindMC Kind = pctable.EngineMC
	// KindAuto picks circuit or mc per answer from the lineage-set
	// statistics gathered at plan compilation (see Selection).
	KindAuto Kind = "auto"
)

// ParseKind parses an engine name. The empty string and "dtree" (the name
// of the per-tuple decomposition the circuit compiler replaced) select
// KindCircuit, so they share its cached plans.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "dtree":
		return KindCircuit, nil
	case string(KindCircuit), string(KindEnum), string(KindMC), string(KindAuto):
		return Kind(s), nil
	default:
		return "", fmt.Errorf("%w: unknown engine %q (valid engines: auto, circuit, dtree, enum, mc)", ErrBadQuery, s)
	}
}

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
	// Probcalc aggregates the circuit-compilation counters across every
	// execution; the per-circuit stats would otherwise be lost when a plan
	// is dropped.
	Probcalc ProbcalcStats `json:"probcalc"`
	// Auto counts what the engine=auto selector chose, per target engine.
	Auto AutoStats `json:"auto"`
	// Maintenance counts incremental view maintenance work: patches applied,
	// plans caught up in place vs recompiles forced (by fallback reason),
	// and memoized marginals reused vs refreshed.
	Maintenance MaintenanceStats `json:"maintenance"`
}

// ProbcalcStats aggregates circuit-compilation counters over every marginal
// computation since startup.
type ProbcalcStats struct {
	// CircuitCompiles counts shared-circuit compilations; CircuitNodes and
	// CircuitShared total their DAG sizes and compile-time memo hits
	// (subcircuits reused across answer tuples via hash-consed IDs).
	CircuitCompiles uint64 `json:"circuitCompiles"`
	CircuitNodes    uint64 `json:"circuitNodes"`
	CircuitShared   uint64 `json:"circuitShared"`
}

// AutoStats counts engine=auto selector decisions by chosen engine.
type AutoStats struct {
	Circuit uint64 `json:"circuit"`
	MC      uint64 `json:"mc"`
}

// Request is one query execution.
type Request struct {
	// Query is the relational algebra query text (parser.ParseQuery syntax).
	Query string
	// Engine selects the marginal engine (see ParseKind); empty means
	// circuit.
	Engine string
	// Samples is the Monte-Carlo sample count (mc only; default 10000).
	Samples int
	// Seed is the Monte-Carlo random seed (mc only; default 1).
	Seed int64
	// Workers shards the Monte-Carlo draw (mc only; default 1, sequential).
	// It may not exceed Options.Workers.
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
	// request and never cached; the exact engine re-weights the plan's
	// circuit without re-decomposing.
	Distributions map[string]map[string]float64
}

// TupleAnswer is one answer tuple with its marginal probability.
type TupleAnswer = pctable.TupleAnswer

// Selection is the engine=auto selector's decision for one plan, together
// with the lineage-set statistics that drove it. It is computed once at plan
// compilation and reported in results, /v1/stats and EXPLAIN ANALYZE spans.
type Selection struct {
	// Tuples is the number of candidate answer tuples.
	Tuples int `json:"tuples"`
	// Vars is the number of distinct variables across all lineages.
	Vars int `json:"vars"`
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
	// Answer is the answer pc-table (conditions are lineage) as a PUT body:
	// the script of a table named answer, without its false rows, declaring
	// the variables its rows mention.
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
// except for the once-guarded marginal fields; catching a plan up builds a
// successor and publishes it in the plan's cache slot.
type plan struct {
	queryText string
	kind      Kind
	tables    []string // sorted referenced table names

	// query is the parsed algebra and tableVers, per table (parallel to
	// tables), the catalog state the plan is current at; together they let a
	// catch-up derive the plan's delta plan without re-parsing.
	query     ra.Query
	tableVers []tableVer

	// catchUp serializes the catch-ups of the plans published in one cache
	// slot: a compiled plan allocates it and every successor shares it.
	catchUp *sync.Mutex

	answer     *pctable.PCTable
	physical   string // rendered physical operator tree (exec.Explain)
	ops        exec.OpStats
	candidates []pctable.Candidate
	sel        Selection // lineage-set statistics + auto-selector decision (auto plans only)

	// Render state, built when the answer is written (renderAnswer): the
	// script, the offset at which each row's line starts (plus the end of
	// the last), and per-variable refcounts of the written rows, so a
	// maintained plan splices its answer in O(delta). groupIndex is the top
	// projection's group index by canonical term identity (first catch-up).
	// Successors copy-then-extend these; a plan's own maps and slices are
	// never mutated, so queries still serving the predecessor stay safe.
	rendered   string
	rowOff     []int32 // an answer's text stays far below 2 GiB
	varRefs    map[condition.Variable]int
	groupIndex map[string]int

	// Exact marginals (circuit/enum) are computed once on first
	// execution and shared by every later hit. margDone is set (after the
	// once completes successfully) so incremental maintenance knows the
	// memoized marginals exist and may be carried forward.
	once      sync.Once
	margDone  atomic.Bool
	marginals []TupleAnswer
	execErr   error

	// The shared circuit is compiled once per plan (first exact execution or
	// what-if) and retained, so re-evaluation under overridden distributions
	// never re-decomposes.
	circuitOnce sync.Once
	circuit     *probcalc.Circuit
	circuitErr  error
}

// tableVer is the state of one catalog table a plan is current at: the
// entry's version, and its base-row and patch counts at that version.
type tableVer struct {
	version uint64
	rows    int
	patches uint64
}

// tableVerOf reads the state a plan compiled against ent is current at.
func tableVerOf(ent *catalog.Entry) tableVer {
	return tableVer{version: ent.Version, rows: ent.Table.NumRows(), patches: ent.Patches}
}

// How a plan's table versions compare with a snapshot's.
const (
	planCurrent = iota // every table at the plan's version
	planBehind         // some table newer in the snapshot, none older
	planAhead          // some table older in the snapshot, or missing from it
)

// versus compares the plan's table versions with snap's.
func (p *plan) versus(snap *catalog.Snapshot) int {
	state := planCurrent
	for i, name := range p.tables {
		ent := snap.Get(name)
		switch {
		case ent == nil || ent.Version < p.tableVers[i].version:
			return planAhead
		case ent.Version > p.tableVers[i].version:
			state = planBehind
		}
	}
	return state
}

// Engine is the concurrent query service core: a catalog plus a bounded
// LRU cache of prepared plans and a bounded execution pool. Mutations only
// change the catalog (and drop the plans a put or drop replaced); a query
// brings the cached plan it reads up to its own snapshot. Safe for
// concurrent use.
type Engine struct {
	cat      *catalog.Catalog
	opts     Options
	sem      chan struct{}
	execPool *exec.WorkerPool // shared morsel-worker budget across executions

	mu      sync.Mutex
	lru     *list.List // of *plan; front = most recently used
	byKey   map[planKey]*list.Element
	byTable map[string]map[planKey]bool // table name -> cache keys reading it

	hits, misses, evictions, invalidations   uint64
	executions, errors, prepNanos, execNanos atomic.Uint64

	opMu     sync.Mutex
	opTotals exec.OpStats // physical-operator counters over all compilations

	// Circuit-compilation totals and auto-selector decision counters.
	circuitCompiles, circuitNodes, circuitShare atomic.Uint64
	autoCircuit, autoMC                         atomic.Uint64

	// Incremental view maintenance counters (see MaintenanceStats).
	mnt maintCounters

	// Observability (all nil-safe no-ops when Options.Obs is unset).
	obs                      *obs.Observer
	coldSeconds, warmSeconds *obs.Histogram
	applySeconds             *obs.Histogram // latency of one plan catch-up
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
		byKey:    make(map[planKey]*list.Element),
		byTable:  make(map[string]map[planKey]bool),
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

// PatchTable applies a row-level patch to a catalog table (logged like every
// mutation) and returns the new catalog version. It touches no cached plan:
// unlike PutTable, which drops the plans reading the table, a patch leaves
// them in place, and the next query reading one catches it up to its own
// snapshot — delta propagation or re-evaluation over every patch since the
// plan was current, in one step — so that query is still a cache hit. Plans
// whose shape cannot be caught up recompile with a typed reason (see
// MaintenanceStats).
func (e *Engine) PatchTable(name string, p *wal.Patch) (uint64, error) {
	if e.cat.Snapshot().Get(name) == nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTable, name)
	}
	v, _, err := e.cat.ApplyPatch(name, p)
	if err != nil {
		return 0, err
	}
	e.mnt.patches.Add(1)
	return v, nil
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
// records, as on the leader, touch no plan: the follower catches up only the
// plans its own queries read, when they read them. Because the applied entry
// keeps the leader's per-table version, a follower's plan current at some
// versions answers exactly as the leader's plan at those versions.
func (e *Engine) ApplyChange(rec *wal.Record) error {
	if _, err := e.cat.ApplyRecord(rec); err != nil {
		return err
	}
	if rec.Kind == wal.KindPatch {
		e.mnt.patches.Add(1)
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
		CircuitCompiles: e.circuitCompiles.Load(),
		CircuitNodes:    e.circuitNodes.Load(),
		CircuitShared:   e.circuitShare.Load(),
	}
	s.Auto = AutoStats{Circuit: e.autoCircuit.Load(), MC: e.autoMC.Load()}
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

// marginalAttrs describes a marginal computation on its span: the effective
// engine, the auto-selector's inputs and decision, and — for marginals freshly
// computed on a circuit (circ non-nil) — the circuit's shape.
func marginalAttrs(sp obs.SpanRef, chosen Kind, sel *Selection, circ *probcalc.Circuit) {
	sp.SetStr("engine", string(chosen))
	if sel != nil {
		sp.SetInt("selTuples", int64(sel.Tuples))
		sp.SetInt("selVars", int64(sel.Vars))
		sp.SetInt("selMaxComponentVars", int64(sel.MaxComponentVars))
		sp.SetStr("selReason", sel.Reason)
	}
	if circ == nil {
		return
	}
	cs := circ.Stats()
	sp.SetInt("circuitNodes", int64(cs.Nodes))
	sp.SetInt("circuitRoots", int64(cs.Roots))
	sp.SetInt("circuitShared", int64(cs.SharedHits))
}

// Execute runs one request: prepare (or fetch) the plan, then compute the
// marginals with the requested engine under the bounded worker pool.
//
// With Options.Obs set, the execution is described by a span tree rooted at
// "query": a "snapshot" child for catalog snapshot acquisition, "parse"
// (query text to validated algebra, including cache lookup and pool
// admission), on a cache miss "compile" (with rewrite/build/pipeline children
// from the operator core), "marginals" (the circuit's shape as attributes),
// and for analyze requests "analyze". Warm (cache-hit)
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
	// Each Monte-Carlo worker is a goroutine with its own shard state, so a
	// request may not ask for more than the engine's own worker bound.
	if req.Workers > e.opts.Workers {
		return nil, fmt.Errorf("%w: workers %d exceeds the server's bound of %d", ErrBadQuery, req.Workers, e.opts.Workers)
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
		if chosen == KindMC {
			e.autoMC.Add(1)
		} else {
			e.autoCircuit.Add(1)
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
		// marginals phase records live and its circuit attributes can attach.
		margSpan = ph.root.ChildAt("marginals", start)
	}
	var (
		tuples   []TupleAnswer
		computed *probcalc.Circuit // the circuit fresh plan marginals were computed on
	)
	if override != nil || chosen == KindMC {
		// What-if marginals (under the per-request override) and Monte-Carlo
		// estimates are computed fresh per request, never memoized on the plan.
		tuples, err = e.planMarginals(p, chosen, cmp.Or(override, p.answer), req)
	} else {
		p.once.Do(func() {
			p.marginals, p.execErr = e.planMarginals(p, chosen, p.answer, req)
			if p.execErr == nil {
				p.margDone.Store(true)
			}
			computed = p.circuit
		})
		tuples, err = p.marginals, p.execErr
	}
	if err != nil {
		return nil, err
	}
	end := obs.Nanotime()
	execDur := time.Duration(end - start)
	margSpan.EndDur(execDur)
	// Effective engine, selector decision and — for fresh exact runs — the
	// circuit shape; warm hits reuse the memoized marginals and attach only
	// the engine and selection.
	marginalAttrs(margSpan, chosen, sel, computed)
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
		marginalAttrs(ms, chosen, sel, computed)
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
// instrumentation (exec.Analyze) against the snapshot the plan is current
// at. The run is independent of the cached artifact: it discards its
// answer, keeping only the timed tree.
func (e *Engine) analyzePlan(snap *catalog.Snapshot, p *plan) (*exec.PlanNode, error) {
	env, err := snap.Env(p.tables)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownTable, err)
	}
	an, err := exec.Analyze(p.query, env.ExecEnv(), e.algebraOptions().ExecOptions())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return an, nil
}

// prepare returns the cached plan for (query, kind) current at the given
// catalog snapshot (see lookup), or compiles one. On a miss the trace is
// materialized at compile start (backfilling the snapshot and parse spans
// from ph's saved readings) so the operator core gets a live "compile" span;
// on a hit no span work happens at all — the caller reconstructs the warm
// span tree later if it needs one.
func (e *Engine) prepare(snap *catalog.Snapshot, queryText string, kind Kind, ph *phases) (*plan, bool, time.Duration, error) {
	key := planKey{kind: kind, query: queryText}
	if p := e.lookup(snap, key, ph); p != nil {
		return p, true, 0, nil
	}
	q, err := parser.ParseQuery(queryText)
	if err != nil {
		return nil, false, 0, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	names := make([]string, 0, 2)
	for name := range ra.InputNames(q) {
		names = append(names, name)
	}
	sort.Strings(names)
	vers := make([]tableVer, len(names))
	for i, name := range names {
		ent := snap.Get(name)
		if ent == nil {
			return nil, false, 0, fmt.Errorf("%w: %q (have %v)", ErrUnknownTable, name, snap.Names())
		}
		vers[i] = tableVerOf(ent)
	}
	e.mu.Lock()
	e.misses++
	e.mu.Unlock()

	start := obs.Nanotime()
	compileSpan := ph.materialize(start).ChildAt("compile", start)
	opts := e.algebraOptions()
	opts.Trace = compileSpan
	p, err := compile(q, queryText, kind, names, vers, snap, opts)
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
	defer e.mu.Unlock()
	if el, ok := e.byKey[key]; ok {
		// A concurrent miss compiled the same plan: share it when it is
		// current at this snapshot too, so every waiter shares one memoized
		// artifact. Otherwise the cached plan stays (a later read catches
		// it up) and this one serves its query uncached.
		if cached := el.Value.(*plan); cached.versus(snap) == planCurrent {
			e.lru.MoveToFront(el)
			return cached, false, prepDur, nil
		}
		return p, false, prepDur, nil
	}
	el := e.lru.PushFront(p)
	e.byKey[key] = el
	for _, name := range names {
		set := e.byTable[name]
		if set == nil {
			set = make(map[planKey]bool)
			e.byTable[name] = set
		}
		set[key] = true
	}
	for e.lru.Len() > e.opts.CacheSize {
		e.removeLocked(e.lru.Back(), &e.evictions)
	}
	return p, false, prepDur, nil
}

// lookup returns the plan cached under key, current at snap's versions, and
// counts the hit. A plan behind snap is caught up first: under the plan's
// catchUp lock, in one step to exactly snap's versions (catchUpPlan), and
// published in the same cache slot. lookup returns nil — the caller compiles
// — when nothing is cached under key, when the cached plan is ahead of snap
// (a newer plan is never served to an older snapshot), or when the plan
// cannot be caught up, in which case it has been dropped with a typed reason.
func (e *Engine) lookup(snap *catalog.Snapshot, key planKey, ph *phases) *plan {
	e.mu.Lock()
	el, ok := e.byKey[key]
	if !ok {
		e.mu.Unlock()
		return nil
	}
	p := el.Value.(*plan)
	state := p.versus(snap)
	if state == planCurrent {
		e.lru.MoveToFront(el)
		e.hits++
	}
	e.mu.Unlock()
	switch state {
	case planCurrent:
		return p
	case planAhead:
		return nil
	}

	p.catchUp.Lock()
	defer p.catchUp.Unlock()
	// A query that held the lock before this one may have caught the slot
	// up already, to this snapshot or past it.
	e.mu.Lock()
	p = el.Value.(*plan)
	e.mu.Unlock()
	state = p.versus(snap)
	if state == planAhead {
		return nil
	}
	var reason string
	if state == planBehind {
		p, reason = e.catchUpPlan(p, snap, ph)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cached := e.byKey[key] == el
	if p == nil {
		if cached {
			e.removeLocked(el, &e.invalidations)
			e.mnt.forced(reason)
		}
		return nil
	}
	// Publishing into a slot that an invalidation or eviction removed
	// meanwhile is harmless: no lookup reaches it any more.
	el.Value = p
	if cached {
		e.lru.MoveToFront(el)
	}
	e.hits++
	return p
}

// invalidateTable drops every cached plan that reads the named table at a
// version other than its current one (every plan, once it is dropped) and
// returns how many were dropped. The catalog publishes a mutation before the
// engine invalidates, so a plan a query compiled in between is fresh: it stays.
func (e *Engine) invalidateTable(name string) int {
	var current uint64
	if ent := e.cat.Snapshot().Get(name); ent != nil {
		current = ent.Version
	}
	e.mu.Lock()
	before := e.invalidations
	for key := range e.byTable[name] {
		if el, ok := e.byKey[key]; ok && el.Value.(*plan).versionOf(name) != current {
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
	key := planKey{kind: p.kind, query: p.queryText}
	delete(e.byKey, key)
	for _, name := range p.tables {
		if set := e.byTable[name]; set != nil {
			delete(set, key)
			if len(set) == 0 {
				delete(e.byTable, name)
			}
		}
	}
	*counter++
}

// planKey identifies a cache slot: the marginal engine and the query text.
// The versions a slot's plan is current at live on the plan (tableVers), so
// one slot follows its query across patches.
type planKey struct {
	kind  Kind
	query string
}

// versionOf returns the version of the named table the plan is current at
// (0 for a table it does not read).
func (p *plan) versionOf(name string) uint64 {
	if i, ok := slices.BinarySearch(p.tables, name); ok {
		return p.tableVers[i].version
	}
	return 0
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
func compile(q ra.Query, queryText string, kind Kind, names []string, vers []tableVer, snap *catalog.Snapshot, opts ctable.Options) (*plan, error) {
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
	var sel Selection // only auto plans read it
	if kind == KindAuto {
		sel = selectEngine(candidates)
	}
	return &plan{
		queryText:  queryText,
		kind:       kind,
		tables:     names,
		query:      q,
		tableVers:  vers,
		catchUp:    new(sync.Mutex),
		answer:     answer,
		physical:   physical,
		ops:        ops,
		candidates: candidates,
		sel:        sel,
		rendered:   rendered,
		rowOff:     rowOff,
		varRefs:    refs,
	}, nil
}

// autoMCComponentVars is the auto-selector's threshold (see Selection):
// beyond this many variables in one connected component of a SINGLE
// lineage, computing that tuple's exact marginal risks exponential blowup
// and sampling scales.
const autoMCComponentVars = 44

// selectEngine derives the lineage-set statistics of a compiled plan and
// the engine=auto decision they imply. It runs once per auto plan compilation;
// the per-lineage variable sets are cached by hash-consed condition ID, so
// answers whose tuples share structure pay each subcondition's walk once.
func selectEngine(candidates []pctable.Candidate) Selection {
	in := condition.NewInterner()
	allVars := make(map[condition.Variable]bool)
	maxComp := 0
	for _, c := range candidates {
		vars := in.Vars(c.Lineage)
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
	sel.Chosen = KindCircuit
	sel.Reason = fmt.Sprintf("largest connected lineage component has %d variables (<= %d): exact circuit", maxComp, autoMCComponentVars)
	if maxComp > autoMCComponentVars {
		sel.Chosen = KindMC
		sel.Reason = fmt.Sprintf("largest connected lineage component has %d variables (> %d): exact decomposition risks blowup, sampling scales", maxComp, autoMCComponentVars)
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

// planCircuit compiles (once) and returns the plan's shared circuit over
// the answer's own distributions, so what-if requests re-weight it instead of
// re-decomposing.
func (e *Engine) planCircuit(p *plan) (*probcalc.Circuit, error) {
	p.circuitOnce.Do(func() { p.circuit, p.circuitErr = e.compileCircuit(p.candidates, p.answer) })
	return p.circuit, p.circuitErr
}

// compileCircuit compiles the candidates' lineages into one circuit over
// dists and adds it to the engine's probcalc totals.
func (e *Engine) compileCircuit(cands []pctable.Candidate, dists *pctable.PCTable) (*probcalc.Circuit, error) {
	conds := make([]condition.Condition, len(cands))
	for i, c := range cands {
		conds[i] = c.Lineage
	}
	circ, err := probcalc.CompileAnswer(conds, dists)
	if err != nil {
		return nil, err
	}
	cs := circ.Stats()
	e.circuitCompiles.Add(1)
	e.circuitNodes.Add(uint64(cs.Nodes))
	e.circuitShare.Add(uint64(cs.SharedHits))
	return circ, nil
}

// planMarginals computes the plan's candidate marginals with engine kind
// under dists — the plan's answer or its what-if view. The circuit engine
// evaluates the plan's shared circuit, compiled on first use.
func (e *Engine) planMarginals(p *plan, kind Kind, dists *pctable.PCTable, req Request) ([]TupleAnswer, error) {
	s := pctable.Strategy{Engine: string(kind), Samples: req.Samples, Seed: req.Seed, Workers: req.Workers}
	if kind == KindCircuit {
		var err error
		if s.Circuit, err = e.planCircuit(p); err != nil {
			return nil, err
		}
	}
	return pctable.Marginals(dists, p.candidates, s)
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
