package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/relation"
	"uncertaindb/internal/value"
)

// This file is the vectorized batch engine, the execution path of Run.
// Instead of passing one boxed []Term row at a time between operators, it
// materializes relations as columnar []TermID vectors with a per-row
// condition column and executes the operators batch-at-a-time over
// fixed-size morsels of BatchSize rows:
//
//   - streaming operators (selection, the probe side of the symbolic hash
//     join, nested-loop cross products, the per-row condition rewriting of
//     difference and intersection) fuse into pipelines that run one morsel
//     at a time on a bounded worker pool (Options.Workers), each task
//     processing its morsel through every stage while it is cache-hot;
//   - pipeline breakers (the projection's disjunctive merge, hash-table
//     builds, the materialization of a cross/join/set-operator right side)
//     cut pipelines and merge the per-morsel partial results in morsel
//     order, so the output is identical whatever the worker count;
//   - on the encoded columns, ground-term equality is a single uint32
//     compare (interning is injective), so hash joins build and probe on
//     packed ID keys without rendering values, and a predicate that is
//     ground on a row folds to true or false by ID and value compare
//     (foldPredIDs), so σ̄ writes the row's condition without building one.
//
// There is one dictionary encoding per table version, not one per run:
// Encode builds a table's own frozen condition.TermInterner and columns, and
// a model that implements Encoder keeps that Encoding for as long as its rows
// do. A run adds only a private condition.Overlay over the dictionary of its
// largest input: that input's columns are used as they are, and the other
// inputs' distinct terms and the constant relations are interned into the
// overlay.
//
// Every per-row condition is constructed by the same formula, in the same
// association order, as the row-at-a-time definitions (PredicateCondition,
// RowEquality) the eager evaluator applies; a folded ground selection writes
// exactly what simplifying that formula gives. So with Options.NoHash the
// answer is byte-identical to the eager evaluator's
// (TestCoreMatchesEagerSyntax). Morsel boundaries are fixed (never a
// function of the worker count) and partial results merge in morsel order,
// so determinism is structural: workers=1 and workers=N produce
// byte-identical answers and counters, and every downstream big.Rat
// marginal is bit-identical.

// BatchSize is the number of rows per morsel: small enough that a morsel's
// columns and conditions stay cache-resident through a fused pipeline (and
// that 1k-row scans already split across workers), large enough to amortize
// task scheduling. Morsel boundaries depend only on the input sizes, never
// on the worker count, so parallel runs are deterministic.
const BatchSize = 256

// vec is a materialized columnar relation over interned term IDs: cols[j][i]
// is the dictionary ID of row i's j-th term and conds[i] its condition.
// Operators share column slices whenever they do not change terms (selection,
// difference, intersection rewrite conditions only), so "selection vectors"
// degenerate to zero-copy column reuse: the symbolic σ̄ keeps every row.
type vec struct {
	arity int
	cols  [][]condition.TermID
	conds []condition.Condition
}

func newVec(arity int) *vec {
	return &vec{arity: arity, cols: make([][]condition.TermID, arity)}
}

func (v *vec) rows() int { return len(v.conds) }

// grow pre-sizes the column and condition buffers for n expected rows.
func (v *vec) grow(n int) {
	for j := range v.cols {
		v.cols[j] = make([]condition.TermID, 0, n)
	}
	v.conds = make([]condition.Condition, 0, n)
}

// view returns the zero-copy morsel [lo, hi) of v.
func (v *vec) view(lo, hi int) *vec {
	cols := make([][]condition.TermID, v.arity)
	for j, c := range v.cols {
		cols[j] = c[lo:hi]
	}
	return &vec{arity: v.arity, cols: cols, conds: v.conds[lo:hi]}
}

// concatVecs merges per-morsel outputs in morsel order.
func concatVecs(arity int, parts []*vec) *vec {
	total := 0
	for _, p := range parts {
		if p != nil {
			total += p.rows()
		}
	}
	out := newVec(arity)
	for j := range out.cols {
		out.cols[j] = make([]condition.TermID, 0, total)
	}
	out.conds = make([]condition.Condition, 0, total)
	for _, p := range parts {
		if p == nil {
			continue
		}
		for j := range out.cols {
			out.cols[j] = append(out.cols[j], p.cols[j]...)
		}
		out.conds = append(out.conds, p.conds...)
	}
	return out
}

// bstage is one streaming operator stage of a fused pipeline: it transforms
// one morsel into its output rows. Stages must be safe for concurrent apply
// calls on distinct morsels (all shared state — build sides, dictionaries —
// is read-only during execution).
type bstage interface {
	// outArity is the stage's output arity given its input arity (needed to
	// type empty pipelines).
	outArity(in int) int
	apply(ctx *bctx, st *OpStats, in *vec) (*vec, error)
}

// bpipe is a pipeline: a materialized source plus pending streaming stages.
type bpipe struct {
	src    *vec
	stages []bstage
}

// WorkerPool bounds the total number of extra goroutines the batch engine
// spawns across every run that shares it — the serving engine passes one
// pool to all concurrent query executions, so saturation cannot multiply
// the per-query width into Workers² busy goroutines. Acquisition is
// non-blocking: a run that finds the pool drained simply proceeds on its
// own goroutine, so sharing can never deadlock or starve a query.
type WorkerPool struct {
	slots chan struct{}
}

// NewWorkerPool returns a pool of n extra-worker slots (n < 1 selects
// GOMAXPROCS).
func NewWorkerPool(n int) *WorkerPool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return &WorkerPool{slots: make(chan struct{}, n)}
}

func (p *WorkerPool) tryAcquire() bool {
	select {
	case p.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (p *WorkerPool) release() { <-p.slots }

// Encoding is the dictionary encoding of one table version: its own frozen
// term dictionary, its []TermID columns and its condition column. It depends
// only on the rows, never on a query, and is read-only once built, so any
// number of concurrent runs may share it.
type Encoding struct {
	dict *condition.TermInterner
	v    *vec
}

// Encoder is implemented by models that memoize their Encoding (the result
// of Encode over their current rows) and drop it whenever their rows change.
// Run encodes a model without it afresh on every run.
type Encoder interface {
	Encoding() *Encoding
}

// Encode dictionary-encodes m's rows into columnar ID vectors over a new
// term dictionary. A nil row condition is encoded as true.
func Encode(m Model) *Encoding {
	dict := condition.NewTermInterner()
	n := m.NumRows()
	v := newVec(m.Arity())
	v.grow(n)
	for i := 0; i < n; i++ {
		r := m.Row(i)
		for j, t := range r.Terms {
			v.cols[j] = append(v.cols[j], dict.Intern(t))
		}
		cond := r.Cond
		if cond == nil {
			cond = condition.True()
		}
		v.conds = append(v.conds, cond)
	}
	return &Encoding{dict: dict, v: v}
}

func encodingOf(m Model) *Encoding {
	if e, ok := m.(Encoder); ok {
		return e.Encoding()
	}
	return Encode(m)
}

// bctx is the per-run state of the batch engine. The run's dictionary is an
// overlay over base, the dictionary of its largest input; the overlay is
// written only while the plan is built (sequentially), and execution reads
// it from many goroutines.
type bctx struct {
	dict    *condition.TermInterner
	base    *condition.TermInterner
	opts    Options
	workers int
	enc     map[Model]*vec
}

// newBctx builds the per-run state of the batch engine for q over env: the
// largest model q reads (by rows, ties broken by relation name) lends its
// dictionary as the overlay's parent and its columns unchanged.
func newBctx(q ra.Query, env Env, opts Options) *bctx {
	ctx := &bctx{opts: opts, workers: opts.workerCount(), enc: make(map[Model]*vec)}
	var largest string
	for name := range ra.InputNames(q) {
		m, ok := env[name]
		if !ok {
			continue
		}
		if l, ok := env[largest]; !ok || m.NumRows() > l.NumRows() || m.NumRows() == l.NumRows() && name < largest {
			largest = name
		}
	}
	if m, ok := env[largest]; ok {
		e := encodingOf(m)
		ctx.base = e.dict
		ctx.enc[m] = e.v
	}
	ctx.dict = condition.Overlay(ctx.base)
	return ctx
}

// runBatch executes q over env on the batch engine and decodes the answer
// rows. q must be validated (and already rewritten when opts.Rewrite).
func runBatch(q ra.Query, env Env, ar ra.ArityEnv, opts Options) ([]Row, error) {
	ctx := newBctx(q, env, opts)
	p, err := ctx.eval(q, env, ar, nil)
	if err != nil {
		return nil, err
	}
	// The result is decoded straight from the per-morsel outputs; the final
	// concatenation a breaker would need is skipped.
	parts, arity, err := ctx.forceParts(p)
	if err != nil {
		return nil, err
	}
	return ctx.decodeParts(arity, parts), nil
}

// workerCount resolves Options.Workers: <=0 selects GOMAXPROCS, matching the
// engine's execution-pool default.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// eval compiles-and-executes q bottom-up: breakers materialize their inputs
// here; streaming operators extend the returned pipeline. A binary
// operator's right side is fully materialized before its left side runs.
//
// an is the EXPLAIN ANALYZE hook: nil on production runs (every check is one
// predictable branch); when non-nil, the case fills *an with its PlanNode,
// wraps the stages it appends in timing decorators and times its breaker
// work inline, building the same tree (same labels, same child order)
// Explain renders.
func (ctx *bctx) eval(q ra.Query, env Env, ar ra.ArityEnv, an **PlanNode) (*bpipe, error) {
	switch q := q.(type) {
	case ra.BaseRel:
		m, ok := env[q.Name]
		if !ok {
			return nil, fmt.Errorf("exec: unknown relation %q", q.Name)
		}
		v := ctx.encodeModel(m)
		if an != nil {
			n := newPlanNode(labelScan(q.Name))
			n.rowsA.Store(uint64(v.rows()))
			*an = n
		}
		return &bpipe{src: v}, nil
	case ra.ConstRel:
		v, err := ctx.encodeConst(q.Rel)
		if err != nil {
			return nil, err
		}
		if an != nil {
			n := newPlanNode(labelConst(v.rows()))
			n.rowsA.Store(uint64(v.rows()))
			*an = n
		}
		return &bpipe{src: v}, nil
	case ra.SelectQ:
		if cq, ok := q.Input.(ra.CrossQ); ok {
			return ctx.evalJoin(cq.Left, cq.Right, q.Pred, env, ar, an)
		}
		var cn *PlanNode
		p, err := ctx.eval(q.Input, env, ar, childPtr(an, &cn))
		if err != nil {
			return nil, err
		}
		p.stages = append(p.stages, &selectBStage{pred: q.Pred})
		if an != nil {
			n := newPlanNode(labelSelect(q.Pred))
			n.Children = []*PlanNode{cn}
			wrapLastStage(p, n)
			*an = n
		}
		return p, nil
	case ra.ProjectQ:
		var cn *PlanNode
		p, err := ctx.eval(q.Input, env, ar, childPtr(an, &cn))
		if err != nil {
			return nil, err
		}
		in, err := ctx.force(p)
		if err != nil {
			return nil, err
		}
		var n *PlanNode
		var t0 time.Time
		if an != nil {
			n = newPlanNode(labelProject(q.Cols))
			n.Children = []*PlanNode{cn}
			n.addRowsIn(uint64(in.rows()))
			*an = n
			t0 = time.Now()
		}
		out := ctx.project(in, q.Cols)
		if n != nil {
			n.addTime(time.Since(t0))
			n.rowsA.Store(uint64(out.rows()))
		}
		return &bpipe{src: out}, nil
	case ra.CrossQ:
		var ln, rn *PlanNode
		right, err := ctx.evalMaterialized(q.Right, env, ar, childPtr(an, &rn))
		if err != nil {
			return nil, err
		}
		ctx.opts.Stats.in(uint64(right.rows()))
		p, err := ctx.eval(q.Left, env, ar, childPtr(an, &ln))
		if err != nil {
			return nil, err
		}
		p.stages = append(p.stages, &crossBStage{right: right})
		if an != nil {
			n := newPlanNode(labelCross)
			n.addRowsIn(uint64(right.rows()))
			n.Children = []*PlanNode{ln, rn}
			wrapLastStage(p, n)
			*an = n
		}
		return p, nil
	case ra.JoinQ:
		return ctx.evalJoin(q.Left, q.Right, q.Pred, env, ar, an)
	case ra.UnionQ:
		var ln, rn *PlanNode
		var n *PlanNode
		if an != nil {
			n = newPlanNode(labelUnion)
			*an = n
		}
		left, err := ctx.evalResimplified(q.Left, env, ar, childPtr(an, &ln), n)
		if err != nil {
			return nil, err
		}
		right, err := ctx.evalResimplified(q.Right, env, ar, childPtr(an, &rn), n)
		if err != nil {
			return nil, err
		}
		var t0 time.Time
		if n != nil {
			n.Children = []*PlanNode{ln, rn}
			t0 = time.Now()
		}
		out := concatVecs(left.arity, []*vec{left, right})
		if n != nil {
			n.addTime(time.Since(t0))
			n.rowsA.Store(uint64(out.rows()))
		}
		return &bpipe{src: out}, nil
	case ra.DiffQ:
		var ln, rn *PlanNode
		var n *PlanNode
		if an != nil {
			n = newPlanNode(labelDiff(ctx.opts))
			*an = n
		}
		right, buckets, residual, err := ctx.evalPartitioned(q.Right, env, ar, childPtr(an, &rn), n)
		if err != nil {
			return nil, err
		}
		p, err := ctx.eval(q.Left, env, ar, childPtr(an, &ln))
		if err != nil {
			return nil, err
		}
		p.stages = append(p.stages, &diffBStage{right: right, buckets: buckets, residual: residual})
		if n != nil {
			n.Children = []*PlanNode{ln, rn}
			wrapLastStage(p, n)
		}
		return p, nil
	case ra.IntersectQ:
		var ln, rn *PlanNode
		var n *PlanNode
		if an != nil {
			n = newPlanNode(labelIntersect(ctx.opts))
			*an = n
		}
		right, buckets, residual, err := ctx.evalPartitioned(q.Right, env, ar, childPtr(an, &rn), n)
		if err != nil {
			return nil, err
		}
		p, err := ctx.eval(q.Left, env, ar, childPtr(an, &ln))
		if err != nil {
			return nil, err
		}
		p.stages = append(p.stages, &intersectBStage{right: right, buckets: buckets, residual: residual})
		if n != nil {
			n.Children = []*PlanNode{ln, rn}
			wrapLastStage(p, n)
		}
		return p, nil
	default:
		return nil, fmt.Errorf("exec: unsupported query node %T", q)
	}
}

// evalMaterialized evaluates a subquery and forces its pipeline.
func (ctx *bctx) evalMaterialized(q ra.Query, env Env, ar ra.ArityEnv, an **PlanNode) (*vec, error) {
	p, err := ctx.eval(q, env, ar, an)
	if err != nil {
		return nil, err
	}
	return ctx.force(p)
}

// evalResimplified is evalMaterialized plus the per-row condition
// re-simplification a union applies to both of its arms (its cost is
// attributed to the union's own node when analyzing).
func (ctx *bctx) evalResimplified(q ra.Query, env Env, ar ra.ArityEnv, an **PlanNode, union *PlanNode) (*vec, error) {
	p, err := ctx.eval(q, env, ar, an)
	if err != nil {
		return nil, err
	}
	if ctx.opts.Simplify {
		p.stages = append(p.stages, resimplifyBStage{})
		if union != nil {
			wrapLastStage(p, union)
		}
	}
	return ctx.force(p)
}

// evalPartitioned materializes the right side of a difference/intersection
// and — on the hash path — partitions it by ground row key (partitioning
// cost attributed to the set operator's node when analyzing).
func (ctx *bctx) evalPartitioned(q ra.Query, env Env, ar ra.ArityEnv, an **PlanNode, setNode *PlanNode) (*vec, map[string][]int32, []int32, error) {
	right, err := ctx.evalMaterialized(q, env, ar, an)
	if err != nil {
		return nil, nil, nil, err
	}
	ctx.opts.Stats.in(uint64(right.rows()))
	setNode.addRowsIn(uint64(right.rows()))
	if ctx.opts.NoHash {
		return right, nil, nil, nil
	}
	var t0 time.Time
	if setNode != nil {
		t0 = time.Now()
	}
	buckets, residual := ctx.partitionGroundRows(right)
	if setNode != nil {
		setNode.addTime(time.Since(t0))
	}
	return right, buckets, residual, nil
}

// evalJoin compiles σ_pred(left × right) — a JoinQ or a selection directly
// over a cross product — into the batch hash-join probe pipeline when the
// predicate yields equi-join keys, and into the cross+select stage
// composition otherwise, as joinStrategy decides.
func (ctx *bctx) evalJoin(left, right ra.Query, pred ra.Predicate, env Env, ar ra.ArityEnv, an **PlanNode) (*bpipe, error) {
	var ln, rn *PlanNode
	rv, err := ctx.evalMaterialized(right, env, ar, childPtr(an, &rn))
	if err != nil {
		return nil, err
	}
	keys, la := joinStrategy(left, pred, ar, ctx.opts)
	if ctx.opts.Stats != nil {
		if len(keys) > 0 {
			ctx.opts.Stats.HashJoins++
		} else {
			ctx.opts.Stats.NestedLoopJoins++
		}
	}
	ctx.opts.Stats.in(uint64(rv.rows()))
	p, err := ctx.eval(left, env, ar, childPtr(an, &ln))
	if err != nil {
		return nil, err
	}
	if len(keys) > 0 {
		var t0 time.Time
		if an != nil {
			t0 = time.Now()
		}
		jt := ctx.buildJoinTable(rv, keys)
		p.stages = append(p.stages, &probeBStage{jt: jt, keys: keys, pred: pred, la: la})
		if an != nil {
			n := newPlanNode(labelHashJoin(keys, pred))
			n.addTime(time.Since(t0))
			n.addRowsIn(uint64(rv.rows()))
			n.Children = []*PlanNode{ln, rn}
			wrapLastStage(p, n)
			*an = n
		}
		return p, nil
	}
	p.stages = append(p.stages, &crossBStage{right: rv}, &selectBStage{pred: pred})
	if an != nil {
		// The nested-loop fallback is two operators in the Explain tree:
		// select over cross, as Explain renders them.
		cross := newPlanNode(labelCross)
		cross.addRowsIn(uint64(rv.rows()))
		cross.Children = []*PlanNode{ln, rn}
		p.stages[len(p.stages)-2] = &timedBStage{inner: p.stages[len(p.stages)-2], node: cross}
		sel := newPlanNode(labelSelect(pred))
		sel.Children = []*PlanNode{cross}
		wrapLastStage(p, sel)
		*an = sel
	}
	return p, nil
}

// force drains a pipeline into one contiguous vec (what breakers need).
func (ctx *bctx) force(p *bpipe) (*vec, error) {
	parts, arity, err := ctx.forceParts(p)
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return concatVecs(arity, parts), nil
}

// forceParts drains a pipeline: the source is split into fixed-size morsels,
// each morsel runs through every stage on the worker pool, and the
// per-morsel outputs are returned in morsel order (deterministic for every
// worker count).
func (ctx *bctx) forceParts(p *bpipe) ([]*vec, int, error) {
	if len(p.stages) == 0 {
		return []*vec{p.src}, p.src.arity, nil
	}
	arity := p.src.arity
	for _, s := range p.stages {
		arity = s.outArity(arity)
	}
	n := p.src.rows()
	tasks := (n + BatchSize - 1) / BatchSize
	if tasks == 0 {
		return []*vec{newVec(arity)}, arity, nil
	}
	span := ctx.opts.Trace.Child("pipeline")
	outs := make([]*vec, tasks)
	err := ctx.parallel(tasks, func(t int, st *OpStats) error {
		st.Morsels++
		lo := t * BatchSize
		hi := lo + BatchSize
		if hi > n {
			hi = n
		}
		cur := p.src.view(lo, hi)
		for _, s := range p.stages {
			st.Batches++
			next, err := s.apply(ctx, st, cur)
			if err != nil {
				return err
			}
			cur = next
		}
		outs[t] = cur
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if span.Valid() {
		rows := 0
		for _, o := range outs {
			if o != nil {
				rows += o.rows()
			}
		}
		width := ctx.workers
		if width > tasks {
			width = tasks
		}
		span.SetInt("stages", int64(len(p.stages)))
		span.SetInt("morsels", int64(tasks))
		span.SetInt("workers", int64(width))
		span.SetInt("rows", int64(rows))
		span.End()
	}
	return outs, arity, nil
}

// parallel runs f(0..n-1) at a width of up to ctx.workers goroutines: the
// run's own goroutine always participates, and extra helpers are spawned
// only while Options.Pool (when set) has free slots, so the total number of
// busy morsel goroutines stays bounded process-wide however many queries
// execute concurrently. Each task owns an OpStats merged into the run's
// counters afterwards (sums, so totals are worker-count independent), and
// the error of the lowest-indexed failing task is returned — the same error
// a sequential scan would hit first. Tasks are pulled off a monotone
// counter, so a task can only observe the failure flag of a lower-indexed
// task.
func (ctx *bctx) parallel(n int, f func(task int, st *OpStats) error) error {
	if n == 0 {
		return nil
	}
	stats := make([]OpStats, n)
	errs := make([]error, n)
	width := ctx.workers
	if width > n {
		width = n
	}
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for {
			if failed.Load() {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := f(i, &stats[i]); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}
	}
	if width > 1 {
		var wg sync.WaitGroup
		for w := 1; w < width; w++ {
			if ctx.opts.Pool != nil && !ctx.opts.Pool.tryAcquire() {
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if ctx.opts.Pool != nil {
					defer ctx.opts.Pool.release()
				}
				work()
			}()
		}
		work()
		wg.Wait()
	} else {
		work()
	}
	for i := range stats {
		ctx.opts.Stats.merge(stats[i])
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// encodeModel returns a base model's columns in the run's dictionary, once
// per run (an environment binding the same table under several names shares
// them). A model encoded over the run's base dictionary is used as it is;
// any other has each of its distinct terms interned into the overlay once
// and its columns gathered through that translation. Conditions are shared.
func (ctx *bctx) encodeModel(m Model) *vec {
	if v, ok := ctx.enc[m]; ok {
		return v
	}
	e := encodingOf(m)
	v := e.v
	if e.dict != ctx.base {
		trans := make([]condition.TermID, e.dict.Len())
		for k := range trans {
			trans[k] = ctx.dict.Intern(e.dict.Resolve(condition.TermID(k)))
		}
		v = &vec{arity: e.v.arity, cols: make([][]condition.TermID, e.v.arity), conds: e.v.conds}
		for j, col := range e.v.cols {
			out := make([]condition.TermID, len(col))
			for i, id := range col {
				out[i] = trans[id]
			}
			v.cols[j] = out
		}
	}
	ctx.enc[m] = v
	return v
}

// encodeConst embeds a constant relation: every tuple becomes a row of
// constant terms with the true condition.
func (ctx *bctx) encodeConst(rel *relation.Relation) (*vec, error) {
	if rel.Arity() == 0 {
		return nil, fmt.Errorf("exec: constant relation of arity 0 not supported")
	}
	tuples := rel.Tuples()
	v := newVec(rel.Arity())
	for j := range v.cols {
		v.cols[j] = make([]condition.TermID, 0, len(tuples))
	}
	v.conds = make([]condition.Condition, 0, len(tuples))
	for _, tp := range tuples {
		for j, val := range tp {
			v.cols[j] = append(v.cols[j], ctx.dict.Intern(condition.Const(val)))
		}
		v.conds = append(v.conds, condition.True())
	}
	return v, nil
}

// decodeParts resolves per-morsel result parts back into rows, in part
// order, parallel across parts. All term slices are carved out of one
// freshly allocated slab, so the returned rows alias nothing the caller
// could share and adapters adopt them without a defensive copy.
func (ctx *bctx) decodeParts(arity int, parts []*vec) []Row {
	n := 0
	offsets := make([]int, len(parts))
	for t, p := range parts {
		offsets[t] = n
		n += p.rows()
	}
	if n == 0 {
		return nil
	}
	rows := make([]Row, n)
	slab := make([]condition.Term, n*arity)
	// Decode cannot fail; parallel's error plumbing is unused here.
	_ = ctx.parallel(len(parts), func(t int, _ *OpStats) error {
		v := parts[t]
		for i, off := 0, offsets[t]; i < v.rows(); i++ {
			k := off + i
			terms := slab[k*arity : (k+1)*arity : (k+1)*arity]
			for j := range terms {
				terms[j] = ctx.dict.Resolve(v.cols[j][i])
			}
			rows[k] = Row{Terms: terms, Cond: v.conds[i]}
		}
		return nil
	})
	return rows
}

// and2 is opts.cond(And(a, b)) with an allocation-free fast path when both
// operands are atoms (constants or comparisons): the hot case of a hash join
// conjoining two true conditions. The fast path reproduces the simplifier's
// output exactly (including junct deduplication), so the result is
// byte-identical to the slow path's.
func (ctx *bctx) and2(a, b condition.Condition) condition.Condition {
	if ctx.opts.Simplify && isAtom(a) && isAtom(b) {
		sa, sb := simplifyAtom(a), simplifyAtom(b)
		if _, ok := sa.(condition.FalseCond); ok {
			return condition.False()
		}
		if _, ok := sb.(condition.FalseCond); ok {
			return condition.False()
		}
		if _, ok := sa.(condition.TrueCond); ok {
			return sb
		}
		if _, ok := sb.(condition.TrueCond); ok {
			return sa
		}
		// Two comparisons: Simplify deduplicates identical juncts.
		if sa.String() == sb.String() {
			return sa
		}
		return condition.And(sa, sb)
	}
	return ctx.opts.cond(condition.And(a, b))
}

// isAtom reports whether c is a constant or a comparison — the shapes whose
// simplification is allocation-free.
func isAtom(c condition.Condition) bool {
	switch c.(type) {
	case condition.TrueCond, condition.FalseCond, condition.Cmp:
		return true
	}
	return false
}

// simplifyAtom is condition.Simplify restricted to atoms, returning the
// original interface value for irreducible comparisons instead of re-boxing
// them (Simplify's constant folds are replicated exactly).
func simplifyAtom(c condition.Condition) condition.Condition {
	cmp, ok := c.(condition.Cmp)
	if !ok {
		return c // the constants simplify to themselves
	}
	if !cmp.Left.IsVar && !cmp.Right.IsVar {
		eq := cmp.Left.Const == cmp.Right.Const
		if cmp.Neq {
			eq = !eq
		}
		return boolCond(eq)
	}
	if cmp.Left.IsVar && cmp.Right.IsVar && cmp.Left.Var == cmp.Right.Var {
		return boolCond(!cmp.Neq)
	}
	return c
}

// selectBStage is σ̄_p over a morsel: terms are untouched (columns shared
// zero-copy), conditions are strengthened with the symbolic predicate.
type selectBStage struct {
	pred ra.Predicate
}

func (s *selectBStage) outArity(in int) int { return in }

func (s *selectBStage) apply(ctx *bctx, _ *OpStats, in *vec) (*vec, error) {
	out := &vec{arity: in.arity, cols: in.cols, conds: make([]condition.Condition, in.rows())}
	for i := range out.conds {
		c, err := ctx.selectCond(in.conds[i], s.pred, idTuple{a: in, ai: i})
		if err != nil {
			return nil, err
		}
		out.conds[i] = c
	}
	return out, nil
}

// selectCond is opts.cond(And(c, pc)) for the condition pc of predicate p on
// tup. Under Simplify a predicate that folds to a constant (foldPredIDs) is
// never built: the result is false whatever c is, and c simplified when the
// predicate holds — byte-identical to simplifying the conjunction, without
// allocating when c is an atom.
func (ctx *bctx) selectCond(c condition.Condition, p ra.Predicate, tup idTuple) (condition.Condition, error) {
	if ctx.opts.Simplify {
		holds, ground, err := foldPredIDs(ctx.dict, p, tup)
		if err != nil {
			return nil, err
		}
		if ground {
			switch {
			case !holds:
				return condition.False(), nil
			case isAtom(c):
				return simplifyAtom(c), nil
			default:
				return condition.Simplify(c), nil
			}
		}
	}
	pc, err := predCondIDs(ctx.dict, p, tup)
	if err != nil {
		return nil, err
	}
	return ctx.and2(c, pc), nil
}

// crossBStage is ×̄ with a materialized right side: every morsel row is
// paired with every right row, in nested-loop order.
type crossBStage struct {
	right *vec
}

func (s *crossBStage) outArity(in int) int { return in + s.right.arity }

func (s *crossBStage) apply(ctx *bctx, st *OpStats, in *vec) (*vec, error) {
	la := in.arity
	out := newVec(la + s.right.arity)
	rn := s.right.rows()
	out.grow(in.rows() * rn)
	for i := 0; i < in.rows(); i++ {
		st.in(1)
		for ri := 0; ri < rn; ri++ {
			st.out(1)
			appendPair(out, in, i, s.right, ri)
			out.conds = append(out.conds, ctx.and2(in.conds[i], s.right.conds[ri]))
		}
	}
	return out, nil
}

// appendPair appends the concatenation of left row li and right row ri.
func appendPair(out *vec, left *vec, li int, right *vec, ri int) {
	la := left.arity
	for j := 0; j < la; j++ {
		out.cols[j] = append(out.cols[j], left.cols[j][li])
	}
	for j := 0; j < right.arity; j++ {
		out.cols[la+j] = append(out.cols[la+j], right.cols[j][ri])
	}
}

// joinTable is the build side of a batch hash join: right rows partitioned
// by the packed interned IDs of their ground key columns, rows with variable
// key cells in the residual, plus the precomputed all-rows index list for
// probe rows with variable key cells. Read-only during probing.
type joinTable struct {
	right    *vec
	buckets  map[string][]int32
	residual []int32
	all      []int32
}

func (ctx *bctx) buildJoinTable(right *vec, keys []JoinKey) *joinTable {
	jt := &joinTable{right: right, buckets: make(map[string][]int32)}
	n := right.rows()
	jt.all = make([]int32, n)
	var buf []byte
	for i := 0; i < n; i++ {
		jt.all[i] = int32(i)
		key, ok := ctx.packKey(buf[:0], right, i, keys, false)
		buf = key
		if !ok {
			jt.residual = append(jt.residual, int32(i))
			continue
		}
		jt.buckets[string(key)] = append(jt.buckets[string(key)], int32(i))
	}
	return jt
}

// packKey appends the packed interned IDs of the row's key columns to dst;
// ok is false when any key cell is a variable term. Interning is injective,
// so equal packed keys mean componentwise equal ground terms — a partition
// by ground key value, built without rendering values.
func (ctx *bctx) packKey(dst []byte, v *vec, row int, keys []JoinKey, probe bool) ([]byte, bool) {
	for _, k := range keys {
		col := k.Right
		if probe {
			col = k.Left
		}
		id := v.cols[col][row]
		if ctx.dict.IsVar(id) {
			return dst, false
		}
		dst = append(dst, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return dst, true
}

// packRowKey packs all columns of a ground row; ok is false when any cell is
// a variable term (the build phase of hash difference/intersection).
func (ctx *bctx) packRowKey(dst []byte, v *vec, row int) ([]byte, bool) {
	for j := 0; j < v.arity; j++ {
		id := v.cols[j][row]
		if ctx.dict.IsVar(id) {
			return dst, false
		}
		dst = append(dst, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return dst, true
}

// partitionGroundRows splits a materialized side into ground-tuple buckets
// plus the residual indexes of rows with variable cells.
func (ctx *bctx) partitionGroundRows(v *vec) (map[string][]int32, []int32) {
	buckets := make(map[string][]int32)
	var residual []int32
	var buf []byte
	for i := 0; i < v.rows(); i++ {
		key, ok := ctx.packRowKey(buf[:0], v, i)
		buf = key
		if !ok {
			residual = append(residual, int32(i))
			continue
		}
		buckets[string(key)] = append(buckets[string(key)], int32(i))
	}
	return buckets, residual
}

// probeBStage is the probe pipeline of the symbolic hash join: each morsel
// row probes the bucket matching its ground key IDs and scans the residual;
// rows with variable key cells scan the whole build side. Pairs are emitted
// in ascending build-row order with exactly the conditions the nested-loop
// path would build.
type probeBStage struct {
	jt   *joinTable
	keys []JoinKey
	pred ra.Predicate
	la   int
}

func (s *probeBStage) outArity(in int) int { return in + s.jt.right.arity }

func (s *probeBStage) apply(ctx *bctx, st *OpStats, in *vec) (*vec, error) {
	right := s.jt.right
	out := newVec(in.arity + right.arity)
	// A ground probe emits at least its residual candidates; size for one
	// bucket hit per probe plus the residual scans (exact on selective
	// equi-joins, a lower bound otherwise).
	out.grow(in.rows() * (1 + len(s.jt.residual)))
	var keyBuf []byte
	var candBuf []int32
	for i := 0; i < in.rows(); i++ {
		st.in(1)
		var cand []int32
		key, ground := ctx.packKey(keyBuf[:0], in, i, s.keys, true)
		keyBuf = key
		if !ground {
			st.residual(uint64(right.rows()))
			cand = s.jt.all
		} else {
			st.probe()
			st.residual(uint64(len(s.jt.residual)))
			bucket := s.jt.buckets[string(key)]
			switch {
			case len(s.jt.residual) == 0:
				cand = bucket
			case len(bucket) == 0:
				cand = s.jt.residual
			default:
				candBuf = mergeAscending(candBuf, bucket, s.jt.residual)
				cand = candBuf
			}
		}
		for _, ri := range cand {
			cross := ctx.and2(in.conds[i], right.conds[ri])
			c, err := ctx.selectCond(cross, s.pred, idTuple{a: in, ai: i, b: right, bi: int(ri), split: s.la})
			if err != nil {
				return nil, err
			}
			st.out(1)
			appendPair(out, in, i, right, int(ri))
			out.conds = append(out.conds, c)
		}
	}
	return out, nil
}

// resimplifyBStage re-simplifies every row condition (what a union applies
// to both arms).
type resimplifyBStage struct{}

func (resimplifyBStage) outArity(in int) int { return in }

func (resimplifyBStage) apply(ctx *bctx, _ *OpStats, in *vec) (*vec, error) {
	out := &vec{arity: in.arity, cols: in.cols, conds: make([]condition.Condition, in.rows())}
	for i := range out.conds {
		out.conds[i] = ctx.opts.cond(in.conds[i])
	}
	return out, nil
}

// diffBStage is −̄ over a morsel: each left row keeps its terms and its
// condition is strengthened with ¬(φ2 ∧ t1=t2) for every right row it can
// possibly equal (the bucket+residual candidates on the hash path, every
// right row otherwise).
type diffBStage struct {
	right    *vec
	buckets  map[string][]int32
	residual []int32
}

func (s *diffBStage) outArity(in int) int { return in }

func (s *diffBStage) apply(ctx *bctx, st *OpStats, in *vec) (*vec, error) {
	out := &vec{arity: in.arity, cols: in.cols, conds: make([]condition.Condition, in.rows())}
	var keyBuf, candBuf = []byte(nil), []int32(nil)
	for i := range out.conds {
		st.in(1)
		conds := []condition.Condition{in.conds[i]}
		idxs, hashed, kb, cb := setOpCandidates(ctx, st, s.buckets, s.residual, s.right, in, i, keyBuf, candBuf)
		keyBuf, candBuf = kb, cb
		if hashed {
			for _, ri := range idxs {
				conds = append(conds, condition.Not(condition.And(s.right.conds[ri], rowEqualityIDs(ctx.dict, in, i, s.right, int(ri)))))
			}
		} else {
			for ri := 0; ri < s.right.rows(); ri++ {
				conds = append(conds, condition.Not(condition.And(s.right.conds[ri], rowEqualityIDs(ctx.dict, in, i, s.right, ri))))
			}
		}
		st.out(1)
		out.conds[i] = ctx.opts.cond(condition.And(conds...))
	}
	return out, nil
}

// intersectBStage is ∩̄ over a morsel: each left row's condition becomes
// φ1 ∧ ⋁ (φ2 ∧ t1=t2) over its candidate right rows.
type intersectBStage struct {
	right    *vec
	buckets  map[string][]int32
	residual []int32
}

func (s *intersectBStage) outArity(in int) int { return in }

func (s *intersectBStage) apply(ctx *bctx, st *OpStats, in *vec) (*vec, error) {
	out := &vec{arity: in.arity, cols: in.cols, conds: make([]condition.Condition, in.rows())}
	var keyBuf, candBuf = []byte(nil), []int32(nil)
	for i := range out.conds {
		st.in(1)
		var disj []condition.Condition
		idxs, hashed, kb, cb := setOpCandidates(ctx, st, s.buckets, s.residual, s.right, in, i, keyBuf, candBuf)
		keyBuf, candBuf = kb, cb
		if hashed {
			disj = make([]condition.Condition, 0, len(idxs))
			for _, ri := range idxs {
				disj = append(disj, condition.And(s.right.conds[ri], rowEqualityIDs(ctx.dict, in, i, s.right, int(ri))))
			}
		} else {
			disj = make([]condition.Condition, 0, s.right.rows())
			for ri := 0; ri < s.right.rows(); ri++ {
				disj = append(disj, condition.And(s.right.conds[ri], rowEqualityIDs(ctx.dict, in, i, s.right, ri)))
			}
		}
		st.out(1)
		out.conds[i] = ctx.opts.cond(condition.And(in.conds[i], condition.Or(disj...)))
	}
	return out, nil
}

// setOpCandidates returns the right rows a left row can possibly equal, in
// ascending order; hashed is false when the pairwise scan must run (hash
// path off, or the left row has variable cells), reusing the caller's key
// and candidate buffers.
func setOpCandidates(ctx *bctx, st *OpStats, buckets map[string][]int32, residual []int32, right, in *vec, row int, keyBuf []byte, candBuf []int32) ([]int32, bool, []byte, []int32) {
	if buckets == nil {
		return nil, false, keyBuf, candBuf
	}
	key, ok := ctx.packRowKey(keyBuf[:0], in, row)
	if !ok {
		st.residual(uint64(right.rows()))
		return nil, false, key, candBuf
	}
	st.probe()
	st.residual(uint64(len(residual)))
	candBuf = mergeAscending(candBuf, buckets[string(key)], residual)
	return candBuf, true, key, candBuf
}

// project is π̄_cols: the grouping hashes are computed morsel-parallel, then
// groups merge sequentially in global row order (first-occurrence order with
// iteratively disjoined conditions, exactly like the eager π̄), so
// the output is independent of the worker count.
func (ctx *bctx) project(in *vec, cols []int) *vec {
	n := in.rows()
	out := newVec(len(cols))
	if n == 0 {
		return out
	}
	hashes := make([]uint64, n)
	tasks := (n + BatchSize - 1) / BatchSize
	_ = ctx.parallel(tasks, func(t int, st *OpStats) error {
		st.Morsels++
		st.Batches++
		lo := t * BatchSize
		hi := lo + BatchSize
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			h := uint64(14695981039346656037)
			for _, c := range cols {
				h ^= uint64(in.cols[c][i]) + 1
				h *= 1099511628211
			}
			hashes[i] = h
		}
		return nil
	})
	buckets := make(map[uint64][]int32)
	st := ctx.opts.Stats
	for i := 0; i < n; i++ {
		st.in(1)
		group := -1
		for _, g := range buckets[hashes[i]] {
			if projectedRowsEqual(out, int(g), in, i, cols) {
				group = int(g)
				break
			}
		}
		if group >= 0 {
			out.conds[group] = ctx.opts.cond(condition.Or(out.conds[group], in.conds[i]))
			continue
		}
		for j, c := range cols {
			out.cols[j] = append(out.cols[j], in.cols[c][i])
		}
		out.conds = append(out.conds, ctx.opts.cond(in.conds[i]))
		buckets[hashes[i]] = append(buckets[hashes[i]], int32(len(out.conds)-1))
		st.out(1)
	}
	return out
}

// projectedRowsEqual compares an output group row against a projected input
// row, componentwise on interned IDs.
func projectedRowsEqual(out *vec, g int, in *vec, i int, cols []int) bool {
	for j, c := range cols {
		if out.cols[j][g] != in.cols[c][i] {
			return false
		}
	}
	return true
}

// rowEqualityIDs is RowEquality over encoded rows: componentwise term
// equality with ground comparisons folded by ID compare.
func rowEqualityIDs(dict *condition.TermInterner, left *vec, li int, right *vec, ri int) condition.Condition {
	conds := make([]condition.Condition, 0, left.arity)
	for j := 0; j < left.arity; j++ {
		conds = append(conds, termEqualityIDs(dict, left.cols[j][li], right.cols[j][ri]))
	}
	return condition.And(conds...)
}

// termEqualityIDs folds the equality of two interned terms: identical terms
// (one ID) are true, distinct ground terms are false, anything else is the
// symbolic equality — exactly TermEquality's constant folding, without
// resolving in the ground cases.
func termEqualityIDs(dict *condition.TermInterner, a, b condition.TermID) condition.Condition {
	if a == b {
		return condition.True()
	}
	if !dict.IsVar(a) && !dict.IsVar(b) {
		return condition.False()
	}
	return condition.Cmp{Left: dict.Resolve(a), Right: dict.Resolve(b)}
}

// idTuple addresses one (possibly concatenated) encoded row: columns below
// split come from row ai of a, the rest from row bi of b. With b nil it is a
// plain row of a.
type idTuple struct {
	a, b   *vec
	ai, bi int
	split  int
}

func (t idTuple) arity() int {
	if t.b == nil {
		return t.a.arity
	}
	return t.split + t.b.arity
}

func (t idTuple) id(c int) condition.TermID {
	if t.b == nil || c < t.split {
		return t.a.cols[c][t.ai]
	}
	return t.b.cols[c-t.split][t.bi]
}

// predCondIDs is PredicateCondition over an encoded row: comparisons whose
// sides resolve to ground terms are folded by ID/value compare without
// allocating, and symbolic atoms are built from the resolved terms — the
// same conditions, in the same operand order, as PredicateCondition.
func predCondIDs(dict *condition.TermInterner, p ra.Predicate, tup idTuple) (condition.Condition, error) {
	switch p := p.(type) {
	case ra.TruePred:
		return condition.True(), nil
	case ra.FalsePred:
		return condition.False(), nil
	case ra.Cmp:
		return cmpCondIDs(dict, p, tup)
	case ra.And:
		conds := make([]condition.Condition, 0, len(p.Preds))
		for _, sub := range p.Preds {
			c, err := predCondIDs(dict, sub, tup)
			if err != nil {
				return nil, err
			}
			conds = append(conds, c)
		}
		return condition.And(conds...), nil
	case ra.Or:
		conds := make([]condition.Condition, 0, len(p.Preds))
		for _, sub := range p.Preds {
			c, err := predCondIDs(dict, sub, tup)
			if err != nil {
				return nil, err
			}
			conds = append(conds, c)
		}
		return condition.Or(conds...), nil
	case ra.Not:
		c, err := predCondIDs(dict, p.Pred, tup)
		if err != nil {
			return nil, err
		}
		return condition.Not(c), nil
	default:
		return nil, fmt.Errorf("exec: unsupported predicate %T", p)
	}
}

// cmpCondIDs translates one comparison: a ground one folds to true/false
// (foldCmpIDs), and a variable-involving equality builds the symbolic Cmp
// with operand sides preserved.
func cmpCondIDs(dict *condition.TermInterner, p ra.Cmp, tup idTuple) (condition.Condition, error) {
	holds, ground, err := foldCmpIDs(dict, p, tup)
	if err != nil {
		return nil, err
	}
	if ground {
		return boolCond(holds), nil
	}
	return condition.Cmp{Left: cmpSide(dict, p.Left, tup), Neq: p.Op == ra.OpNe, Right: cmpSide(dict, p.Right, tup)}, nil
}

// cmpSide is the term a (validated) comparison side denotes on tup.
func cmpSide(dict *condition.TermInterner, t ra.Term, tup idTuple) condition.Term {
	if t.IsCol {
		return dict.Resolve(tup.id(t.Col))
	}
	return condition.Const(t.Const)
}

// foldPredIDs evaluates p on an encoded row by ID and value compare alone.
// ground reports whether every comparison folded to a constant, and holds is
// then p's truth value — the constant the condition predCondIDs builds
// simplifies to. Sub-predicates are evaluated in order without short
// circuit, so an error is the one predCondIDs reports; the first symbolic
// comparison stops the fold, and predCondIDs then builds the condition.
func foldPredIDs(dict *condition.TermInterner, p ra.Predicate, tup idTuple) (holds, ground bool, err error) {
	switch p := p.(type) {
	case ra.TruePred:
		return true, true, nil
	case ra.FalsePred:
		return false, true, nil
	case ra.Cmp:
		return foldCmpIDs(dict, p, tup)
	case ra.And:
		return foldJunctIDs(dict, p.Preds, true, tup)
	case ra.Or:
		return foldJunctIDs(dict, p.Preds, false, tup)
	case ra.Not:
		h, g, err := foldPredIDs(dict, p.Pred, tup)
		return !h, g, err
	default:
		return false, false, fmt.Errorf("exec: unsupported predicate %T", p)
	}
}

// foldJunctIDs folds a conjunction (isAnd) or disjunction of preds.
func foldJunctIDs(dict *condition.TermInterner, preds []ra.Predicate, isAnd bool, tup idTuple) (holds, ground bool, err error) {
	holds = isAnd
	for _, sub := range preds {
		h, g, err := foldPredIDs(dict, sub, tup)
		if err != nil || !g {
			return false, g, err
		}
		if h != isAnd {
			holds = h
		}
	}
	return holds, true, nil
}

// foldCmpIDs folds one comparison when it is ground: equal IDs are equal
// terms, distinct ground IDs distinct ones (interning is injective), and a
// literal compares by value. An equality involving a variable does not fold
// (ground false); an ordering comparison requires ground operands, as in
// PredicateCondition.
func foldCmpIDs(dict *condition.TermInterner, p ra.Cmp, tup idTuple) (holds, ground bool, err error) {
	lid, lCol, err := resolveIDTerm(p.Left, tup)
	if err != nil {
		return false, false, err
	}
	rid, rCol, err := resolveIDTerm(p.Right, tup)
	if err != nil {
		return false, false, err
	}
	switch p.Op {
	case ra.OpEq, ra.OpNe:
		neq := p.Op == ra.OpNe
		switch {
		case lCol && rCol:
			if lid == rid {
				return !neq, true, nil
			}
			if dict.IsVar(lid) || dict.IsVar(rid) {
				return false, false, nil
			}
			return neq, true, nil
		case lCol:
			lt := dict.Resolve(lid)
			return (lt.Const == p.Right.Const) != neq, !lt.IsVar, nil
		case rCol:
			rt := dict.Resolve(rid)
			return (p.Left.Const == rt.Const) != neq, !rt.IsVar, nil
		default:
			return (p.Left.Const == p.Right.Const) != neq, true, nil
		}
	default:
		lv, lVar := constOf(dict, p.Left, lid, lCol)
		rv, rVar := constOf(dict, p.Right, rid, rCol)
		if lVar || rVar {
			return false, false, fmt.Errorf("exec: ordering comparison %s applied to a variable term", p.Op)
		}
		return p.Op.Holds(lv, rv), true, nil
	}
}

// resolveIDTerm resolves a predicate term: a column reference yields the
// row's interned ID, a literal stays a literal (isCol false).
func resolveIDTerm(t ra.Term, tup idTuple) (condition.TermID, bool, error) {
	if !t.IsCol {
		return 0, false, nil
	}
	if t.Col < 0 || t.Col >= tup.arity() {
		return 0, false, fmt.Errorf("exec: predicate column %d out of range", t.Col+1)
	}
	return tup.id(t.Col), true, nil
}

// constOf extracts the ground value of a comparison side; isVar reports a
// variable column term.
func constOf(dict *condition.TermInterner, t ra.Term, id condition.TermID, isCol bool) (value.Value, bool) {
	if !isCol {
		return t.Const, false
	}
	term := dict.Resolve(id)
	if term.IsVar {
		return value.Value{}, true
	}
	return term.Const, false
}

func boolCond(b bool) condition.Condition {
	if b {
		return condition.True()
	}
	return condition.False()
}
