package exec

import (
	"sync/atomic"
	"time"

	"uncertaindb/internal/obs"
	"uncertaindb/internal/ra"
)

// This file is the EXPLAIN ANALYZE layer: Analyze executes a query with
// per-operator instrumentation and returns the physical plan tree annotated
// with time, rows in/out and probe/residual counts. The tree structure is
// deterministic — operator labels are the exact strings Explain renders
// (label* in physical.go, shared so the two cannot drift), children are in
// plan order, and every counter is worker-count independent (the batch
// engine's morsel boundaries and merge order are fixed) — so the JSON
// rendering with timings zeroed (ZeroTimings) is golden-testable across the
// whole rewrites × hash grid. Only the timings vary run to run.
//
// The instrumentation is real, not simulated: eval threads plan nodes
// through the run, wraps every streaming stage in a timing decorator
// (atomic accumulation — morsels of one stage run concurrently) and times
// the pipeline breakers inline. Stage times are summed CPU time across
// morsels, so on parallel plans a node's time can exceed wall clock.

// PlanNode is one operator of an analyzed plan: the Explain label plus the
// measured execution counters. The JSON field order is the canonical
// rendering; Children appear in plan (left-to-right) order.
type PlanNode struct {
	// Op is the operator label, exactly as Explain renders it ("batch-"
	// prefix included).
	Op string `json:"op"`
	// Rows is the number of rows the operator emitted.
	Rows uint64 `json:"rows"`
	// RowsIn counts rows consumed by the counting operators (joins, cross
	// products, pipeline breakers); zero for purely streaming operators.
	RowsIn uint64 `json:"rowsIn"`
	// HashProbes counts bucket lookups by ground probe rows.
	HashProbes uint64 `json:"hashProbes"`
	// ResidualHits counts candidate pairs drawn from the residual path.
	ResidualHits uint64 `json:"residualHits"`
	// TimeNanos is the measured execution time of this operator: summed
	// per-morsel CPU time, exclusive of children.
	TimeNanos int64 `json:"timeNanos"`
	// Children are the operator's inputs in plan order.
	Children []*PlanNode `json:"children,omitempty"`

	rowsA     atomic.Uint64
	rowsInA   atomic.Uint64
	probesA   atomic.Uint64
	residualA atomic.Uint64
	timeA     atomic.Int64
}

func newPlanNode(label string) *PlanNode { return &PlanNode{Op: planPrefix + label} }

// addStats folds one morsel's stage-local counters into the node.
func (n *PlanNode) addStats(o OpStats) {
	if o.RowsIn > 0 {
		n.rowsInA.Add(o.RowsIn)
	}
	if o.HashProbes > 0 {
		n.probesA.Add(o.HashProbes)
	}
	if o.ResidualHits > 0 {
		n.residualA.Add(o.ResidualHits)
	}
}

// addRowsIn / addTime are nil-safe accumulation helpers for the batch
// breakers (no-ops when the run is not being analyzed).

func (n *PlanNode) addRowsIn(v uint64) {
	if n != nil {
		n.rowsInA.Add(v)
	}
}

func (n *PlanNode) addTime(d time.Duration) {
	if n != nil {
		n.timeA.Add(int64(d))
	}
}

// finalize folds the accumulators into the exported fields, recursively.
func (n *PlanNode) finalize() {
	n.Rows = n.rowsA.Load()
	n.RowsIn = n.rowsInA.Load()
	n.HashProbes = n.probesA.Load()
	n.ResidualHits = n.residualA.Load()
	n.TimeNanos = n.timeA.Load()
	for _, c := range n.Children {
		c.finalize()
	}
}

// ZeroTimings recursively zeroes TimeNanos, leaving the deterministic
// structure and counters — what golden tests compare.
func (n *PlanNode) ZeroTimings() {
	if n == nil {
		return
	}
	n.TimeNanos = 0
	for _, c := range n.Children {
		c.ZeroTimings()
	}
}

// Analyze validates q, optionally rewrites it, executes it with
// per-operator instrumentation and returns the annotated plan tree. The
// answer rows are computed and discarded — Analyze measures a real
// execution of the same physical plan Run would choose (same join
// strategies), it does not re-derive the answer for the caller.
func Analyze(q ra.Query, env Env, opts Options) (*PlanNode, error) {
	arities := modelArities(env)
	if _, err := ra.Arity(q, arities); err != nil {
		return nil, err
	}
	if opts.Rewrite {
		q = Rewrite(q, arities)
	}
	// Per-node counters only: the caller's aggregate stats and trace belong
	// to the production run, not the instrumented re-execution.
	opts.Stats = nil
	opts.Trace = obs.SpanRef{}
	ctx := newBctx(env, opts)
	var root *PlanNode
	p, err := ctx.eval(q, env, arities, &root)
	if err != nil {
		return nil, err
	}
	if _, _, err := ctx.forceParts(p); err != nil {
		return nil, err
	}
	root.finalize()
	return root, nil
}

// timedBStage decorates one batch pipeline stage: per morsel it times the
// stage, counts emitted rows, and folds the stage-local OpStats into both
// the node (per-operator attribution) and the task's stats (global
// totals). Morsels of one stage run concurrently, hence the atomics.
type timedBStage struct {
	inner bstage
	node  *PlanNode
}

func (t *timedBStage) outArity(in int) int { return t.inner.outArity(in) }

func (t *timedBStage) apply(ctx *bctx, st *OpStats, in *vec) (*vec, error) {
	var local OpStats
	t0 := time.Now()
	out, err := t.inner.apply(ctx, &local, in)
	t.node.timeA.Add(int64(time.Since(t0)))
	st.Add(local)
	t.node.addStats(local)
	if out != nil {
		t.node.rowsA.Add(uint64(out.rows()))
	}
	return out, err
}

// wrapLastStage replaces the just-appended stage of p with its timed
// decorator attributed to n.
func wrapLastStage(p *bpipe, n *PlanNode) {
	p.stages[len(p.stages)-1] = &timedBStage{inner: p.stages[len(p.stages)-1], node: n}
}

// childPtr passes analysis down one eval recursion: nil stays nil (not
// analyzing), otherwise the child case fills *c with its node.
func childPtr(an **PlanNode, c **PlanNode) **PlanNode {
	if an == nil {
		return nil
	}
	return c
}
