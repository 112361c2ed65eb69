package exec

import (
	"fmt"
	"strconv"
	"strings"

	"uncertaindb/internal/ra"
)

// This file is the physical side of the planning split: the join strategy
// the batch engine (batch.go) executes, its counters, and Explain's rendering
// of the plan. Where the textbook definitions pair every row with every row,
// the batch engine uses hash-based strategies:
//
//   - σ_p(L ×̄ R) — the shape of every θ-join after rewriting — runs as a
//     symbolic hash join when joinStrategy extracts equi-join keys: the
//     build (right) side is partitioned on the ground values of the key
//     columns. Rows whose key cells are variable terms cannot be placed in a
//     value bucket; they fall into a residual bucket that every probe also
//     scans nested-loop, so symbolic matches (x = 5, x = y) are still
//     produced and Mod is preserved exactly. Probe rows with variable key
//     cells scan the whole build side for the same reason.
//   - difference and intersection partition their materialized right side
//     by ground tuple so a ground left row only pairs with rows that can
//     possibly equal it; skipped pairs are exactly those whose equality
//     condition is constant-false, which contribute a trivially-true
//     conjunct (difference) or a false disjunct (intersection).
//
// The pairs a hash strategy skips all carry conditions with a constant-false
// conjunct, so the represented set of instances and every tuple marginal are
// identical to the nested-loop path; only the syntactic answer table differs
// (it no longer contains rows whose condition is the constant false).
// Options.NoHash restores the nested-loop path, which is byte-identical to
// the frozen eager evaluator.

// OpStats counts the work the physical operators did while executing plans.
// Counters are written without synchronization: share one OpStats across
// concurrent runs only if aggregated afterwards (the engine allocates one
// per compilation).
type OpStats struct {
	// RowsIn is the number of rows the counting operators (joins, cross
	// products, pipeline breakers) consumed from their inputs.
	RowsIn uint64 `json:"rowsIn"`
	// RowsOut is the number of rows those operators emitted.
	RowsOut uint64 `json:"rowsOut"`
	// HashJoins / NestedLoopJoins count how many σ(×)/join operators were
	// compiled to the symbolic hash join vs the nested-loop fallback.
	HashJoins       uint64 `json:"hashJoins"`
	NestedLoopJoins uint64 `json:"nestedLoopJoins"`
	// HashProbes counts bucket lookups by ground probe rows (joins and
	// hash-partitioned difference/intersection).
	HashProbes uint64 `json:"hashProbes"`
	// ResidualHits counts candidate pairs drawn from the residual path:
	// build rows with variable key cells that every probe must scan, plus
	// whole-side scans forced by probe rows with variable key cells.
	ResidualHits uint64 `json:"residualHits"`
	// Batches counts batch-stage applications executed by the vectorized
	// engine (one per streaming stage per morsel).
	Batches uint64 `json:"batches"`
	// Morsels counts the morsel tasks the parallel driver ran (fixed-size
	// scan splits pushed through fused operator pipelines).
	Morsels uint64 `json:"morsels"`
}

// Add accumulates o into s.
func (s *OpStats) Add(o OpStats) {
	s.RowsIn += o.RowsIn
	s.RowsOut += o.RowsOut
	s.HashJoins += o.HashJoins
	s.NestedLoopJoins += o.NestedLoopJoins
	s.HashProbes += o.HashProbes
	s.ResidualHits += o.ResidualHits
	s.Batches += o.Batches
	s.Morsels += o.Morsels
}

// merge is the nil-receiver Add used when batch tasks fold their local
// counters into the run's (possibly absent) stats.
func (s *OpStats) merge(o OpStats) {
	if s != nil {
		s.Add(o)
	}
}

// The nil-receiver increment helpers let operators count unconditionally.

func (s *OpStats) in(n uint64) {
	if s != nil {
		s.RowsIn += n
	}
}

func (s *OpStats) out(n uint64) {
	if s != nil {
		s.RowsOut += n
	}
}

func (s *OpStats) probe() {
	if s != nil {
		s.HashProbes++
	}
}

func (s *OpStats) residual(n uint64) {
	if s != nil {
		s.ResidualHits += n
	}
}

// joinStrategy picks how σ_pred(left × right) executes: the equi-join keys
// of a symbolic hash join, or none — hash path off, or no cross-side
// column=column conjunct — for the selection over a nested-loop cross
// product. la is left's arity, the probe side's split point. The batch
// engine and Explain both take the strategy from here, so the plan text
// cannot drift from what ran.
func joinStrategy(left ra.Query, pred ra.Predicate, ar ra.ArityEnv, opts Options) (keys []JoinKey, la int) {
	la, err := ra.Arity(left, ar)
	if err != nil || opts.NoHash {
		return nil, la
	}
	keys, _ = SplitJoinPredicate(pred, la)
	return keys, la
}

// mergeAscending merges two ascending index lists into buf.
func mergeAscending(buf, a, b []int32) []int32 {
	buf = buf[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			buf = append(buf, a[i])
			i++
		} else {
			buf = append(buf, b[j])
			j++
		}
	}
	buf = append(buf, a[i:]...)
	return append(buf, b[j:]...)
}

// planPrefix marks every operator line of a rendered plan (Explain and
// Analyze's PlanNode.Op) as executed by the vectorized batch engine.
const planPrefix = "batch-"

// Explain renders the physical plan Run executes for q — one line per
// operator, children indented, every operator prefixed "batch-" — after
// applying the same validation and rewriting Run would. It is what the
// engine caches alongside a compiled plan and what /v1/query returns in the
// "plan" field. Its lines are the pre-order rendering of Analyze's plan
// tree.
func Explain(q ra.Query, env Env, opts Options) (string, error) {
	arities := modelArities(env)
	if _, err := ra.Arity(q, arities); err != nil {
		return "", err
	}
	if opts.Rewrite {
		q = Rewrite(q, arities)
	}
	e := explainer{ar: arities, opts: opts}
	if err := e.node(q, 0); err != nil {
		return "", err
	}
	return strings.TrimSuffix(e.b.String(), "\n"), nil
}

// explainer walks a validated (and possibly rewritten) query in the shape
// the batch engine's eval executes it.
type explainer struct {
	b    strings.Builder
	ar   ra.ArityEnv
	opts Options
}

// op writes one operator line at depth, then its inputs one level deeper.
func (e *explainer) op(depth int, label string, inputs ...ra.Query) error {
	e.b.WriteString(strings.Repeat("  ", depth))
	e.b.WriteString(planPrefix)
	e.b.WriteString(label)
	e.b.WriteByte('\n')
	for _, in := range inputs {
		if err := e.node(in, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// node renders the operator(s) q executes as, at depth.
func (e *explainer) node(q ra.Query, depth int) error {
	switch q := q.(type) {
	case ra.BaseRel:
		return e.op(depth, labelScan(q.Name))
	case ra.ConstRel:
		return e.op(depth, labelConst(len(q.Rel.Tuples())))
	case ra.SelectQ:
		if cq, ok := q.Input.(ra.CrossQ); ok {
			return e.join(cq.Left, cq.Right, q.Pred, depth)
		}
		return e.op(depth, labelSelect(q.Pred), q.Input)
	case ra.ProjectQ:
		return e.op(depth, labelProject(q.Cols), q.Input)
	case ra.CrossQ:
		return e.op(depth, labelCross, q.Left, q.Right)
	case ra.JoinQ:
		return e.join(q.Left, q.Right, q.Pred, depth)
	case ra.UnionQ:
		return e.op(depth, labelUnion, q.Left, q.Right)
	case ra.DiffQ:
		return e.op(depth, labelDiff(e.opts), q.Left, q.Right)
	case ra.IntersectQ:
		return e.op(depth, labelIntersect(e.opts), q.Left, q.Right)
	default:
		return fmt.Errorf("exec: unsupported query node %T", q)
	}
}

// join renders σ_pred(left × right): one hash-join operator, or the
// nested-loop fallback's two operators, select over cross.
func (e *explainer) join(left, right ra.Query, pred ra.Predicate, depth int) error {
	if keys, _ := joinStrategy(left, pred, e.ar, e.opts); len(keys) > 0 {
		return e.op(depth, labelHashJoin(keys, pred), left, right)
	}
	if err := e.op(depth, labelSelect(pred)); err != nil {
		return err
	}
	return e.op(depth+1, labelCross, left, right)
}

const (
	labelCross = "nested-loop-cross"
	labelUnion = "union"
)

func labelScan(name string) string { return "scan(" + name + ")" }

func labelConst(n int) string { return fmt.Sprintf("const(%d tuples)", n) }

func labelSelect(pred ra.Predicate) string { return fmt.Sprintf("select[%s]", pred) }

func labelProject(cols []int) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = strconv.Itoa(c + 1)
	}
	return "project[" + strings.Join(parts, ",") + "]"
}

func labelHashJoin(keys []JoinKey, pred ra.Predicate) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("$%d=$%d", k.Left+1, k.Right+1)
	}
	return fmt.Sprintf("hash-join[%s] pred=%s build=right", strings.Join(parts, ","), pred)
}

func labelDiff(opts Options) string { return "diff(" + hashedOrScan(opts) + ")" }

func labelIntersect(opts Options) string { return "intersect(" + hashedOrScan(opts) + ")" }

func hashedOrScan(opts Options) string {
	if opts.NoHash {
		return "pairwise"
	}
	return "hash-partitioned"
}
