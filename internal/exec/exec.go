// Package exec is the unified query-execution core: one implementation of
// the closed c-table algebra (Theorem 4) that every table model evaluates
// through.
//
// The operator layer is generic over the Model interface: anything that can
// present its rows as symbolic (terms, condition) pairs can be queried.
// c-tables and pc-tables are Models; plain relations enter as constant
// relations. The adapters in internal/ctable and internal/pctable only bind
// names to Models and re-wrap the produced rows.
//
// A logical plan is simply an ra.Query — the algebra is small enough that a
// second plan IR would duplicate it. Run validates the query, optionally
// rewrites it (see Rewrite) and executes it on the vectorized batch engine
// (batch.go): base tables are dictionary-encoded into columnar
// interned-term-ID vectors, once per table version (Encoder), and the
// operators execute batch-at-a-time over
// fixed-size morsels on a bounded worker pool (Options.Workers). Selections
// over cross products with extractable equi-join keys run as a symbolic
// hash join, and difference and intersection partition their right side by
// ground tuple (physical.go). Options.NoHash restores the textbook
// nested-loop/pairwise-scan strategies, which reproduce the frozen eager
// evaluator (internal/ctable/eagerref) byte for byte. Answers
// are byte-identical for every worker count.
package exec

import (
	"fmt"
	"strings"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/obs"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
)

// Row is one symbolic row flowing between operators: a tuple of terms
// (constants or variables) guarded by a condition. It is the common currency
// of every table model — internal/ctable aliases its own Row to this type,
// so answers materialized by the engine are adopted without conversion.
type Row struct {
	Terms []condition.Term
	Cond  condition.Condition
}

// String renders the row as "(t1, ..., tn) : cond".
func (r Row) String() string {
	parts := make([]string, len(r.Terms))
	for i, t := range r.Terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, ", ") + ") : " + r.Cond.String()
}

// Model is the interface a table representation implements to be queried by
// the operator core. Implementations must be immutable for the duration of a
// query: operators never mutate the rows they are handed, but they do retain
// and share the term slices.
//
// A Model may also implement Encoder to keep one Encoding per table version
// instead of one per run: it returns Encode's result over its current rows,
// built once, and must drop it whenever its rows change (a *ctable.CTable
// drops it on AddRow, AdoptRow and AddConstRow).
type Model interface {
	// Arity is the number of columns.
	Arity() int
	// NumRows is the number of rows.
	NumRows() int
	// Row returns the i-th row as a read-only view.
	Row(i int) Row
	// EachDomain visits the declared finite variable domains of the model
	// (used to propagate Definition 6 domains to the answer).
	EachDomain(f func(condition.Variable, *value.Domain))
}

// Env binds input relation names to models.
type Env map[string]Model

// Options tunes the operator core.
type Options struct {
	// Simplify applies syntactic condition simplification after every
	// operator. It never changes Mod, only the size of conditions.
	Simplify bool
	// Rewrite runs the logical-plan rewriter (predicate pushdown, projection
	// fusion and pruning) before execution. Rewrites never
	// change the represented set of instances, only the syntax of the answer
	// table and the amount of intermediate work.
	Rewrite bool
	// NoHash disables the physical hash operators (symbolic hash join,
	// hash-partitioned difference and intersection): joins fall back to a
	// selection over a nested-loop cross product and the set operators to
	// pairwise scans. The hash path preserves Mod and every tuple marginal
	// but not the syntactic answer table — it never emits rows whose
	// condition is the constant false — so the tests comparing against the
	// eager evaluator byte for byte pin NoHash on.
	NoHash bool
	// Workers bounds the morsel-driven parallelism of the batch engine:
	// the number of goroutines that execute pipeline morsels concurrently.
	// Zero or negative selects GOMAXPROCS; 1 forces sequential execution.
	// Inputs smaller than one morsel (BatchSize rows) never spawn
	// goroutines. The answer is byte-identical for every worker count.
	Workers int
	// Pool, when non-nil, is a shared budget for the extra goroutines
	// parallel morsel execution spawns: runs sharing one pool (the serving
	// engine passes one to every query execution) stay bounded by the pool
	// size in total, not per run. Acquisition is non-blocking — a run that
	// finds the pool drained proceeds on its own goroutine — so answers
	// stay byte-identical and sharing cannot deadlock.
	Pool *WorkerPool
	// Stats, when non-nil, accumulates per-operator row/probe counters
	// during execution. Counters are incremented without synchronization;
	// use one OpStats per Run.
	Stats *OpStats
	// Trace, when valid, receives one child span per executed batch
	// pipeline (morsel/worker/row counts as attributes). The zero SpanRef
	// disables tracing at the cost of one branch per pipeline.
	Trace obs.SpanRef
}

// DefaultOptions simplifies conditions and rewrites plans.
var DefaultOptions = Options{Simplify: true, Rewrite: true}

func (o Options) cond(c condition.Condition) condition.Condition {
	if o.Simplify {
		return condition.Simplify(c)
	}
	return c
}

// Result is a materialized query answer: rows plus the propagated variable
// domains of every base table the plan read (in left-to-right plan order,
// later tables overriding earlier ones, matching the eager evaluator). Every
// row's term slice is freshly allocated by the run (decoded into a private
// slab), so adapters adopt the rows without a defensive copy.
type Result struct {
	Arity   int
	Rows    []Row
	Domains map[condition.Variable]*value.Domain
}

// Run validates q against env, optionally rewrites it, executes it on the
// batch engine and returns the materialized answer.
func Run(q ra.Query, env Env, opts Options) (*Result, error) {
	arities := modelArities(env)
	arity, err := ra.Arity(q, arities)
	if err != nil {
		return nil, err
	}
	if opts.Rewrite {
		sp := opts.Trace.Child("rewrite")
		q = Rewrite(q, arities)
		sp.End()
	}
	// The batch engine interleaves stage construction with execution; its
	// pipeline spans (one per forced part, with morsel/worker/row counts)
	// hang under this span.
	sp := opts.Trace.Child("batch")
	opts.Trace = sp
	rows, err := runBatch(q, env, arities, opts)
	sp.End()
	if err != nil {
		return nil, err
	}
	res := &Result{Arity: arity, Rows: rows, Domains: make(map[condition.Variable]*value.Domain)}
	collectDomains(q, env, res.Domains)
	return res, nil
}

// collectDomains merges the domains of every base table referenced by q, in
// left-to-right tree order (the order the eager evaluator accumulated them).
func collectDomains(q ra.Query, env Env, into map[condition.Variable]*value.Domain) {
	switch q := q.(type) {
	case ra.BaseRel:
		if m := env[q.Name]; m != nil {
			m.EachDomain(func(x condition.Variable, d *value.Domain) { into[x] = d })
		}
	case ra.ConstRel:
	case ra.SelectQ:
		collectDomains(q.Input, env, into)
	case ra.ProjectQ:
		collectDomains(q.Input, env, into)
	case ra.CrossQ:
		collectDomains(q.Left, env, into)
		collectDomains(q.Right, env, into)
	case ra.JoinQ:
		collectDomains(q.Left, env, into)
		collectDomains(q.Right, env, into)
	case ra.UnionQ:
		collectDomains(q.Left, env, into)
		collectDomains(q.Right, env, into)
	case ra.DiffQ:
		collectDomains(q.Left, env, into)
		collectDomains(q.Right, env, into)
	case ra.IntersectQ:
		collectDomains(q.Left, env, into)
		collectDomains(q.Right, env, into)
	}
}

// modelArities collects the input arities the planner validates subqueries
// against (computed once per Run/Explain/Analyze).
func modelArities(env Env) ra.ArityEnv {
	arities := make(ra.ArityEnv, len(env))
	for name, m := range env {
		arities[name] = m.Arity()
	}
	return arities
}

// TermEquality, RowEquality and PredicateCondition are the row-at-a-time
// definitions of the operators' symbolic conditions, which the eager
// evaluator applies directly. The batch engine folds the same formulas over
// interned IDs (termEqualityIDs, rowEqualityIDs, predCondIDs) and must
// build syntactically identical conditions.

// TermEquality returns the condition asserting that two symbolic terms are
// equal: it folds constant/constant comparisons and emits symbolic
// equalities otherwise.
func TermEquality(a, b condition.Term) condition.Condition {
	return condition.Eq(a, b).Substitute(nil)
}

// RowEquality returns the condition asserting componentwise equality of two
// symbolic tuples of equal arity.
func RowEquality(a, b []condition.Term) condition.Condition {
	conds := make([]condition.Condition, 0, len(a))
	for i := range a {
		conds = append(conds, TermEquality(a[i], b[i]))
	}
	return condition.And(conds...)
}

// PredicateCondition translates a selection predicate evaluated on the
// symbolic tuple "terms" into a condition (the c(t) of the paper's
// definition of σ̄). Ordering comparisons are only supported when both sides
// resolve to constants, because c-table conditions are built from equalities
// and inequalities only.
func PredicateCondition(p ra.Predicate, terms []condition.Term) (condition.Condition, error) {
	switch p := p.(type) {
	case ra.TruePred:
		return condition.True(), nil
	case ra.FalsePred:
		return condition.False(), nil
	case ra.Cmp:
		l, err := resolveRATerm(p.Left, terms)
		if err != nil {
			return nil, err
		}
		r, err := resolveRATerm(p.Right, terms)
		if err != nil {
			return nil, err
		}
		switch p.Op {
		case ra.OpEq:
			return condition.Eq(l, r).Substitute(nil), nil
		case ra.OpNe:
			return condition.Neq(l, r).Substitute(nil), nil
		default:
			if l.IsVar || r.IsVar {
				return nil, fmt.Errorf("exec: ordering comparison %s applied to a variable term", p.Op)
			}
			if p.Op.Holds(l.Const, r.Const) {
				return condition.True(), nil
			}
			return condition.False(), nil
		}
	case ra.And:
		conds := make([]condition.Condition, 0, len(p.Preds))
		for _, sub := range p.Preds {
			c, err := PredicateCondition(sub, terms)
			if err != nil {
				return nil, err
			}
			conds = append(conds, c)
		}
		return condition.And(conds...), nil
	case ra.Or:
		conds := make([]condition.Condition, 0, len(p.Preds))
		for _, sub := range p.Preds {
			c, err := PredicateCondition(sub, terms)
			if err != nil {
				return nil, err
			}
			conds = append(conds, c)
		}
		return condition.Or(conds...), nil
	case ra.Not:
		c, err := PredicateCondition(p.Pred, terms)
		if err != nil {
			return nil, err
		}
		return condition.Not(c), nil
	default:
		return nil, fmt.Errorf("exec: unsupported predicate %T", p)
	}
}

func resolveRATerm(t ra.Term, terms []condition.Term) (condition.Term, error) {
	if t.IsCol {
		if t.Col < 0 || t.Col >= len(terms) {
			return condition.Term{}, fmt.Errorf("exec: predicate column %d out of range", t.Col+1)
		}
		return terms[t.Col], nil
	}
	return condition.Const(t.Const), nil
}
