package ctable

import (
	"uncertaindb/internal/condition"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/obs"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
)

// This file adapts the c-table algebra ū of Theorem 4 (Imieliński & Lipski)
// onto the unified operator core in internal/exec: for every relational
// algebra operation u there is an operation ū on c-tables such that
// ν(q̄(T)) = q(ν(T)) for every valuation ν (Lemma 1), hence
// Mod(q̄(T)) = q(Mod(T)). The operator implementations themselves live in
// internal/exec — this package only binds c-tables as exec Models and wraps
// the produced rows back into a CTable. The pre-core eager evaluator is kept
// in the eagerref subpackage as a frozen reference twin for equivalence
// tests and the E14 benchmark; no served binary links it.

// Options controls the behaviour of the c-table algebra.
type Options struct {
	// Simplify applies syntactic condition simplification after every
	// operation. It never changes Mod, only the size of conditions; the
	// ablation benchmark measures its effect.
	Simplify bool
	// Rewrite runs the logical-plan rewriter (predicate pushdown, projection
	// pruning) before execution. Rewrites never change Mod or tuple
	// marginals, only the syntactic shape of the answer table and the amount
	// of intermediate work. Ignored by the single-operator functions
	// (SelectC, ProjectC, ...), which apply exactly one operator.
	Rewrite bool
	// NoHash disables the physical hash operators (symbolic hash join,
	// hash-partitioned difference/intersection), restoring the nested-loop
	// path that reproduces the eager evaluator byte for byte. The hash path
	// preserves Mod and every tuple marginal but never emits rows whose
	// condition is the constant false.
	NoHash bool
	// Workers bounds the morsel-driven parallelism of the batch engine
	// (goroutines per evaluation). Zero or negative selects GOMAXPROCS; 1
	// forces sequential execution. The answer is byte-identical for every
	// worker count.
	Workers int
	// Pool, when non-nil, bounds the batch engine's extra goroutines across
	// every evaluation sharing it (exec.Options.Pool); the serving engine
	// passes one pool to all query executions.
	Pool *exec.WorkerPool
	// Stats, when non-nil, accumulates per-operator row/probe counters of
	// the physical plan (exec.OpStats). Use one OpStats per evaluation.
	Stats *exec.OpStats
	// Trace, when valid, receives one child span per executed batch
	// pipeline (exec.Options.Trace); the serving engine hangs these under
	// its compile span.
	Trace obs.SpanRef
}

// DefaultOptions simplifies conditions, rewrites plans and uses the
// physical hash operators.
var DefaultOptions = Options{Simplify: true, Rewrite: true}

// ExecOptions translates the algebra options for the shared operator core.
func (o Options) ExecOptions() exec.Options { return o.execOptions(true) }

func (o Options) execOptions(rewrite bool) exec.Options {
	return exec.Options{
		Simplify: o.Simplify,
		Rewrite:  rewrite && o.Rewrite,
		NoHash:   o.NoHash,
		Workers:  o.Workers,
		Pool:     o.Pool,
		Stats:    o.Stats,
		Trace:    o.Trace,
	}
}

// Row returns the i-th row (ctable.Row is an alias of exec.Row); with
// Arity, NumRows and EachDomain it makes *CTable an exec.Model, so the
// shared operator core can scan c-tables directly.
func (t *CTable) Row(i int) exec.Row { return t.rows[i] }

// Encoding implements exec.Encoder: the table's encoding, built on first use
// and kept until a row is added. Concurrent first uses may each build and use
// one; the first to be stored is the one every later query shares.
func (t *CTable) Encoding() *exec.Encoding {
	if e := t.enc.Load(); e != nil {
		return e
	}
	e := exec.Encode(t)
	t.enc.CompareAndSwap(nil, e)
	return e
}

// EachDomain visits the declared finite variable domains (exec.Model).
func (t *CTable) EachDomain(f func(condition.Variable, *value.Domain)) {
	for x, d := range t.domains {
		f(x, d)
	}
}

// FromExecResult wraps rows produced by the operator core into a CTable.
// The run owns its rows (decoded into a private slab, with conditions
// already normalized), so they are adopted wholesale — ctable.Row aliases
// exec.Row, so this is free.
func FromExecResult(res *exec.Result) *CTable {
	out := New(res.Arity)
	for x, d := range res.Domains {
		out.domains[x] = d
	}
	out.rows = res.Rows
	return out
}

// runOp evaluates a query through the operator core without plan rewriting —
// the single-operator entry points below apply exactly the operator they
// name.
func runOp(q ra.Query, env exec.Env, opts Options) (*CTable, error) {
	res, err := exec.Run(q, env, opts.execOptions(false))
	if err != nil {
		return nil, err
	}
	return FromExecResult(res), nil
}

// SelectC is σ̄_p(T): every row keeps its tuple and its condition is
// strengthened with the symbolic evaluation of p on the row's terms.
func SelectC(t *CTable, p ra.Predicate, opts Options) (*CTable, error) {
	return runOp(ra.Select(p, ra.Rel("T")), exec.Env{"T": t}, opts)
}

// ProjectC is π̄_cols(T): rows are projected onto cols and rows with
// syntactically identical projected tuples are merged by disjoining their
// conditions (the ∨ in the paper's definition of π̄).
func ProjectC(t *CTable, cols []int, opts Options) (*CTable, error) {
	return runOp(ra.Project(cols, ra.Rel("T")), exec.Env{"T": t}, opts)
}

// CrossC is T1 ×̄ T2: tuples are concatenated and conditions conjoined.
func CrossC(t1, t2 *CTable, opts Options) *CTable {
	out, err := runOp(ra.Cross(ra.Rel("T1"), ra.Rel("T2")), exec.Env{"T1": t1, "T2": t2}, opts)
	if err != nil {
		panic(err) // a cross product of well-formed tables cannot fail
	}
	return out
}

// UnionC is T1 ∪̄ T2: the union of the rows.
func UnionC(t1, t2 *CTable, opts Options) (*CTable, error) {
	return runOp(ra.Union(ra.Rel("T1"), ra.Rel("T2")), exec.Env{"T1": t1, "T2": t2}, opts)
}

// DiffC is T1 −̄ T2: a row (t1 : φ1) survives exactly when no row of T2 is
// simultaneously present and equal to it, so its condition becomes
// φ1 ∧ ⋀_{(t2:φ2) ∈ T2} ¬(φ2 ∧ t1=t2).
func DiffC(t1, t2 *CTable, opts Options) (*CTable, error) {
	return runOp(ra.Diff(ra.Rel("T1"), ra.Rel("T2")), exec.Env{"T1": t1, "T2": t2}, opts)
}

// IntersectC is T1 ∩̄ T2: a row (t1 : φ1) survives exactly when some row of
// T2 is present and equal to it.
func IntersectC(t1, t2 *CTable, opts Options) (*CTable, error) {
	return runOp(ra.Intersect(ra.Rel("T1"), ra.Rel("T2")), exec.Env{"T1": t1, "T2": t2}, opts)
}

// JoinC is the θ-join T1 ⋈̄_p T2 = σ̄_p(T1 ×̄ T2).
func JoinC(t1, t2 *CTable, p ra.Predicate, opts Options) (*CTable, error) {
	return runOp(ra.Join(ra.Rel("T1"), ra.Rel("T2"), p), exec.Env{"T1": t1, "T2": t2}, opts)
}

// Env maps input relation names to c-tables for multi-table evaluation.
type Env map[string]*CTable

// ExecEnv binds the environment's tables as models for the operator core.
func (env Env) ExecEnv() exec.Env {
	out := make(exec.Env, len(env))
	for name, t := range env {
		out[name] = t
	}
	return out
}

// EvalQuery translates a relational algebra query q into the c-table
// algebra q̄ and evaluates it on the input c-table (every input relation
// name is bound to the same table, matching the paper's single-relation
// schemas). Conditions are simplified along the way.
func EvalQuery(q ra.Query, input *CTable) (*CTable, error) {
	return EvalQueryWithOptions(q, input, DefaultOptions)
}

// EvalQueryWithOptions is EvalQuery with explicit algebra options.
func EvalQueryWithOptions(q ra.Query, input *CTable, opts Options) (*CTable, error) {
	env := Env{}
	for name := range ra.InputNames(q) {
		env[name] = input
	}
	return EvalQueryEnvWithOptions(q, env, opts)
}

// EvalQueryEnv evaluates q over an environment of named c-tables: each
// BaseRel is bound to the table of that name. Variables shared between
// tables denote the same unknown (the usual c-table convention), so their
// conditions combine soundly under ×̄, ∪̄, −̄ and ∩̄. Referencing a name
// absent from env is an error.
func EvalQueryEnv(q ra.Query, env Env) (*CTable, error) {
	return EvalQueryEnvWithOptions(q, env, DefaultOptions)
}

// EvalQueryEnvWithOptions is EvalQueryEnv with explicit algebra options. The
// query is validated, optionally rewritten, and executed by the shared
// operator core in internal/exec.
func EvalQueryEnvWithOptions(q ra.Query, env Env, opts Options) (*CTable, error) {
	res, err := exec.Run(q, env.ExecEnv(), opts.execOptions(true))
	if err != nil {
		return nil, err
	}
	return FromExecResult(res), nil
}
