// Package eagerref is the frozen eager evaluator of the c-table algebra: a
// direct recursive materialization of q̄ (Theorem 4), one table per node. It
// is the reference twin of the shared operator core in internal/exec — the
// randomized equivalence tests assert that the core (with and without plan
// rewriting) produces answers with bit-identical rational tuple marginals,
// and, with the hash operators off, byte-identical answer tables; the E14
// benchmark measures the eager-vs-operator gap. No served binary links it:
// it builds its answers through ctable's exported API only.
package eagerref

import (
	"fmt"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/relation"
	"uncertaindb/internal/value"
)

// EvalQueryEnv evaluates q over env with the frozen eager evaluator. Unlike
// the operator core it never rewrites plans, so the answer table's syntax is
// exactly the textbook bottom-up application of the ū operators
// (opts.Rewrite is ignored, and so are the batch engine's NoHash, Workers,
// Pool, Stats and Trace).
func EvalQueryEnv(q ra.Query, env ctable.Env, opts ctable.Options) (*ctable.CTable, error) {
	arities := ra.ArityEnv{}
	for name, t := range env {
		arities[name] = t.Arity()
	}
	if _, err := ra.Arity(q, arities); err != nil {
		return nil, err
	}
	return evalEager(q, env, opts)
}

func evalEager(q ra.Query, env ctable.Env, opts ctable.Options) (*ctable.CTable, error) {
	switch q := q.(type) {
	case ra.BaseRel:
		return env[q.Name].Copy(), nil
	case ra.ConstRel:
		return constTableEager(q.Rel), nil
	case ra.SelectQ:
		in, err := evalEager(q.Input, env, opts)
		if err != nil {
			return nil, err
		}
		return selectEager(in, q.Pred, opts)
	case ra.ProjectQ:
		in, err := evalEager(q.Input, env, opts)
		if err != nil {
			return nil, err
		}
		return projectEager(in, q.Cols, opts)
	case ra.CrossQ:
		l, r, err := evalBothEager(q.Left, q.Right, env, opts)
		if err != nil {
			return nil, err
		}
		return crossEager(l, r, opts), nil
	case ra.JoinQ:
		l, r, err := evalBothEager(q.Left, q.Right, env, opts)
		if err != nil {
			return nil, err
		}
		return selectEager(crossEager(l, r, opts), q.Pred, opts)
	case ra.UnionQ:
		l, r, err := evalBothEager(q.Left, q.Right, env, opts)
		if err != nil {
			return nil, err
		}
		return unionEager(l, r, opts)
	case ra.DiffQ:
		l, r, err := evalBothEager(q.Left, q.Right, env, opts)
		if err != nil {
			return nil, err
		}
		return diffEager(l, r, opts)
	case ra.IntersectQ:
		l, r, err := evalBothEager(q.Left, q.Right, env, opts)
		if err != nil {
			return nil, err
		}
		return intersectEager(l, r, opts)
	default:
		return nil, fmt.Errorf("ctable: unsupported query node %T", q)
	}
}

func evalBothEager(l, r ra.Query, env ctable.Env, opts ctable.Options) (*ctable.CTable, *ctable.CTable, error) {
	lt, err := evalEager(l, env, opts)
	if err != nil {
		return nil, nil, err
	}
	rt, err := evalEager(r, env, opts)
	if err != nil {
		return nil, nil, err
	}
	return lt, rt, nil
}

// cond applies opts.Simplify to one built condition.
func cond(opts ctable.Options, c condition.Condition) condition.Condition {
	if opts.Simplify {
		return condition.Simplify(c)
	}
	return c
}

func selectEager(t *ctable.CTable, p ra.Predicate, opts ctable.Options) (*ctable.CTable, error) {
	var rows []ctable.Row
	for _, r := range t.Rows() {
		c, err := exec.PredicateCondition(p, r.Terms)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ctable.NewRow(r.Terms, cond(opts, condition.And(r.Cond, c))))
	}
	return table(t.Arity(), rows, t), nil
}

func projectEager(t *ctable.CTable, cols []int, opts ctable.Options) (*ctable.CTable, error) {
	for _, c := range cols {
		if c < 0 || c >= t.Arity() {
			return nil, fmt.Errorf("ctable: projection column %d out of range for arity %d", c+1, t.Arity())
		}
	}
	var rows []ctable.Row
	index := make(map[string]int)
	for _, r := range t.Rows() {
		terms := make([]condition.Term, len(cols))
		for i, c := range cols {
			terms[i] = r.Terms[c]
		}
		key := eagerTermsKey(terms)
		if i, ok := index[key]; ok {
			rows[i].Cond = cond(opts, condition.Or(rows[i].Cond, r.Cond))
			continue
		}
		index[key] = len(rows)
		rows = append(rows, ctable.NewRow(terms, cond(opts, r.Cond)))
	}
	return table(len(cols), rows, t), nil
}

func crossEager(t1, t2 *ctable.CTable, opts ctable.Options) *ctable.CTable {
	var rows []ctable.Row
	for _, r1 := range t1.Rows() {
		for _, r2 := range t2.Rows() {
			terms := make([]condition.Term, 0, t1.Arity()+t2.Arity())
			terms = append(terms, r1.Terms...)
			terms = append(terms, r2.Terms...)
			rows = append(rows, ctable.NewRow(terms, cond(opts, condition.And(r1.Cond, r2.Cond))))
		}
	}
	return table(t1.Arity()+t2.Arity(), rows, t1, t2)
}

func unionEager(t1, t2 *ctable.CTable, opts ctable.Options) (*ctable.CTable, error) {
	if t1.Arity() != t2.Arity() {
		return nil, fmt.Errorf("ctable: union of arities %d and %d", t1.Arity(), t2.Arity())
	}
	var rows []ctable.Row
	for _, r := range t1.Rows() {
		rows = append(rows, ctable.NewRow(r.Terms, cond(opts, r.Cond)))
	}
	for _, r := range t2.Rows() {
		rows = append(rows, ctable.NewRow(r.Terms, cond(opts, r.Cond)))
	}
	return table(t1.Arity(), rows, t1, t2), nil
}

func diffEager(t1, t2 *ctable.CTable, opts ctable.Options) (*ctable.CTable, error) {
	if t1.Arity() != t2.Arity() {
		return nil, fmt.Errorf("ctable: difference of arities %d and %d", t1.Arity(), t2.Arity())
	}
	var rows []ctable.Row
	for _, r1 := range t1.Rows() {
		conds := []condition.Condition{r1.Cond}
		for _, r2 := range t2.Rows() {
			conds = append(conds, condition.Not(condition.And(r2.Cond, exec.RowEquality(r1.Terms, r2.Terms))))
		}
		rows = append(rows, ctable.NewRow(r1.Terms, cond(opts, condition.And(conds...))))
	}
	return table(t1.Arity(), rows, t1, t2), nil
}

func intersectEager(t1, t2 *ctable.CTable, opts ctable.Options) (*ctable.CTable, error) {
	if t1.Arity() != t2.Arity() {
		return nil, fmt.Errorf("ctable: intersection of arities %d and %d", t1.Arity(), t2.Arity())
	}
	var rows []ctable.Row
	for _, r1 := range t1.Rows() {
		disj := make([]condition.Condition, 0, t2.NumRows())
		for _, r2 := range t2.Rows() {
			disj = append(disj, condition.And(r2.Cond, exec.RowEquality(r1.Terms, r2.Terms)))
		}
		rows = append(rows, ctable.NewRow(r1.Terms, cond(opts, condition.And(r1.Cond, condition.Or(disj...)))))
	}
	return table(t1.Arity(), rows, t1, t2), nil
}

func constTableEager(r *relation.Relation) *ctable.CTable {
	if r.Arity() == 0 {
		panic("ctable: constant relation of arity 0 not supported")
	}
	return ctable.FromRelation(r)
}

// table adopts rows as a table of the given arity carrying the domains of
// srcs, later sources overriding earlier ones.
func table(arity int, rows []ctable.Row, srcs ...*ctable.CTable) *ctable.CTable {
	out := ctable.FromRows(arity, rows)
	for _, src := range srcs {
		src.EachDomain(func(x condition.Variable, d *value.Domain) { out.SetDomain(string(x), d) })
	}
	return out
}

// eagerTermsKey identifies a projected tuple for π̄'s duplicate merge. The
// encoding tags and length-prefixes each term: the original rendering-based
// key collided a variable with a constant of the same spelling (Var("5")
// vs Int(5)), merging rows with *different* symbolic tuples — a Mod bug.
// The operator core's interned grouping keys are collision-free by
// construction, and the frozen twin must agree byte for byte.
func eagerTermsKey(terms []condition.Term) string {
	key := ""
	for _, t := range terms {
		if t.IsVar {
			key += fmt.Sprintf("v%d:%s", len(t.Var), t.Var)
		} else {
			k := t.Const.Key()
			key += fmt.Sprintf("c%d:%s", len(k), k)
		}
	}
	return key
}
