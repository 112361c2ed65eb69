package ctable

import (
	"fmt"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/relation"
)

// This file freezes the pre-operator-core eager evaluator: a direct
// recursive materialization of the c-table algebra, one table per node. It
// is the reference twin of the shared operator core in internal/exec — the
// randomized equivalence tests assert that the core (with and without plan
// rewriting) produces answers with bit-identical rational tuple marginals,
// and the E14 benchmark measures the eager-vs-operator gap. It is not used
// on any production path; see algebra.go for the live adapters.

// EvalQueryEnvEager evaluates q over env with the frozen eager evaluator.
// Unlike the operator core it never rewrites plans, so the answer table's
// syntax is exactly the textbook bottom-up application of the ū operators
// (opts.Rewrite is ignored).
func EvalQueryEnvEager(q ra.Query, env Env, opts Options) (*CTable, error) {
	arities := ra.ArityEnv{}
	for name, t := range env {
		arities[name] = t.arity
	}
	if _, err := ra.Arity(q, arities); err != nil {
		return nil, err
	}
	return evalEager(q, env, opts)
}

func evalEager(q ra.Query, env Env, opts Options) (*CTable, error) {
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

func evalBothEager(l, r ra.Query, env Env, opts Options) (*CTable, *CTable, error) {
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

func (o Options) cond(c condition.Condition) condition.Condition {
	if o.Simplify {
		return condition.Simplify(c)
	}
	return c
}

func selectEager(t *CTable, p ra.Predicate, opts Options) (*CTable, error) {
	out := New(t.arity)
	copyDomains(out, t)
	for _, r := range t.rows {
		c, err := exec.PredicateCondition(p, r.Terms)
		if err != nil {
			return nil, err
		}
		out.rows = append(out.rows, NewRow(r.Terms, opts.cond(condition.And(r.Cond, c))))
	}
	return out, nil
}

func projectEager(t *CTable, cols []int, opts Options) (*CTable, error) {
	for _, c := range cols {
		if c < 0 || c >= t.arity {
			return nil, fmt.Errorf("ctable: projection column %d out of range for arity %d", c+1, t.arity)
		}
	}
	out := New(len(cols))
	copyDomains(out, t)
	index := make(map[string]int)
	for _, r := range t.rows {
		terms := make([]condition.Term, len(cols))
		for i, c := range cols {
			terms[i] = r.Terms[c]
		}
		key := eagerTermsKey(terms)
		if i, ok := index[key]; ok {
			out.rows[i].Cond = opts.cond(condition.Or(out.rows[i].Cond, r.Cond))
			continue
		}
		index[key] = len(out.rows)
		out.rows = append(out.rows, NewRow(terms, opts.cond(r.Cond)))
	}
	return out, nil
}

func crossEager(t1, t2 *CTable, opts Options) *CTable {
	out := New(t1.arity + t2.arity)
	copyDomains(out, t1)
	copyDomains(out, t2)
	for _, r1 := range t1.rows {
		for _, r2 := range t2.rows {
			terms := make([]condition.Term, 0, t1.arity+t2.arity)
			terms = append(terms, r1.Terms...)
			terms = append(terms, r2.Terms...)
			out.rows = append(out.rows, NewRow(terms, opts.cond(condition.And(r1.Cond, r2.Cond))))
		}
	}
	return out
}

func unionEager(t1, t2 *CTable, opts Options) (*CTable, error) {
	if t1.arity != t2.arity {
		return nil, fmt.Errorf("ctable: union of arities %d and %d", t1.arity, t2.arity)
	}
	out := New(t1.arity)
	copyDomains(out, t1)
	copyDomains(out, t2)
	for _, r := range t1.rows {
		out.rows = append(out.rows, NewRow(r.Terms, opts.cond(r.Cond)))
	}
	for _, r := range t2.rows {
		out.rows = append(out.rows, NewRow(r.Terms, opts.cond(r.Cond)))
	}
	return out, nil
}

func diffEager(t1, t2 *CTable, opts Options) (*CTable, error) {
	if t1.arity != t2.arity {
		return nil, fmt.Errorf("ctable: difference of arities %d and %d", t1.arity, t2.arity)
	}
	out := New(t1.arity)
	copyDomains(out, t1)
	copyDomains(out, t2)
	for _, r1 := range t1.rows {
		conds := []condition.Condition{r1.Cond}
		for _, r2 := range t2.rows {
			conds = append(conds, condition.Not(condition.And(r2.Cond, exec.RowEquality(r1.Terms, r2.Terms))))
		}
		out.rows = append(out.rows, NewRow(r1.Terms, opts.cond(condition.And(conds...))))
	}
	return out, nil
}

func intersectEager(t1, t2 *CTable, opts Options) (*CTable, error) {
	if t1.arity != t2.arity {
		return nil, fmt.Errorf("ctable: intersection of arities %d and %d", t1.arity, t2.arity)
	}
	out := New(t1.arity)
	copyDomains(out, t1)
	copyDomains(out, t2)
	for _, r1 := range t1.rows {
		disj := make([]condition.Condition, 0, len(t2.rows))
		for _, r2 := range t2.rows {
			disj = append(disj, condition.And(r2.Cond, exec.RowEquality(r1.Terms, r2.Terms)))
		}
		out.rows = append(out.rows, NewRow(r1.Terms, opts.cond(condition.And(r1.Cond, condition.Or(disj...)))))
	}
	return out, nil
}

func constTableEager(r *relation.Relation) *CTable {
	if r.Arity() == 0 {
		panic("ctable: constant relation of arity 0 not supported")
	}
	return FromRelation(r)
}

func copyDomains(dst, src *CTable) {
	for x, d := range src.domains {
		dst.domains[x] = d
	}
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
