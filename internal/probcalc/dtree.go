package probcalc

import (
	"uncertaindb/internal/condition"
	"uncertaindb/internal/value"
)

// This file holds the decomposition rules of the one compiler in
// circuit.go, the arithmetic it evaluates in, and the per-tuple face of that
// compiler behind Evaluator, ExactEvaluator and the model counter in sat.go.
//
// The compiler decomposes P[c] into a decomposition tree ("d-tree"), shared
// as a DAG across every condition it has seen:
//
//   - independent split: juncts of a conjunction (disjunction) that share no
//     variables are probabilistically independent, so P[∧] multiplies and
//     P[∨] combines as 1 − Π(1 − pᵢ) (componentsVars);
//   - exclusive split: pairwise disjoint disjuncts (each pair forces some
//     variable to two different constants) satisfy P[∨] = Σ pᵢ
//     (pairwiseDisjoint);
//   - Shannon expansion: otherwise a pivot variable x (pickPivot) is
//     eliminated via P[c] = Σ_{v ∈ dom(x)} P[x=v]·P[c[x:=v]];
//   - enumeration: residual subproblems with at most Options.EnumThreshold
//     valuations (or a single variable) become enumeration leaves.
//
// Every subcondition is memoized under its hash-consed ID, so a shared
// subproblem is decomposed once and evaluated once.

// weighted is one value of a variable's finite distribution together with
// its probability expressed in the evaluation arithmetic.
type weighted[T any] struct {
	v value.Value
	w T
}

// field is the arithmetic a compiled DAG is evaluated in. All operations
// must be free of side effects on their operands (big.Rat instances are
// shared).
type field[T any] struct {
	zero func() T
	one  func() T
	add  func(a, b T) T
	sub  func(a, b T) T
	mul  func(a, b T) T
}

// incremental answers one condition at a time on a compiler that outlives
// the call. Each call simplifies the condition, compiles it (a memo hit
// reuses the node already built for it), and evaluates only the nodes
// appended since the previous call: the growing node array is the memo, and
// vals holds every node's value under the fixed distributions. Not safe for
// concurrent use.
type incremental[T any] struct {
	f    field[T]
	cp   *compiler
	w    map[condition.Variable]varWeights[T]
	vals []T
	val  condition.Valuation // evalNodes' scratch
}

func newIncremental[T any](f field[T], dist func(condition.Variable) ([]weighted[T], error), opts Options) *incremental[T] {
	e := &incremental[T]{f: f, w: make(map[condition.Variable]varWeights[T]), val: make(condition.Valuation)}
	// The compiler's support source loads each variable's weights once, in
	// distribution order, so the compiler's Shannon branches and the
	// weights that evaluate them line up by position.
	e.cp = newCompiler(func(x condition.Variable) ([]value.Value, error) {
		o, err := dist(x)
		if err != nil {
			return nil, err
		}
		e.w[x] = varWeights[T]{outs: o, branch: o}
		return valuesOf(o), nil
	}, opts)
	return e
}

// valuesOf returns the values of a distribution's outcomes, in order.
func valuesOf[T any](o []weighted[T]) []value.Value {
	vals := make([]value.Value, len(o))
	for i, wo := range o {
		vals[i] = wo.v
	}
	return vals
}

// probability computes P[c]. Every variable of c must have a distribution,
// checked up front so an error leaves no half-compiled condition behind.
// The simplified condition is a fresh value on every call, so the
// compiler's backing-array caches are cleared when the call returns: no
// later call can hit them, and clearing lets the call's intermediate
// conditions be collected.
func (e *incremental[T]) probability(c condition.Condition) (T, error) {
	defer e.cp.forgetJunctions()
	c = condition.Simplify(c)
	for _, x := range e.cp.varsOf(c) {
		if _, err := e.cp.supportOf(x); err != nil {
			return e.f.zero(), err
		}
	}
	root, err := e.cp.compile(c)
	if err != nil {
		return e.f.zero(), err
	}
	e.vals = evalNodes(e.f, e.cp.nodes, e.vals, e.w, e.val)
	return e.vals[root], nil
}

// componentsVars partitions juncts into groups connected by shared variables
// (connected components of the junct/variable incidence graph), preserving
// the order of first appearance; varsOf supplies each junct's variables
// (the compiler's cached varsOf). Variable-free juncts form singleton groups.
func componentsVars(juncts []condition.Condition, varsOf func(condition.Condition) []condition.Variable) [][]condition.Condition {
	parent := make([]int, len(juncts))
	for i := range parent {
		parent[i] = i
	}
	var find func(i int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	owner := make(map[condition.Variable]int)
	for i, j := range juncts {
		for _, x := range varsOf(j) {
			if k, ok := owner[x]; ok {
				union(i, k)
			} else {
				owner[x] = i
			}
		}
	}
	order := make([]int, 0, len(juncts))
	groups := make(map[int][]condition.Condition)
	for i, j := range juncts {
		r := find(i)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], j)
	}
	out := make([][]condition.Condition, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// maxDisjointnessCheck bounds the quadratic pairwise disjointness test.
const maxDisjointnessCheck = 128

// pairwiseDisjoint reports whether every pair of disjuncts is syntactically
// exclusive: some variable is forced to two different constants. The check
// is sound but incomplete — a false answer just means no exclusive split.
func pairwiseDisjoint(juncts []condition.Condition) bool {
	if len(juncts) < 2 || len(juncts) > maxDisjointnessCheck {
		return false
	}
	forced := make([]map[condition.Variable]value.Value, len(juncts))
	for i, j := range juncts {
		forced[i] = forcedAssignments(j)
		if forced[i] == nil {
			return false
		}
	}
	for i := 0; i < len(juncts); i++ {
		for j := i + 1; j < len(juncts); j++ {
			if !excludes(forced[i], forced[j]) {
				return false
			}
		}
	}
	return true
}

// forcedAssignments extracts the variable=constant equalities a condition
// forces at its top level (an equality atom, or equality conjuncts of a
// conjunction). nil means no forced assignment was found.
func forcedAssignments(c condition.Condition) map[condition.Variable]value.Value {
	switch cc := c.(type) {
	case condition.Cmp:
		if x, v, ok := varConstEq(cc); ok {
			return map[condition.Variable]value.Value{x: v}
		}
	case condition.AndCond:
		var m map[condition.Variable]value.Value
		for _, j := range cc.Conds {
			cmp, ok := j.(condition.Cmp)
			if !ok {
				continue
			}
			if x, v, ok := varConstEq(cmp); ok {
				if m == nil {
					m = make(map[condition.Variable]value.Value)
				}
				if _, dup := m[x]; !dup {
					m[x] = v
				}
			}
		}
		return m
	}
	return nil
}

func varConstEq(c condition.Cmp) (condition.Variable, value.Value, bool) {
	if c.Neq {
		return "", value.Null, false
	}
	if c.Left.IsVar && !c.Right.IsVar {
		return c.Left.Var, c.Right.Const, true
	}
	if c.Right.IsVar && !c.Left.IsVar {
		return c.Right.Var, c.Left.Const, true
	}
	return "", value.Null, false
}

func excludes(a, b map[condition.Variable]value.Value) bool {
	for x, v := range a {
		if w, ok := b[x]; ok && v != w {
			return true
		}
	}
	return false
}

// pickPivot chooses the Shannon pivot: the variable occurring in the most
// atoms, ties broken by name (vars is sorted, so the scan is deterministic).
func pickPivot(c condition.Condition, vars []condition.Variable) condition.Variable {
	counts := make(map[condition.Variable]int, len(vars))
	countOccurrences(c, counts)
	best := vars[0]
	for _, x := range vars[1:] {
		if counts[x] > counts[best] {
			best = x
		}
	}
	return best
}

func countOccurrences(c condition.Condition, counts map[condition.Variable]int) {
	switch cc := c.(type) {
	case condition.Cmp:
		if cc.Left.IsVar {
			counts[cc.Left.Var]++
		}
		if cc.Right.IsVar {
			counts[cc.Right.Var]++
		}
	case condition.AndCond:
		for _, j := range cc.Conds {
			countOccurrences(j, counts)
		}
	case condition.OrCond:
		for _, j := range cc.Conds {
			countOccurrences(j, counts)
		}
	case condition.NotCond:
		countOccurrences(cc.Cond, counts)
	}
}
