package probcalc

import (
	"fmt"
	"math/big"
	"slices"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/value"
)

// This file is the one compiler: it decomposes conditions by the rules in
// dtree.go into a shared arithmetic circuit. It works at the level of
// hash-consed condition IDs: every structurally distinct subcondition is
// decomposed exactly once (memoized by ID), and the result is a DAG whose
// internal nodes are the splits (independence products, exclusive sums,
// Shannon expansions) with residual enumeration leaves at the fringe.
//
// Two callers drive it. CompileAnswer compiles the lineage of a whole answer
// into an immutable Circuit and evaluates it in one bottom-up pass over the
// flat node array (children always precede parents, so one index-ordered
// sweep computes every tuple's marginal with no hashing on internal nodes).
// The circuit fixes only the decomposition STRUCTURE (Shannon branch values,
// enumeration supports) and reads the distribution WEIGHTS at evaluation
// time, so it re-evaluates under changed distributions (what-if queries)
// without re-decomposing. The per-tuple evaluators in dtree.go keep one
// compiler across calls and evaluate each new condition's fresh nodes only.
//
// Both evaluate through evalNodes, in float64 or in exact big.Rat
// arithmetic; exact rational arithmetic is associative and commutative, so
// the rationals are bit-identical to brute-force enumeration.

// circuitNodeKind discriminates circuit node shapes.
type circuitNodeKind uint8

const (
	cnConst   circuitNodeKind = iota // 0 or 1
	cnEnum                           // residual enumeration of a small condition
	cnNot                            // 1 − child
	cnMul                            // Π children (independent conjunction)
	cnSum                            // Σ children (exclusive disjunction)
	cnShannon                        // Σ P[pivot=vᵢ] · childᵢ
)

// circuitNode is one node of the compiled DAG. Children are node indices and
// are always strictly smaller than the node's own index, so index order is a
// topological order (and the DAG is acyclic by construction).
type circuitNode struct {
	kind circuitNodeKind
	one  bool  // cnConst: true for 1, false for 0
	kids []int // child node indices (cnNot: exactly one)
	// cnShannon: the pivot variable; child j is the branch for the j-th
	// value of the pivot's compile-time support. Weights are looked up at
	// evaluation time, so overridden distributions reweight the same
	// branches.
	pivot condition.Variable
	// cnEnum: the residual condition and its sorted variables. The leaf is
	// re-enumerated at evaluation time under the distributions in effect.
	cond condition.Condition
	vars []condition.Variable
}

// CircuitStats describes a compiled circuit: its size, how much cross-tuple
// structure sharing the compiler found, and the decomposition steps taken.
// The step counters are the compiler's Stats under circuit names:
// SharedHits is MemoHits and EnumLeaves is Enumerations.
type CircuitStats struct {
	Nodes             int // total DAG nodes
	Roots             int // input conditions (answer tuples)
	Vars              int // distinct variables across all inputs
	SharedHits        int // compile-time memo hits: subcircuits reused via hash-consed IDs
	EnumLeaves        int // residual enumeration leaves
	ComponentSplits   int // independence splits
	ExclusiveSplits   int // disjoint-disjunction splits
	ShannonExpansions int // pivot expansions
}

// Circuit is the shared arithmetic circuit for one answer's lineage set.
// Compile once with CompileAnswer, then evaluate as often as needed — the
// zero-allocation-per-node bottom-up pass makes repeated evaluation (what-if
// re-weighting) dramatically cheaper than re-decomposition. A Circuit is
// immutable after compilation and safe for concurrent evaluation.
type Circuit struct {
	nodes []circuitNode
	roots []int // roots[i] is the node computing P[conds[i]]
	// support holds each variable's compile-time outcome values in
	// distribution order. Evaluation-time distributions must not introduce
	// values outside this support (Shannon branches were fixed at compile).
	support map[condition.Variable][]value.Value
	stats   CircuitStats
}

// CompileAnswer builds one shared circuit computing P[c] for every condition
// in conds under distributions d. Conditions are expected pre-simplified
// (pctable.Lineage output already is); unsimplified input stays correct but
// compiles larger. The DistProvider fixes each variable's support (outcome
// values); evaluation may override the weights but not the support.
func CompileAnswer(conds []condition.Condition, d DistProvider) (*Circuit, error) {
	return CompileAnswerWithOptions(conds, d, Options{})
}

// CompileAnswerWithOptions is CompileAnswer with explicit options.
func CompileAnswerWithOptions(conds []condition.Condition, d DistProvider, opts Options) (*Circuit, error) {
	floats := floatOutcomes(d)
	cp := newCompiler(func(x condition.Variable) ([]value.Value, error) {
		o, err := floats(x)
		return valuesOf(o), err
	}, opts)
	roots := make([]int, 0, len(conds))
	for _, cond := range conds {
		root, err := cp.compile(cond)
		if err != nil {
			return nil, err
		}
		roots = append(roots, root)
	}
	s := cp.stats
	return &Circuit{nodes: cp.nodes, roots: roots, support: cp.support, stats: CircuitStats{
		Nodes:             len(cp.nodes),
		Roots:             len(roots),
		Vars:              len(cp.support),
		SharedHits:        s.MemoHits,
		EnumLeaves:        s.Enumerations,
		ComponentSplits:   s.ComponentSplits,
		ExclusiveSplits:   s.ExclusiveSplits,
		ShannonExpansions: s.ShannonExpansions,
	}}, nil
}

// junctKey identifies a junction node by the backing array of its child
// slice. Conditions are immutable, and the key's pointer keeps its backing
// array reachable for as long as the entry exists, so the address cannot be
// reused by a different slice meanwhile: a (first-element pointer, length)
// pair is a sound identity however long the compiler lives. CompileAnswer
// keeps the entries across all roots: the lineages of an answer share whole
// subcondition VALUES (the same AndCond/OrCond copied into many rows), and
// this key recognizes the share in O(1) where a structural re-walk would pay
// the subcondition's full size for every occurrence — the dominant cost at
// 10k+ tuples. The per-tuple evaluators drop them after every call
// (forgetJunctions).
type junctKey struct {
	or bool
	p  *condition.Condition
	n  int
}

// compiler is the one decomposition. Its node array only grows, and memo
// maps each compiled condition's ID to its node, so a compiler can be driven
// one condition at a time (dtree.go) or over a whole answer.
type compiler struct {
	// nodes 0 and 1 are the constants, so every compiled node's children
	// (constants included) precede it in index order.
	nodes []circuitNode
	// support holds each variable's compile-time outcome values, read once
	// from source.
	support map[condition.Variable][]value.Value
	source  func(condition.Variable) ([]value.Value, error)
	in      *condition.Interner
	memo    map[condition.ID]int
	// junctIDs and junctVars cache a junction's ID and its variables
	// under its backing array.
	junctIDs  map[junctKey]condition.ID
	junctVars map[junctKey][]condition.Variable
	kidIDs    []condition.ID // junctionID's scratch
	// varSeen/varGen are the generation-stamped scratch set of mergeVars:
	// one reused map instead of one allocation per junction.
	varSeen map[condition.Variable]int
	varGen  int
	opts    Options
	// stats counts the decomposition steps; MemoEntries is len(memo).
	stats Stats
}

func newCompiler(source func(condition.Variable) ([]value.Value, error), opts Options) *compiler {
	if opts.EnumThreshold <= 0 {
		opts.EnumThreshold = DefaultEnumThreshold
	}
	return &compiler{
		nodes:     []circuitNode{{kind: cnConst, one: false}, {kind: cnConst, one: true}},
		support:   make(map[condition.Variable][]value.Value),
		source:    source,
		in:        condition.NewInterner(),
		memo:      make(map[condition.ID]int),
		junctIDs:  make(map[junctKey]condition.ID),
		junctVars: make(map[junctKey][]condition.Variable),
		varSeen:   make(map[condition.Variable]int),
		opts:      opts,
	}
}

// forgetJunctions empties the backing-array caches. The memo, keyed by
// hash-consed ID, is kept.
func (cp *compiler) forgetJunctions() {
	clear(cp.junctIDs)
	clear(cp.junctVars)
}

// Stats returns the decomposition counters accumulated so far.
func (cp *compiler) Stats() Stats {
	s := cp.stats
	s.MemoEntries = len(cp.memo)
	return s
}

// condID is Interner.ID with an O(1) fast path for junctions already seen by
// backing-array identity, so the shared block of a high-sharing answer is
// structurally walked once, not once per tuple.
func (cp *compiler) condID(c condition.Condition) condition.ID {
	switch c := c.(type) {
	case condition.AndCond:
		if len(c.Conds) > 0 {
			return cp.junctionID(false, c.Conds)
		}
	case condition.OrCond:
		if len(c.Conds) > 0 {
			return cp.junctionID(true, c.Conds)
		}
	}
	return cp.in.ID(c)
}

func (cp *compiler) junctionID(or bool, juncts []condition.Condition) condition.ID {
	k := junctKey{or, &juncts[0], len(juncts)}
	if id, ok := cp.junctIDs[k]; ok {
		return id
	}
	// The child IDs are staged in a shared buffer, so a junction whose
	// children are already interned costs no allocation.
	start := len(cp.kidIDs)
	for _, j := range juncts {
		id := cp.condID(j) // may grow and restore kidIDs beyond start
		cp.kidIDs = append(cp.kidIDs, id)
	}
	var id condition.ID
	if or {
		id = cp.in.OrID(cp.kidIDs[start:])
	} else {
		id = cp.in.AndID(cp.kidIDs[start:])
	}
	cp.kidIDs = cp.kidIDs[:start]
	cp.junctIDs[k] = id
	return id
}

// varsOf returns c's sorted free variables. A junction's set is merged from
// its children's and cached under its backing array (junctKey), so a
// subcondition shared by value is walked once, and no condition has to be
// interned just to find its variables; an atom's at most two variables are
// read off directly.
func (cp *compiler) varsOf(c condition.Condition) []condition.Variable {
	switch c := c.(type) {
	case condition.Cmp:
		l, r := c.Left, c.Right
		switch {
		case l.IsVar && r.IsVar && l.Var != r.Var:
			return []condition.Variable{min(l.Var, r.Var), max(l.Var, r.Var)}
		case l.IsVar:
			return []condition.Variable{l.Var}
		case r.IsVar:
			return []condition.Variable{r.Var}
		}
		return nil
	case condition.NotCond:
		return cp.varsOf(c.Cond)
	case condition.AndCond:
		return cp.junctionVars(false, c.Conds)
	case condition.OrCond:
		return cp.junctionVars(true, c.Conds)
	}
	return condition.Vars(c)
}

func (cp *compiler) junctionVars(or bool, juncts []condition.Condition) []condition.Variable {
	if len(juncts) == 0 {
		return nil
	}
	k := junctKey{or, &juncts[0], len(juncts)}
	if v, ok := cp.junctVars[k]; ok {
		return v
	}
	v := cp.mergeVars(juncts)
	cp.junctVars[k] = v
	return v
}

func (cp *compiler) mergeVars(juncts []condition.Condition) []condition.Variable {
	if len(juncts) == 2 {
		return mergeSortedVars(cp.varsOf(juncts[0]), cp.varsOf(juncts[1]))
	}
	// Resolve every child's variable set BEFORE stamping: varsOf on an
	// uncached child junction recurses into mergeVars, which advances varGen
	// — stamping concurrently with those recursive calls would mistake the
	// nested generation's marks for this one's and drop variables.
	sets := make([][]condition.Variable, len(juncts))
	for i, j := range juncts {
		sets[i] = cp.varsOf(j)
	}
	cp.varGen++
	out := make([]condition.Variable, 0, 8)
	for _, set := range sets {
		for _, x := range set {
			if cp.varSeen[x] != cp.varGen {
				cp.varSeen[x] = cp.varGen
				out = append(out, x)
			}
		}
	}
	slices.Sort(out)
	return out
}

// mergeSortedVars merges two sorted variable slices, deduplicating — the
// two-junct case (a private guard ∧ a shared block) is the per-tuple hot
// path and needs no scratch set.
func mergeSortedVars(a, b []condition.Variable) []condition.Variable {
	out := make([]condition.Variable, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// sortedVarsDisjoint reports whether two sorted variable slices share no
// variable.
func sortedVarsDisjoint(a, b []condition.Variable) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			return false
		}
	}
	return true
}

func (cp *compiler) add(n circuitNode) int {
	cp.nodes = append(cp.nodes, n)
	return len(cp.nodes) - 1
}

// supportOf registers (and caches) x's compile-time outcome values.
func (cp *compiler) supportOf(x condition.Variable) ([]value.Value, error) {
	if s, ok := cp.support[x]; ok {
		return s, nil
	}
	s, err := cp.source(x)
	if err != nil {
		return nil, err
	}
	if len(s) == 0 {
		return nil, fmt.Errorf("probcalc: empty distribution for variable %s", x)
	}
	cp.support[x] = s
	return s, nil
}

// residualSmall reports whether vars has at most EnumThreshold valuations.
func (cp *compiler) residualSmall(vars []condition.Variable) (bool, error) {
	n := int64(1)
	for _, x := range vars {
		s, err := cp.supportOf(x)
		if err != nil {
			return false, err
		}
		n *= int64(len(s))
		if n > cp.opts.EnumThreshold {
			return false, nil
		}
	}
	return true, nil
}

// compile returns the node index computing P[c], deciding in order:
// constants, residual enumeration, negation complement, junction splits,
// Shannon expansion. Memoized by hash-consed ID, so any subcondition shared
// across conditions (or within one) compiles once.
func (cp *compiler) compile(c condition.Condition) (int, error) {
	switch c.(type) {
	case condition.TrueCond:
		return 1, nil
	case condition.FalseCond:
		return 0, nil
	}
	id := cp.condID(c)
	if n, ok := cp.memo[id]; ok {
		cp.stats.MemoHits++
		return n, nil
	}
	vars := cp.varsOf(c)
	if len(vars) == 0 {
		n := 0
		if condition.MustEval(c, nil) {
			n = 1
		}
		cp.memo[id] = n
		return n, nil
	}
	cp.stats.MemoMisses++
	small, err := cp.residualSmall(vars)
	if err != nil {
		return 0, err
	}
	var idx int
	switch {
	case len(vars) == 1 || small:
		cp.stats.Enumerations++
		idx = cp.add(circuitNode{kind: cnEnum, cond: c, vars: vars})
	default:
		switch cc := c.(type) {
		case condition.NotCond:
			var kid int
			kid, err = cp.compile(cc.Cond)
			if err == nil {
				idx = cp.add(circuitNode{kind: cnNot, kids: []int{kid}})
			}
		case condition.AndCond:
			idx, err = cp.junction(cc.Conds, true, c, vars)
		case condition.OrCond:
			idx, err = cp.junction(cc.Conds, false, c, vars)
		default:
			idx, err = cp.shannon(c, vars)
		}
		if err != nil {
			return 0, err
		}
	}
	cp.memo[id] = idx
	return idx, nil
}

// junction compiles a conjunction (isAnd) or disjunction: independence
// splits become products (disjunctions via De Morgan: 1 − Π(1 − pᵢ)),
// exclusive disjunctions become sums, everything else Shannon-expands.
func (cp *compiler) junction(juncts []condition.Condition, isAnd bool, whole condition.Condition, vars []condition.Variable) (int, error) {
	// Two-junct fast path: no union-find maps for the per-tuple shape
	// guard ∧ shared-block.
	var comps [][]condition.Condition
	if len(juncts) == 2 {
		if sortedVarsDisjoint(cp.varsOf(juncts[0]), cp.varsOf(juncts[1])) {
			comps = [][]condition.Condition{juncts[:1:1], juncts[1:2:2]}
		} else {
			comps = [][]condition.Condition{juncts}
		}
	} else {
		comps = componentsVars(juncts, cp.varsOf)
	}
	if len(comps) > 1 {
		cp.stats.ComponentSplits++
		kids := make([]int, 0, len(comps))
		for _, comp := range comps {
			var sub condition.Condition
			if isAnd {
				sub = condition.And(comp...)
			} else {
				sub = condition.Or(comp...)
			}
			kid, err := cp.compile(sub)
			if err != nil {
				return 0, err
			}
			if !isAnd {
				kid = cp.add(circuitNode{kind: cnNot, kids: []int{kid}})
			}
			kids = append(kids, kid)
		}
		prod := cp.add(circuitNode{kind: cnMul, kids: kids})
		if isAnd {
			return prod, nil
		}
		return cp.add(circuitNode{kind: cnNot, kids: []int{prod}}), nil
	}
	if !isAnd && pairwiseDisjoint(juncts) {
		cp.stats.ExclusiveSplits++
		kids := make([]int, 0, len(juncts))
		for _, d := range juncts {
			kid, err := cp.compile(d)
			if err != nil {
				return 0, err
			}
			kids = append(kids, kid)
		}
		return cp.add(circuitNode{kind: cnSum, kids: kids}), nil
	}
	return cp.shannon(whole, vars)
}

// shannon compiles a pivot expansion: one child per support value of the
// pivot, weighted at evaluation time by the then-current distribution.
func (cp *compiler) shannon(c condition.Condition, vars []condition.Variable) (int, error) {
	pivot := pickPivot(c, vars)
	sup, err := cp.supportOf(pivot)
	if err != nil {
		return 0, err
	}
	cp.stats.ShannonExpansions++
	kids := make([]int, 0, len(sup))
	val := make(condition.Valuation, 1)
	for _, v := range sup {
		val[pivot] = v
		kid, err := cp.compile(c.Substitute(val))
		if err != nil {
			return 0, err
		}
		kids = append(kids, kid)
	}
	return cp.add(circuitNode{kind: cnShannon, pivot: pivot, kids: kids}), nil
}

// Stats returns the compile-time statistics of the circuit.
func (c *Circuit) Stats() CircuitStats { return c.stats }

// NumNodes returns the number of DAG nodes (constants included).
func (c *Circuit) NumNodes() int { return len(c.nodes) }

// NumRoots returns the number of input conditions the circuit computes.
func (c *Circuit) NumRoots() int { return len(c.roots) }

// EvalFloat computes every root's probability in float64 under d. d may be
// the compile-time provider or an override with the same (or narrower)
// per-variable supports — the what-if path.
func (c *Circuit) EvalFloat(d DistProvider) ([]float64, error) {
	return evalCircuit(c, floatField(), floatOutcomes(d))
}

// EvalRat computes every root's probability in exact rational arithmetic
// under d, bit-identical to the ExactEvaluator and to EnumProbabilityRat on
// each root condition.
func (c *Circuit) EvalRat(d DistProvider) ([]*big.Rat, error) {
	return evalCircuit(c, ratField(), ratOutcomes(d))
}

// WellFormed checks the structural invariants the fuzzer and equivalence
// tests rely on: children strictly precede parents (hence no cycles), root
// indices are in range, and node shapes match their kinds.
func (c *Circuit) WellFormed() error {
	for i, n := range c.nodes {
		for _, k := range n.kids {
			if k < 0 || k >= i {
				return fmt.Errorf("probcalc: node %d has child %d not strictly before it", i, k)
			}
		}
		switch n.kind {
		case cnConst:
			if len(n.kids) != 0 {
				return fmt.Errorf("probcalc: const node %d has children", i)
			}
		case cnNot:
			if len(n.kids) != 1 {
				return fmt.Errorf("probcalc: not node %d has %d children", i, len(n.kids))
			}
		case cnEnum:
			if n.cond == nil || len(n.vars) == 0 {
				return fmt.Errorf("probcalc: enum node %d lacks condition or variables", i)
			}
		case cnShannon:
			if len(n.kids) == 0 || len(n.kids) != len(c.support[n.pivot]) {
				return fmt.Errorf("probcalc: shannon node %d malformed", i)
			}
		}
	}
	for i, r := range c.roots {
		if r < 0 || r >= len(c.nodes) {
			return fmt.Errorf("probcalc: root %d points at node %d of %d", i, r, len(c.nodes))
		}
	}
	return nil
}

// varWeights is one variable's evaluation-time distribution: its outcomes in
// distribution order (for enumeration leaves), and branch[j], the weight of
// the j-th compile-time support value (for Shannon nodes; zero for a value
// an overridden distribution leaves out, so that branch adds nothing).
// Where the support is the distribution's own order, branch is outs.
type varWeights[T any] struct {
	outs   []weighted[T]
	branch []weighted[T]
}

// evalCircuit evaluates a whole circuit under dist, after validating dist
// against the compile-time support, and reads off the roots.
func evalCircuit[T any](c *Circuit, f field[T], dist func(condition.Variable) ([]weighted[T], error)) ([]T, error) {
	w := make(map[condition.Variable]varWeights[T], len(c.support))
	for x, sup := range c.support {
		o, err := dist(x)
		if err != nil {
			return nil, err
		}
		if len(o) == 0 {
			return nil, fmt.Errorf("probcalc: empty distribution for variable %s", x)
		}
		pos := make(map[value.Value]int, len(sup))
		branch := make([]weighted[T], len(sup))
		for j, v := range sup {
			pos[v] = j
			branch[j] = weighted[T]{v: v, w: f.zero()}
		}
		for _, wo := range o {
			j, ok := pos[wo.v]
			if !ok {
				return nil, fmt.Errorf("probcalc: value %s of variable %s is outside the circuit's compile-time support", wo.v, x)
			}
			branch[j].w = wo.w
		}
		w[x] = varWeights[T]{outs: o, branch: branch}
	}
	vals := evalNodes(f, c.nodes, make([]T, 0, len(c.nodes)), w, make(condition.Valuation))
	res := make([]T, len(c.roots))
	for i, r := range c.roots {
		res[i] = vals[r]
	}
	return res, nil
}

// evalNodes is the one node evaluator: it computes nodes[len(vals):] in
// index order (a topological order by construction), appending each value
// to vals. w must hold every variable the nodes mention. val is scratch
// every enumeration leaf builds its valuations in: most leaves of a
// pre-simplified answer bind one variable, and paying a map per leaf
// dominates evaluation otherwise.
func evalNodes[T any](f field[T], nodes []circuitNode, vals []T, w map[condition.Variable]varWeights[T], val condition.Valuation) []T {
	for i := len(vals); i < len(nodes); i++ {
		n := &nodes[i]
		var v T
		switch n.kind {
		case cnConst:
			if n.one {
				v = f.one()
			} else {
				v = f.zero()
			}
		case cnEnum:
			v = enumerateLeaf(f, n.cond, n.vars, w, val)
		case cnNot:
			v = f.sub(f.one(), vals[n.kids[0]])
		case cnMul:
			v = f.one()
			for _, k := range n.kids {
				v = f.mul(v, vals[k])
			}
		case cnSum:
			v = f.zero()
			for _, k := range n.kids {
				v = f.add(v, vals[k])
			}
		case cnShannon:
			v = f.zero()
			branch := w[n.pivot].branch
			for j, k := range n.kids {
				v = f.add(v, f.mul(branch[j].w, vals[k]))
			}
		}
		vals = append(vals, v)
	}
	return vals
}

// enumerateLeaf sums the weights of the valuations of vars (each ranging
// over its outcomes in w) that satisfy c, in lexicographic order of the
// outcomes. val is scratch the valuations are built in; the leaf's
// variables are removed from it again on return.
func enumerateLeaf[T any](f field[T], c condition.Condition, vars []condition.Variable, w map[condition.Variable]varWeights[T], val condition.Valuation) T {
	acc := f.zero()
	enumerateFrom(f, c, vars, w, val, f.one(), &acc)
	for _, x := range vars {
		delete(val, x)
	}
	return acc
}

func enumerateFrom[T any](f field[T], c condition.Condition, vars []condition.Variable, w map[condition.Variable]varWeights[T], val condition.Valuation, weight T, acc *T) {
	if len(vars) == 0 {
		if condition.MustEval(c, val) {
			*acc = f.add(*acc, weight)
		}
		return
	}
	for _, o := range w[vars[0]].outs {
		val[vars[0]] = o.v
		enumerateFrom(f, c, vars[1:], w, val, f.mul(weight, o.w), acc)
	}
}
