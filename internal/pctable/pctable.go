package pctable

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
)

// PCTable is a probabilistic c-table (Definition 13): a c-table together
// with a finite probability distribution dom(x) for every variable x
// occurring in it. The variables are assumed independent; Mod(T) is the
// image of the product space of the variable distributions under ν ↦ ν(T).
type PCTable struct {
	table *ctable.CTable
	dists map[condition.Variable]*prob.Space
}

// New wraps a c-table into a pc-table with no distributions yet; attach
// them with SetDist before calling Mod.
func New(table *ctable.CTable) *PCTable {
	return &PCTable{table: table, dists: make(map[condition.Variable]*prob.Space)}
}

// NewWithArity creates a pc-table over a fresh empty c-table.
func NewWithArity(arity int) *PCTable { return New(ctable.New(arity)) }

// Table returns the underlying c-table.
func (t *PCTable) Table() *ctable.CTable { return t.table }

// Arity returns the arity of the table.
func (t *PCTable) Arity() int { return t.table.Arity() }

// NumRows returns the number of rows of the underlying c-table.
func (t *PCTable) NumRows() int { return t.table.NumRows() }

// Row returns the i-th row of the underlying c-table as an exec.Row view;
// with Arity, NumRows and EachDomain it makes *PCTable an exec.Model, so the
// shared operator core scans pc-tables directly.
func (t *PCTable) Row(i int) exec.Row { return t.table.Row(i) }

// Encoding implements exec.Encoder by delegating to the underlying c-table,
// so what-if views (WithDists) share their table's encoding.
func (t *PCTable) Encoding() *exec.Encoding { return t.table.Encoding() }

// EachDomain visits the declared finite variable domains (exec.Model).
func (t *PCTable) EachDomain(f func(condition.Variable, *value.Domain)) { t.table.EachDomain(f) }

// AddRow adds a row to the underlying c-table.
func (t *PCTable) AddRow(terms []condition.Term, cond condition.Condition) *PCTable {
	t.table.AddRow(terms, cond)
	return t
}

// AddConstRow adds a constant row to the underlying c-table.
func (t *PCTable) AddConstRow(tuple value.Tuple, cond condition.Condition) *PCTable {
	t.table.AddConstRow(tuple, cond)
	return t
}

// SetDist attaches the distribution of variable x. The c-table's finite
// domain for x is set to the support of the distribution so that the
// incompleteness semantics and the probabilistic semantics agree.
func (t *PCTable) SetDist(x string, dist map[value.Value]float64) *PCTable {
	space := prob.MustNewValueSpace(dist)
	t.dists[condition.Variable(x)] = space
	support := make([]value.Value, 0, space.Size())
	for _, o := range space.Outcomes() {
		support = append(support, o.ValuePayload())
	}
	t.table.SetDomain(x, value.NewDomain(support...))
	return t
}

// SetSpace attaches an already-constructed distribution space to variable x.
// Spaces are immutable, so the space is shared, not copied. Like SetDist, the
// c-table's finite domain for x is set to the support of the distribution;
// callers that declared a wider domain re-apply it afterwards.
func (t *PCTable) SetSpace(x string, space *prob.Space) *PCTable {
	t.dists[condition.Variable(x)] = space
	support := make([]value.Value, 0, space.Size())
	for _, o := range space.Outcomes() {
		support = append(support, o.ValuePayload())
	}
	t.table.SetDomain(x, value.NewDomain(support...))
	return t
}

// SetBoolDist attaches a Bernoulli distribution P[x=true] = p, the common
// case for boolean pc-tables and probabilistic ?-tables.
func (t *PCTable) SetBoolDist(x string, p float64) *PCTable {
	return t.SetDist(x, map[value.Value]float64{value.Bool(true): p, value.Bool(false): 1 - p})
}

// Dist returns the distribution of variable x (nil if not set).
func (t *PCTable) Dist(x condition.Variable) *prob.Space { return t.dists[x] }

// EachDist visits every attached distribution (iteration order is
// unspecified). Unlike iterating Vars, it never scans the rows, so the patch
// layer can carry distributions to a patched table in O(#distributions).
func (t *PCTable) EachDist(f func(condition.Variable, *prob.Space)) {
	for x, d := range t.dists {
		f(x, d)
	}
}

// Vars returns the variables of the underlying c-table.
func (t *PCTable) Vars() []condition.Variable { return t.table.Vars() }

// IsBoolean reports whether the underlying c-table is a boolean c-table
// (variables only in conditions, boolean domains).
func (t *PCTable) IsBoolean() bool { return t.table.IsBoolean() }

// Validate checks that every variable of the table has a distribution.
func (t *PCTable) Validate() error {
	for _, x := range t.table.Vars() {
		if t.dists[x] == nil {
			return fmt.Errorf("pctable: variable %s has no distribution", x)
		}
	}
	return nil
}

// Copy returns an independent copy (distributions are shared, they are
// immutable).
func (t *PCTable) Copy() *PCTable {
	c := New(t.table.Copy())
	for x, d := range t.dists {
		c.dists[x] = d
	}
	return c
}

// CloneWithRows returns a pc-table holding exactly the given rows while
// carrying this table's variable distributions and declared domains. Rows are
// adopted as-is (term slices shared), matching the operator core's row
// discipline. Incremental view maintenance uses this to rebuild a maintained
// answer (old rows + delta rows) and to scope PossibleTuples to a suspect
// row subset under the full table's distribution context.
func (t *PCTable) CloneWithRows(rows []exec.Row) *PCTable {
	return t.WithRows(append([]exec.Row(nil), rows...))
}

// WithRows is CloneWithRows adopting rows as the new table's row slice
// (ctable.FromRows): the caller gives up ownership of the slice. The
// distribution and domain pointers are carried over, never rebuilt, so the
// cost is O(#rows + #variables) pointer copies.
func (t *PCTable) WithRows(rows []exec.Row) *PCTable {
	return &PCTable{table: t.table.WithRows(rows), dists: maps.Clone(t.dists)}
}

// WithDists returns a view of the pc-table with the distributions of the
// given variables replaced — the what-if evaluation view. The underlying
// c-table is shared (reweighting never changes the rows); every overridden
// variable must already have a distribution, and the override's support must
// stay within the original support, because the declared domains (and any
// circuit compiled against them) fix the value space.
func (t *PCTable) WithDists(over map[condition.Variable]*prob.Space) (*PCTable, error) {
	c := &PCTable{table: t.table, dists: make(map[condition.Variable]*prob.Space, len(t.dists))}
	for x, d := range t.dists {
		c.dists[x] = d
	}
	for x, d := range over {
		base := t.dists[x]
		if base == nil {
			return nil, fmt.Errorf("pctable: variable %s has no distribution to override", x)
		}
		if d == nil || d.Size() == 0 {
			return nil, fmt.Errorf("pctable: empty override distribution for variable %s", x)
		}
		allowed := make(map[string]bool, base.Size())
		for _, o := range base.Outcomes() {
			allowed[o.Key] = true
		}
		for _, o := range d.Outcomes() {
			if !allowed[o.Key] {
				return nil, fmt.Errorf("pctable: override value %s for variable %s is outside the declared support", o.ValuePayload(), x)
			}
		}
		c.dists[x] = d
	}
	return c, nil
}

// valuationProbability returns the product probability of a valuation of
// the given variables.
func (t *PCTable) valuationProbability(vars []condition.Variable, v condition.Valuation) float64 {
	p := 1.0
	for _, x := range vars {
		p *= t.dists[x].P(v[x].Key())
	}
	return p
}

// Mod returns the probabilistic database represented by the pc-table: the
// image of the product of the variable distributions under ν ↦ ν(T)
// (Definition 13 and the construction below it).
func (t *PCTable) Mod() (*PDatabase, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	vars := t.table.Vars()
	out := NewPDatabase(t.table.Arity())
	var applyErr error
	condition.ForEachValuation(vars, t.table, func(v condition.Valuation) bool {
		inst, err := t.table.Apply(v)
		if err != nil {
			applyErr = err
			return false
		}
		out.AddWorld(inst, t.valuationProbability(vars, v))
		return true
	})
	if applyErr != nil {
		return nil, applyErr
	}
	if err := out.Check(); err != nil {
		return nil, err
	}
	return out, nil
}

// MustMod is Mod that panics on error.
func (t *PCTable) MustMod() *PDatabase {
	db, err := t.Mod()
	if err != nil {
		panic(err)
	}
	return db
}

// ConditionProbability returns the probability that the condition c holds
// under the independent variable distributions of the table. It is computed
// by the decomposition engine in internal/probcalc (independence splits,
// exclusive-disjunction splits, Shannon expansion with memoization), which
// enumerates valuations only for tiny residual subproblems — the scalable
// successor of the brute force kept in ConditionProbabilityEnum.
func (t *PCTable) ConditionProbability(c condition.Condition) (float64, error) {
	return probcalc.Probability(c, t)
}

// ConditionProbabilityEnum is the brute-force reference implementation: it
// enumerates every valuation of the variables occurring in c, which is
// exponential in their number. It is the enum engine of Marginals — served
// enum queries, what-if included, and cmd/pctable -engine=enum — and the
// reference the tests and the E12 crossover benchmarks compare the d-tree
// against.
func (t *PCTable) ConditionProbabilityEnum(c condition.Condition) (float64, error) {
	vars := condition.Vars(c)
	for _, x := range vars {
		if t.dists[x] == nil {
			return 0, fmt.Errorf("pctable: variable %s has no distribution", x)
		}
	}
	p := 0.0
	var evalErr error
	condition.ForEachValuation(vars, t.table, func(v condition.Valuation) bool {
		holds, err := c.Eval(v)
		if err != nil {
			evalErr = err
			return false
		}
		if holds {
			p += t.valuationProbability(vars, v)
		}
		return true
	})
	if evalErr != nil {
		return 0, evalErr
	}
	return p, nil
}

// EvalQuery implements Theorem 9: pc-tables are closed under the relational
// algebra. The result is the pc-table whose underlying c-table is q̄(T) and
// whose variable distributions are unchanged.
func (t *PCTable) EvalQuery(q ra.Query) (*PCTable, error) {
	res, err := ctable.EvalQuery(q, t.table)
	if err != nil {
		return nil, err
	}
	out := New(res)
	for x, d := range t.dists {
		out.dists[x] = d
	}
	return out, nil
}

// TupleProbability returns the marginal probability that the tuple occurs
// in the represented instance, computed from the lineage condition
//
//	⋁_{rows (u:φ)} ( φ ∧ u = t )
//
// rather than by enumerating possible worlds.
func (t *PCTable) TupleProbability(tuple value.Tuple) (float64, error) {
	if len(tuple) != t.table.Arity() {
		return 0, fmt.Errorf("pctable: tuple arity %d, table arity %d", len(tuple), t.table.Arity())
	}
	lineage := t.Lineage(tuple)
	return t.ConditionProbability(lineage)
}

// TupleProbabilityEnum is TupleProbability computed by brute-force valuation
// enumeration instead of the decomposition engine; see
// ConditionProbabilityEnum.
func (t *PCTable) TupleProbabilityEnum(tuple value.Tuple) (float64, error) {
	if len(tuple) != t.table.Arity() {
		return 0, fmt.Errorf("pctable: tuple arity %d, table arity %d", len(tuple), t.table.Arity())
	}
	return t.ConditionProbabilityEnum(t.Lineage(tuple))
}

// Lineage returns the boolean condition (over the table's variables) that
// is true exactly when the given tuple belongs to the represented instance
// — the "lineage"/why-provenance reading of c-table conditions discussed in
// Section 9 of the paper.
//
// Lineage rescans every row for its one tuple, so calling it per candidate
// costs O(candidates × rows); CandidatesOf builds the same conditions for
// all candidates in one row pass. Lineage is the per-tuple reference that
// CandidatesOf is tested against, kept for the oracles and the benchmark's
// per-layer probe.
func (t *PCTable) Lineage(tuple value.Tuple) condition.Condition {
	var disj []condition.Condition
	for _, row := range t.table.Rows() {
		conds := []condition.Condition{row.Cond}
		matches := true
		for i, term := range row.Terms {
			if term.IsVar {
				conds = append(conds, condition.Eq(term, condition.Const(tuple[i])))
				continue
			}
			if term.Const != tuple[i] {
				matches = false
				break
			}
		}
		if matches {
			disj = append(disj, condition.And(conds...))
		}
	}
	return condition.Simplify(condition.Or(disj...))
}

// PossibleTuples returns every tuple some row of the table can instantiate
// to over the variable supports, deduplicated and sorted. Unlike world
// enumeration (Mod), the cost is per-row exponential only in the variables
// occurring in that row's *terms* (at most the arity), never in the total
// variable count — it is the scalable way to discover candidate tuples for
// marginal computation. Rows whose condition is syntactically false are
// skipped; a returned tuple may still have marginal probability zero if its
// lineage is unsatisfiable in a non-obvious way.
func (t *PCTable) PossibleTuples() ([]value.Tuple, error) {
	seen := make(map[string]value.Tuple)
	for _, row := range t.table.Rows() {
		if _, isFalse := row.Cond.(condition.FalseCond); isFalse {
			continue
		}
		var rowVars []condition.Variable
		inRow := make(map[condition.Variable]bool)
		for _, term := range row.Terms {
			if term.IsVar && !inRow[term.Var] {
				inRow[term.Var] = true
				rowVars = append(rowVars, term.Var)
			}
		}
		for _, x := range rowVars {
			if t.dists[x] == nil {
				return nil, fmt.Errorf("pctable: variable %s has no distribution", x)
			}
		}
		build := func(v condition.Valuation) {
			tuple := make(value.Tuple, len(row.Terms))
			for i, term := range row.Terms {
				if term.IsVar {
					tuple[i] = v[term.Var]
				} else {
					tuple[i] = term.Const
				}
			}
			seen[tuple.Key()] = tuple
		}
		if len(rowVars) == 0 {
			build(nil)
			continue
		}
		condition.ForEachValuation(rowVars, t.table, func(v condition.Valuation) bool {
			build(v)
			return true
		})
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]value.Tuple, 0, len(keys))
	for _, k := range keys {
		out = append(out, seen[k])
	}
	return out, nil
}

// TupleProbabilities returns the marginal probability of every possible
// tuple of the table: candidates and their lineage come from the rows
// (Candidates) — not from enumerating possible worlds — and Marginals
// computes the probabilities with the circuit engine, dropping candidates
// whose marginal is zero. The whole pipeline avoids anything exponential in
// the total variable count.
func (t *PCTable) TupleProbabilities() ([]TupleProb, error) {
	candidates, err := t.Candidates()
	if err != nil {
		return nil, err
	}
	answers, err := Marginals(t, candidates, Strategy{Engine: EngineCircuit})
	if err != nil {
		return nil, err
	}
	out := make([]TupleProb, len(answers))
	for i, a := range answers {
		out[i] = TupleProb{Tuple: a.Tuple, P: a.P}
	}
	return out, nil
}

// AnswerTupleProbabilities evaluates q over the pc-table (Theorem 9) and
// returns the marginal probability of every possible answer tuple, the
// problem studied by Fuhr–Rölleke, Zimányi and ProbView; see
// TupleProbabilities for how the answers are discovered and computed.
func (t *PCTable) AnswerTupleProbabilities(q ra.Query) ([]TupleProb, error) {
	answer, err := t.EvalQuery(q)
	if err != nil {
		return nil, err
	}
	return answer.TupleProbabilities()
}

// String renders the pc-table: the underlying c-table plus the variable
// distributions.
func (t *PCTable) String() string {
	var b strings.Builder
	b.WriteString(strings.TrimSuffix(t.table.String(), "\n"))
	b.WriteString("\n")
	vars := t.table.Vars()
	for _, x := range vars {
		if d := t.dists[x]; d != nil {
			fmt.Fprintf(&b, "  %s ~ %s\n", x, d)
		}
	}
	return b.String()
}
