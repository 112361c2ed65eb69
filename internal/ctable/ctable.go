// Package ctable implements the tables-with-variables representation
// systems at the heart of the paper: Codd tables, v-tables and c-tables
// (Imieliński & Lipski), their finite-domain restrictions (Definition 6)
// and boolean c-tables, together with
//
//   - the semantics Mod(T) via valuation enumeration (finite-domain) or
//     over a caller-supplied active domain (plain tables),
//   - the c-table algebra q̄ of Theorem 4, which gives closure under the
//     relational algebra,
//   - the RA-definability construction of Theorem 1 (every c-table is
//     q(Z_k) for an SPJU query q), and
//   - the finite-completeness construction of Theorem 3 (every finite
//     incomplete database is representable by a boolean c-table).
package ctable

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync/atomic"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/incomplete"
	"uncertaindb/internal/relation"
	"uncertaindb/internal/value"
)

// Row is one row of a c-table: a symbolic tuple (terms are constants or
// variables) guarded by a condition. It is an alias of the operator core's
// row type, so answers materialized by the engine are adopted without
// conversion (and a *CTable is an exec.Model without adapter glue).
type Row = exec.Row

// NewRow builds a row; a nil condition means "true" (a v-table row).
func NewRow(terms []condition.Term, cond condition.Condition) Row {
	if cond == nil {
		cond = condition.True()
	}
	return Row{Terms: append([]condition.Term(nil), terms...), Cond: cond}
}

// rowVars accumulates the variables of the row (terms and condition).
func rowVars(r Row, set map[condition.Variable]bool) {
	for _, t := range r.Terms {
		if t.IsVar {
			set[t.Var] = true
		}
	}
	for _, v := range condition.Vars(r.Cond) {
		set[v] = true
	}
}

// CTable is a conditional table. A CTable with all conditions "true" is a
// v-table; a v-table whose variables are pairwise distinct is a Codd table;
// a CTable whose variables occur only in conditions and range over the
// boolean domain is a boolean c-table.
//
// A CTable optionally carries finite domains for its variables
// (Definition 6); a table with a domain for every variable is a
// finite-domain c-table and has a finite Mod.
//
// A CTable memoizes the dictionary encoding of its rows (exec.Encoding): the
// first query that reads the table builds it, and every later query shares
// it. AddRow, AdoptRow and AddConstRow drop the memo; the row slice Rows
// returns is read-only, so nothing else can change what was encoded.
type CTable struct {
	arity   int
	rows    []Row
	domains map[condition.Variable]*value.Domain
	enc     atomic.Pointer[exec.Encoding]
}

// New returns an empty c-table of the given (positive) arity.
func New(arity int) *CTable {
	if arity <= 0 {
		panic("ctable: arity must be positive")
	}
	return &CTable{arity: arity, domains: make(map[condition.Variable]*value.Domain)}
}

// FromRows returns a c-table of the given (positive) arity adopting rows as
// its row slice — no copying of the slice, the term slices or the condition
// trees. Rows must already be normalized (built by NewRow or produced by the
// operator core, so conditions are never nil) and must all have the table
// arity; the caller gives up ownership of the slice. It is the O(1) row-level
// constructor the patch layer uses to share unchanged rows between table
// versions.
func FromRows(arity int, rows []Row) *CTable {
	if arity <= 0 {
		panic("ctable: arity must be positive")
	}
	return &CTable{arity: arity, rows: rows, domains: make(map[condition.Variable]*value.Domain)}
}

// WithRows returns a c-table of t's arity adopting rows as FromRows does and
// sharing t's declared domains (domains are immutable; the map is cloned).
func (t *CTable) WithRows(rows []Row) *CTable {
	return &CTable{arity: t.arity, rows: rows, domains: maps.Clone(t.domains)}
}

// AddRow appends a row with the given terms and condition (nil = true).
// It panics if the number of terms differs from the table arity.
func (t *CTable) AddRow(terms []condition.Term, cond condition.Condition) *CTable {
	return t.AdoptRow(append([]condition.Term(nil), terms...), cond)
}

// AdoptRow is AddRow keeping terms itself as the row's term slice, without
// a copy: the caller gives up ownership of the slice. A parser that builds
// one slice per row hands it over this way.
func (t *CTable) AdoptRow(terms []condition.Term, cond condition.Condition) *CTable {
	if len(terms) != t.arity {
		panic(fmt.Sprintf("ctable: row arity %d, table arity %d", len(terms), t.arity))
	}
	if cond == nil {
		cond = condition.True()
	}
	t.rows = append(t.rows, Row{Terms: terms, Cond: cond})
	t.enc.Store(nil)
	return t
}

// AddConstRow appends a row of constants with the given condition.
func (t *CTable) AddConstRow(tuple value.Tuple, cond condition.Condition) *CTable {
	terms := make([]condition.Term, len(tuple))
	for i, v := range tuple {
		terms[i] = condition.Const(v)
	}
	return t.AddRow(terms, cond)
}

// SetDomain declares the finite domain of variable x (Definition 6).
func (t *CTable) SetDomain(x string, d *value.Domain) *CTable {
	d.MustNonEmpty("variable " + x)
	t.domains[condition.Variable(x)] = d
	return t
}

// Arity returns the arity of the table.
func (t *CTable) Arity() int { return t.arity }

// Rows returns the rows of the table. The slice and its rows are read-only:
// the memoized encoding is not dropped by writes through it.
func (t *CTable) Rows() []Row { return t.rows }

// NumRows returns the number of rows.
func (t *CTable) NumRows() int { return len(t.rows) }

// Vars returns all variables occurring in the table, sorted.
func (t *CTable) Vars() []condition.Variable {
	set := make(map[condition.Variable]bool)
	for _, r := range t.rows {
		rowVars(r, set)
	}
	out := make([]condition.Variable, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TupleVars returns the variables occurring in tuple positions, sorted.
func (t *CTable) TupleVars() []condition.Variable {
	set := make(map[condition.Variable]bool)
	for _, r := range t.rows {
		for _, term := range r.Terms {
			if term.IsVar {
				set[term.Var] = true
			}
		}
	}
	out := make([]condition.Variable, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DomainOf implements condition.DomainProvider: it returns the declared
// finite domain of x, or nil when the table is not finite-domain for x.
func (t *CTable) DomainOf(x condition.Variable) *value.Domain { return t.domains[x] }

// IsFiniteDomain reports whether every variable of the table has a declared
// finite domain.
func (t *CTable) IsFiniteDomain() bool {
	for _, x := range t.Vars() {
		if t.domains[x] == nil {
			return false
		}
	}
	return true
}

// IsVTable reports whether every condition of the table is the constant
// true (syntactically), i.e. the table is a v-table.
func (t *CTable) IsVTable() bool {
	for _, r := range t.rows {
		if _, ok := r.Cond.(condition.TrueCond); !ok {
			return false
		}
	}
	return true
}

// IsCoddTable reports whether the table is a Codd table: a v-table in which
// every variable occurrence is distinct (each variable appears exactly once).
func (t *CTable) IsCoddTable() bool {
	if !t.IsVTable() {
		return false
	}
	seen := make(map[condition.Variable]bool)
	for _, r := range t.rows {
		for _, term := range r.Terms {
			if !term.IsVar {
				continue
			}
			if seen[term.Var] {
				return false
			}
			seen[term.Var] = true
		}
	}
	return true
}

// IsBoolean reports whether the table is a boolean c-table: variables occur
// only in conditions (never as attribute values) and every variable ranges
// over the boolean domain.
func (t *CTable) IsBoolean() bool {
	if len(t.TupleVars()) != 0 {
		return false
	}
	boolDom := value.BoolDomain()
	for _, x := range t.Vars() {
		d := t.domains[x]
		if d == nil || !d.Equal(boolDom) {
			return false
		}
	}
	return true
}

// Copy returns an independent copy of the table.
func (t *CTable) Copy() *CTable {
	c := New(t.arity)
	c.rows = make([]Row, len(t.rows))
	for i, r := range t.rows {
		c.rows[i] = NewRow(r.Terms, r.Cond)
	}
	for x, d := range t.domains {
		c.domains[x] = d
	}
	return c
}

// String renders the table row by row.
func (t *CTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "c-table(arity=%d)\n", t.arity)
	for _, r := range t.rows {
		b.WriteString("  " + r.String() + "\n")
	}
	if len(t.domains) > 0 {
		vars := t.Vars()
		for _, x := range vars {
			if d := t.domains[x]; d != nil {
				fmt.Fprintf(&b, "  dom(%s) = %s\n", x, d)
			}
		}
	}
	return b.String()
}

// Apply instantiates the table under a total valuation ν: it substitutes ν
// into every term, keeps the rows whose condition is satisfied, and returns
// the resulting conventional instance ν(T). It returns an error if some
// variable of the table is unbound.
func (t *CTable) Apply(v condition.Valuation) (*relation.Relation, error) {
	out := relation.New(t.arity)
	for _, r := range t.rows {
		keep, err := r.Cond.Eval(v)
		if err != nil {
			return nil, err
		}
		if !keep {
			continue
		}
		tuple := make(value.Tuple, t.arity)
		for i, term := range r.Terms {
			if term.IsVar {
				val, ok := v[term.Var]
				if !ok {
					return nil, fmt.Errorf("ctable: unbound variable %s in tuple position %d", term.Var, i+1)
				}
				tuple[i] = val
			} else {
				tuple[i] = term.Const
			}
		}
		out.Add(tuple)
	}
	return out, nil
}

// MustApply is Apply that panics on error.
func (t *CTable) MustApply(v condition.Valuation) *relation.Relation {
	r, err := t.Apply(v)
	if err != nil {
		panic(err)
	}
	return r
}

// domainsFor returns a DomainProvider for Mod enumeration: the declared
// per-variable domains, falling back to fallback for undeclared variables.
// It returns an error naming the first variable with no usable domain.
func (t *CTable) domainsFor(fallback *value.Domain) (condition.DomainProvider, error) {
	m := condition.NewMapDomains()
	for x, d := range t.domains {
		m.Domains[x] = d
	}
	m.Default = fallback
	for _, x := range t.Vars() {
		if d := m.DomainOf(x); d == nil || d.Size() == 0 {
			return nil, fmt.Errorf("ctable: variable %s has no finite domain; use ModOver with an explicit domain", x)
		}
	}
	return m, nil
}

// Mod returns the incomplete database represented by a finite-domain
// c-table by enumerating all valuations (Definition 6 semantics). It
// returns an error if some variable lacks a finite domain.
func (t *CTable) Mod() (*incomplete.IDatabase, error) { return t.modWith(nil) }

// MustMod is Mod that panics on error.
func (t *CTable) MustMod() *incomplete.IDatabase {
	db, err := t.Mod()
	if err != nil {
		panic(err)
	}
	return db
}

// ModOver returns the set of instances ν(T) for valuations ν ranging over
// the given finite sub-domain of D for variables without a declared domain.
// For plain c-tables over the infinite domain this is the standard
// finite-approximation device: Mod(T) restricted to valuations into dom.
func (t *CTable) ModOver(dom *value.Domain) (*incomplete.IDatabase, error) { return t.modWith(dom) }

func (t *CTable) modWith(fallback *value.Domain) (*incomplete.IDatabase, error) {
	provider, err := t.domainsFor(fallback)
	if err != nil {
		return nil, err
	}
	vars := t.Vars()
	out := incomplete.New(t.arity)
	var applyErr error
	condition.ForEachValuation(vars, provider, func(v condition.Valuation) bool {
		inst, err := t.Apply(v)
		if err != nil {
			applyErr = err
			return false
		}
		out.Add(inst)
		return true
	})
	if applyErr != nil {
		return nil, applyErr
	}
	return out, nil
}

// Member reports whether the instance I belongs to Mod(T), for a
// finite-domain table, by searching for a witnessing valuation.
func (t *CTable) Member(inst *relation.Relation) (bool, error) {
	if inst.Arity() != t.arity {
		return false, nil
	}
	provider, err := t.domainsFor(nil)
	if err != nil {
		return false, err
	}
	return t.memberWith(inst, provider), nil
}

// MemberOver is Member for plain c-tables: valuations range over the given
// domain (typically the active domain of inst and T plus fresh constants).
func (t *CTable) MemberOver(inst *relation.Relation, dom *value.Domain) (bool, error) {
	if inst.Arity() != t.arity {
		return false, nil
	}
	provider, err := t.domainsFor(dom)
	if err != nil {
		return false, err
	}
	return t.memberWith(inst, provider), nil
}

func (t *CTable) memberWith(inst *relation.Relation, provider condition.DomainProvider) bool {
	vars := t.Vars()
	found := false
	condition.ForEachValuation(vars, provider, func(v condition.Valuation) bool {
		world := t.MustApply(v)
		if world.Equal(inst) {
			found = true
			return false
		}
		return true
	})
	return found
}

// EquivalentTo reports whether two finite-domain c-tables represent the
// same incomplete database (Mod equality).
func (t *CTable) EquivalentTo(other *CTable) (bool, error) {
	a, err := t.Mod()
	if err != nil {
		return false, err
	}
	b, err := other.Mod()
	if err != nil {
		return false, err
	}
	return a.Equal(b), nil
}

// Constants returns the set of constants appearing in tuple positions or
// conditions of the table.
func (t *CTable) Constants() *value.Domain {
	var vs []value.Value
	for _, r := range t.rows {
		for _, term := range r.Terms {
			if !term.IsVar {
				vs = append(vs, term.Const)
			}
		}
		vs = append(vs, conditionConstants(r.Cond)...)
	}
	return value.NewDomain(vs...)
}

func conditionConstants(c condition.Condition) []value.Value {
	switch c := c.(type) {
	case condition.Cmp:
		var vs []value.Value
		if !c.Left.IsVar {
			vs = append(vs, c.Left.Const)
		}
		if !c.Right.IsVar {
			vs = append(vs, c.Right.Const)
		}
		return vs
	case condition.AndCond:
		var vs []value.Value
		for _, s := range c.Conds {
			vs = append(vs, conditionConstants(s)...)
		}
		return vs
	case condition.OrCond:
		var vs []value.Value
		for _, s := range c.Conds {
			vs = append(vs, conditionConstants(s)...)
		}
		return vs
	case condition.NotCond:
		return conditionConstants(c.Cond)
	default:
		return nil
	}
}

// Simplify returns a copy of the table with every condition syntactically
// simplified and rows whose condition simplified to false removed.
func (t *CTable) Simplify() *CTable {
	out := New(t.arity)
	for x, d := range t.domains {
		out.domains[x] = d
	}
	for _, r := range t.rows {
		c := condition.Simplify(r.Cond)
		if _, isFalse := c.(condition.FalseCond); isFalse {
			continue
		}
		out.rows = append(out.rows, NewRow(r.Terms, c))
	}
	return out
}

// FromRelation lifts a conventional instance to a c-table with constant
// rows and true conditions (the embedding of complete databases).
func FromRelation(r *relation.Relation) *CTable {
	t := New(r.Arity())
	for _, tuple := range r.Tuples() {
		t.AddConstRow(tuple, nil)
	}
	return t
}

// VarRow is a convenience for building rows: each string is either the name
// of a variable (when it starts with a letter) or an integer literal.
// It exists for tests and examples that transcribe the paper's tables.
func VarRow(entries ...interface{}) []condition.Term {
	terms := make([]condition.Term, len(entries))
	for i, e := range entries {
		switch e := e.(type) {
		case int:
			terms[i] = condition.ConstInt(int64(e))
		case int64:
			terms[i] = condition.ConstInt(e)
		case string:
			terms[i] = condition.Var(e)
		case value.Value:
			terms[i] = condition.Const(e)
		case condition.Term:
			terms[i] = e
		default:
			panic(fmt.Sprintf("ctable: unsupported row entry %T", e))
		}
	}
	return terms
}

// Zk returns the Codd table Z_k consisting of a single row of k distinct
// variables z1,...,zk, so that Mod(Z_k) is the set of all one-tuple
// relations of arity k (Section 3).
func Zk(k int) *CTable {
	if k <= 0 {
		panic("ctable: Zk needs k >= 1")
	}
	t := New(k)
	terms := make([]condition.Term, k)
	for i := 0; i < k; i++ {
		terms[i] = condition.Var(fmt.Sprintf("z%d", i+1))
	}
	t.AddRow(terms, nil)
	return t
}
