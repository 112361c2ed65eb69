package uncertain

import (
	"fmt"
	"io"
	"os"

	"uncertaindb/internal/ctable"
	"uncertaindb/internal/incomplete"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/ra"
)

// Table is the single-table level of the facade: one parsed c-table or
// probabilistic c-table, queried through the closed algebra on the shared
// operator core. It is what cmd/ctable and cmd/pctable drive.
type Table struct {
	name string
	pc   *pctable.PCTable
	prob bool
}

// ReadTable parses one table description from r (internal/parser syntax).
// A table with distributions on some but not all variables is rejected.
func ReadTable(r io.Reader) (*Table, error) {
	pt, err := parser.ParseTable(r)
	if err != nil {
		return nil, err
	}
	t := &Table{name: pt.Name, pc: pt.PCTable, prob: pt.HasDistributions}
	if t.prob {
		if err := t.pc.Validate(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// ReadTableFile is ReadTable over a file path.
func ReadTableFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTable(f)
}

// ParseTable is ReadTable over a string.
func ParseTable(script string) (*Table, error) {
	pt, err := parser.ParseTableString(script)
	if err != nil {
		return nil, err
	}
	t := &Table{name: pt.Name, pc: pt.PCTable, prob: pt.HasDistributions}
	if t.prob {
		if err := t.pc.Validate(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Name returns the declared table name.
func (t *Table) Name() string { return t.name }

// Probabilistic reports whether the table carries variable distributions
// (dist directives) — a pc-table rather than a plain c-table.
func (t *Table) Probabilistic() bool { return t.prob }

// String renders the table: the c-table, plus the variable distributions
// when probabilistic.
func (t *Table) String() string {
	if t.prob {
		return t.pc.String()
	}
	return t.pc.Table().String()
}

// Query runs q (parser syntax) through the closed algebra (Theorems 4
// and 9) on the shared operator core and returns the answer. Every input
// relation name in q is bound to this table, matching the paper's
// single-relation schemas.
func (t *Table) Query(q string) (*Answer, error) {
	parsed, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	env := pctable.Env{}
	for name := range ra.InputNames(parsed) {
		env[name] = t.pc
	}
	answer, err := pctable.EvalQueryEnv(parsed, env)
	if err != nil {
		return nil, err
	}
	return &Answer{table: t, query: parsed, pc: answer}, nil
}

// Identity returns the table itself as an Answer (the empty query), so that
// world enumeration and marginal computation have one entry point whether or
// not a query was given.
func (t *Table) Identity() *Answer {
	return &Answer{table: t, pc: t.pc}
}

// Answer is a query result at the single-table level: a c-table (or
// pc-table) whose conditions are the lineage of the answer tuples.
type Answer struct {
	table *Table
	query ra.Query // nil for Identity
	pc    *pctable.PCTable
}

// String renders the answer: a simplified c-table for plain tables, the
// pc-table (conditions are lineage) for probabilistic ones.
func (a *Answer) String() string {
	if a.table.prob {
		return a.pc.String()
	}
	return a.pc.Table().Simplify().String()
}

// Worlds enumerates the possible worlds of the answer (Definition 6
// semantics; every variable needs a finite domain). It returns the rendered
// instances in enumeration order.
func (a *Answer) Worlds() ([]string, error) {
	db, err := a.pc.Table().Mod()
	if err != nil {
		return nil, err
	}
	insts := db.Instances()
	out := make([]string, len(insts))
	for i, inst := range insts {
		out[i] = inst.String()
	}
	return out, nil
}

// CertainPossible computes the certain and possible answers of the answer's
// query over the possible worlds of the base table, rendered as relations.
// It requires an Answer produced by Query (not Identity) and finite domains
// for every variable of the base table.
func (a *Answer) CertainPossible() (certain, possible string, err error) {
	if a.query == nil {
		return "", "", fmt.Errorf("uncertain: certain answers need a query")
	}
	worlds, err := a.table.pc.Table().Mod()
	if err != nil {
		return "", "", err
	}
	c, err := incomplete.CertainAnswers(a.query, worlds)
	if err != nil {
		return "", "", err
	}
	p, err := incomplete.PossibleAnswers(a.query, worlds)
	if err != nil {
		return "", "", err
	}
	return c.String(), p.String(), nil
}

// WorldDistribution renders the full distribution over answer worlds
// (probabilistic tables only; exponential in the number of variables).
func (a *Answer) WorldDistribution() (string, error) {
	dist, err := a.pc.Mod()
	if err != nil {
		return "", err
	}
	return dist.String(), nil
}

// Marginal is one possible answer tuple with its marginal probability.
type Marginal struct {
	Tuple Tuple
	P     float64
	// StdErr is the standard error of a Monte-Carlo estimate (0 exact).
	StdErr float64
}

// Marginals computes the marginal probability of every possible answer
// tuple with an exact engine: "circuit" (every lineage compiled into one
// decomposition circuit, the default; "dtree" is an alias) or "enum"
// (brute-force valuation enumeration). Candidates whose lineage is
// unsatisfiable are dropped.
func (a *Answer) Marginals(eng string) ([]Marginal, error) {
	switch eng {
	case "", "dtree":
		eng = pctable.EngineCircuit
	case pctable.EngineCircuit, pctable.EngineEnum:
	default:
		return nil, fmt.Errorf("%w: unknown engine %q (want circuit, dtree or enum)", ErrBadQuery, eng)
	}
	return a.marginals(pctable.Strategy{Engine: eng})
}

// Estimate estimates every candidate tuple's marginal by Monte-Carlo
// sampling: samples draws (default 10000), sharded over workers goroutines,
// deterministic for a fixed seed.
func (a *Answer) Estimate(samples int, seed int64, workers int) ([]Marginal, error) {
	return a.marginals(pctable.Strategy{Engine: pctable.EngineMC, Samples: samples, Seed: seed, Workers: workers})
}

// marginals computes every candidate's marginal with pctable.Marginals.
func (a *Answer) marginals(s pctable.Strategy) ([]Marginal, error) {
	candidates, err := a.pc.Candidates()
	if err != nil {
		return nil, err
	}
	answers, err := pctable.Marginals(a.pc, candidates, s)
	if err != nil {
		return nil, err
	}
	out := make([]Marginal, len(answers))
	for i, ta := range answers {
		out[i] = Marginal{Tuple: ta.Tuple, P: ta.P, StdErr: ta.StdErr}
	}
	return out, nil
}

// CTable returns the answer's underlying c-table (read-only); it is the
// escape hatch for callers that need the raw representation.
func (a *Answer) CTable() *ctable.CTable { return a.pc.Table() }
