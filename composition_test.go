package uncertaindb

// Composition acceptance (Theorems 4 and 9): the answer a query serves is
// itself a pc-table over the catalog's variables, written as the table
// script PUT reads. So an answer stored as a table and queried again
// composes: for every pair below, q₁'s served answer is stored under a new
// name beside the base tables R and S, and q₂ over it must equal q₂∘q₁ over
// R and S alone — in the distribution over possible worlds and in the exact
// big.Rat marginals that distribution implies. A stored answer keeps the
// variable names of the tables it came from, so a q₂ that joins it with
// them sees the correlations between the two.

import (
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/engine"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/value"
)

// compositionPairs maps the names of stored answers to the q₁ each stores,
// beside the q₂ that reads them.
var compositionPairs = []struct {
	stored map[string]string
	q2     string
}{
	// σ∘σ; q₁'s answer has a false row ('a2','u' is not 'v').
	{map[string]string{"A": "select[$2 = 'v'](R)"}, "select[$1 != 'a3'](A)"},
	// σ∘π
	{map[string]string{"A": "project[2](R)"}, "select[$1 = 'u'](A)"},
	// π∘⋈ of an answer with the table it came from: x and y are shared.
	{map[string]string{"A": "select[$2 = 'u'](R)"}, "project[1,4](A join[$1 = $3] R)"},
	// ∪ of a ⋈ answer with S, whose z it shares.
	{map[string]string{"A": "project[1,3](R join[$2 = $4] S)"}, "A union S"},
	// ∪ of a π answer with a π of R.
	{map[string]string{"A": "project[1](S)"}, "A union project[1](R)"},
	// − of the answer from the table it came from, and of a − answer.
	{map[string]string{"A": "select[$2 = 'u'](R)"}, "R minus A"},
	{map[string]string{"A": "R minus S"}, "project[2](A) minus project[2](S)"},
	// An empty answer: every row of q₁ is false.
	{map[string]string{"A": "select[$1 = 'zz'](R)"}, "R minus A"},
	{map[string]string{"A": "select[$1 = 'zz'](R)"}, "A union S"},
	// Two answers stored side by side.
	{map[string]string{"A": "select[$2 = 'u'](R)", "B": "project[1,2](S)"}, "A join[$2 = $4] B"},
	{map[string]string{"A": "project[1](R)", "B": "select[$1 = 'a1'](R)"}, "A minus project[1](B)"},
}

// assertAnswerIsTable checks that a served answer is what PUT reads: the
// script of a table named answer, with no false row, declaring exactly the
// variables its rows mention. It returns the parsed table.
func assertAnswerIsTable(t *testing.T, label, answer string) *pctable.PCTable {
	t.Helper()
	pt, err := parser.ParseTableString(answer)
	if err != nil || pt.Name != "answer" {
		t.Fatalf("%s: answer is not the script of a table named answer (%v):\n%s", label, err, answer)
	}
	for _, r := range pt.PCTable.Table().Rows() {
		if _, ok := r.Cond.(condition.FalseCond); ok {
			t.Fatalf("%s: answer writes a false row:\n%s", label, answer)
		}
	}
	var declared []condition.Variable
	pt.PCTable.EachDomain(func(x condition.Variable, _ *value.Domain) { declared = append(declared, x) })
	slices.Sort(declared)
	if mentioned := pt.PCTable.Vars(); !slices.Equal(declared, mentioned) {
		t.Fatalf("%s: answer declares %v, its rows mention %v:\n%s", label, declared, mentioned, answer)
	}
	return pt.PCTable
}

// ratWorlds returns the distribution over possible worlds of tab, each world
// keyed by its sorted tuple keys, enumerating every valuation of the
// variables over declares (which must cover tab's) with over's
// distributions, in exact rationals.
func ratWorlds(t *testing.T, tab, over *pctable.PCTable) map[string]*big.Rat {
	t.Helper()
	var vars []condition.Variable
	over.EachDist(func(x condition.Variable, _ *prob.Space) { vars = append(vars, x) })
	slices.Sort(vars)
	worlds := make(map[string]*big.Rat)
	condition.ForEachValuation(vars, over.Table(), func(v condition.Valuation) bool {
		p := big.NewRat(1, 1)
		for _, x := range vars {
			p.Mul(p, new(big.Rat).SetFloat64(over.Dist(x).P(v[x].Key())))
		}
		inst, err := tab.Table().Apply(v)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, tp := range inst.Tuples() {
			keys = append(keys, tp.Key())
		}
		key := strings.Join(keys, " ")
		if worlds[key] == nil {
			worlds[key] = new(big.Rat)
		}
		worlds[key].Add(worlds[key], p)
		return true
	})
	return worlds
}

func TestStoredAnswerComposes(t *testing.T) {
	for _, pair := range compositionPairs {
		e := newMaintEngine(t)
		// The valuations every world distribution is enumerated over: those
		// of every variable of R and S.
		base, universe := make(pctable.Env), pctable.NewWithArity(1)
		for _, name := range []string{"R", "S"} {
			base[name] = e.Catalog().Snapshot().Get(name).Table
			base[name].EachDist(func(x condition.Variable, d *prob.Space) { universe.SetSpace(string(x), d) })
		}
		composed := pair.q2
		var names []string
		for name := range pair.stored {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			q1 := pair.stored[name]
			res, err := e.Execute(engine.Request{Query: q1})
			if err != nil {
				t.Fatalf("q1 %s: %v", q1, err)
			}
			assertAnswerIsTable(t, q1, res.Answer)
			// Every answer is named answer; store this one as name.
			pt, err := parser.ParseTableString("table " + name + strings.TrimPrefix(res.Answer, "table answer"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.PutTable(name, pt.PCTable); err != nil {
				t.Fatalf("put the answer of %s as %s: %v", q1, name, err)
			}
			composed = strings.ReplaceAll(composed, name, "("+q1+")")
		}

		label := pair.q2 + " over " + strings.Join(names, ",")
		res, err := e.Execute(engine.Request{Query: pair.q2})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		got := assertAnswerIsTable(t, label, res.Answer)
		q, err := parser.ParseQuery(composed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pctable.EvalQueryEnv(q, base)
		if err != nil {
			t.Fatalf("%s: %v", composed, err)
		}

		gotWorlds, wantWorlds := ratWorlds(t, got, universe), ratWorlds(t, want, universe)
		if len(gotWorlds) != len(wantWorlds) {
			t.Errorf("%s: %d possible worlds, %s has %d", label, len(gotWorlds), composed, len(wantWorlds))
		}
		marginals := make(map[string]*big.Rat)
		for w, p := range wantWorlds {
			if gp := gotWorlds[w]; gp == nil || gp.Cmp(p) != 0 {
				t.Errorf("%s: world {%s} has P=%v, under %s P=%v", label, w, gp, composed, p)
			}
			for _, k := range strings.Fields(w) {
				if marginals[k] == nil {
					marginals[k] = new(big.Rat)
				}
				marginals[k].Add(marginals[k], p)
			}
		}
		if len(res.Tuples) != len(marginals) {
			t.Errorf("%s: %d answer tuples, %s has %d possible", label, len(res.Tuples), composed, len(marginals))
		}
		for _, ta := range res.Tuples {
			m := marginals[ta.Tuple.Key()]
			if m == nil {
				t.Errorf("%s: tuple %s (P=%v) is in no world of %s", label, ta.Tuple, ta.P, composed)
				continue
			}
			f, _ := m.Float64()
			if math.Float64bits(ta.P) != math.Float64bits(f) || ta.Certain != (m.Cmp(big.NewRat(1, 1)) == 0) {
				t.Errorf("%s: tuple %s P=%.17g certain=%v, world enumeration %v", label, ta.Tuple, ta.P, ta.Certain, m)
			}
		}
	}
}
