package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/value"
	"uncertaindb/internal/wal"
)

// cachedPlans returns every plan in the engine's cache.
func cachedPlans(e *Engine) []*plan {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []*plan
	for el := e.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*plan))
	}
	return out
}

// assertRenderState checks a plan's render state against the answer table:
// rendered parses back (parser.ParseTable) to the answer's rows without those
// whose condition is false, declaring the answer's distributions for exactly
// the variables those rows mention; each pair of row offsets brackets that
// row's line (empty for a false row); and varRefs counts, per variable, the
// written rows it occurs in. It returns the number of false rows.
func assertRenderState(t *testing.T, label string, p *plan) (falseRows int) {
	t.Helper()
	parsed, err := parser.ParseTableString(p.rendered)
	if err != nil {
		t.Fatalf("%s %s: rendered answer does not parse: %v\n%s", label, p.queryText, err, p.rendered)
	}
	rows := p.answer.Table().Rows()
	if len(p.rowOff) != len(rows)+1 {
		t.Fatalf("%s %s: %d row offsets for %d rows", label, p.queryText, len(p.rowOff), len(rows))
	}
	wantRefs := make(map[condition.Variable]int)
	var written []string
	for i, r := range rows {
		line := p.rendered[p.rowOff[i]:p.rowOff[i+1]]
		if _, ok := r.Cond.(condition.FalseCond); ok {
			if line != "" {
				t.Fatalf("%s %s: false row %d wrote %q", label, p.queryText, i, line)
			}
			falseRows++
			continue
		}
		if want := string(parser.AppendRow(nil, r.Terms, r.Cond)); line != want {
			t.Fatalf("%s %s: row %d line %q, want %q", label, p.queryText, i, line, want)
		}
		written = append(written, r.String())
		inRow := make(map[condition.Variable]bool)
		for _, term := range r.Terms {
			if term.IsVar {
				inRow[term.Var] = true
			}
		}
		for _, x := range condition.Vars(r.Cond) {
			inRow[x] = true
		}
		for x := range inRow {
			wantRefs[x]++
		}
	}
	var got []string
	for _, r := range parsed.PCTable.Table().Rows() {
		got = append(got, r.String())
	}
	if !slices.Equal(got, written) {
		t.Fatalf("%s %s: parsed rows %q, want the non-false answer rows %q", label, p.queryText, got, written)
	}
	dists := 0
	parsed.PCTable.EachDist(func(x condition.Variable, d *prob.Space) {
		dists++
		if wantRefs[x] == 0 || d.String() != p.answer.Dist(x).String() {
			t.Fatalf("%s %s: declares %s ~ %s; rows mention it %d times, answer has %s", label, p.queryText, x, d, wantRefs[x], p.answer.Dist(x))
		}
	})
	if dists != len(wantRefs) {
		t.Fatalf("%s %s: declares %d distributions for %d variables", label, p.queryText, dists, len(wantRefs))
	}
	for x, n := range p.varRefs {
		if n != wantRefs[x] {
			t.Fatalf("%s %s: varRefs[%s] = %d, want %d", label, p.queryText, x, n, wantRefs[x])
		}
		delete(wantRefs, x)
	}
	if len(wantRefs) > 0 {
		t.Fatalf("%s %s: varRefs misses %v", label, p.queryText, wantRefs)
	}
	return falseRows
}

// Fresh and maintained plans render their answer once, into one buffer, as
// a table script without its false rows, and record row offsets and
// variable refcounts that match the rows — over σ, π∘σ, σ⋈, ∪ and − answers, across
// an insert-only patch (delta append) and a delete (re-evaluation).
func TestRenderStateMatchesReference(t *testing.T) {
	queries := []string{
		"Takes",
		"select[$2 = 'math' || $2 = 'phys'](Takes)",
		"select[$1 = 'Theo'](Takes)", // x only in false rows: not declared
		"project[1](select[$1 != 'Theo'](Takes))",
		"project[1,4](select[$2 != 'chem'](Takes) join[$2 = $3] Labs)",
		"Labs union Takes",
		"project[2](Takes) minus project[1](Labs)",
	}
	e := newEngine(t, Options{}, takesScript, labsScript)
	falseRows := 0
	execAll := func(label string) {
		t.Helper()
		for _, q := range queries {
			if _, err := e.Execute(Request{Query: q}); err != nil {
				t.Fatalf("%s %s: %v", label, q, err)
			}
		}
		for _, p := range cachedPlans(e) {
			falseRows += assertRenderState(t, label, p)
		}
	}
	execAll("fresh")
	if _, err := e.PatchTable("Takes", &wal.Patch{Upserts: []wal.PatchRow{
		newRow(nil, "Dana", "math"),
		{Terms: []condition.Term{condition.Const(value.Str("Eve")), condition.Var("x")}, Cond: condition.EqVarConst("t", value.Int(0))},
	}}); err != nil {
		t.Fatal(err)
	}
	execAll("append")
	if _, err := e.PatchTable("Takes", &wal.Patch{
		Deletes: []wal.PatchRow{tableRow(t, e, "Takes", 0)},
		Upserts: []wal.PatchRow{newRow(nil, "Frank", "chem")},
	}); err != nil {
		t.Fatal(err)
	}
	execAll("reeval")
	if st := e.Stats().Maintenance; st.DeltaAppends == 0 || st.Reevaluations == 0 {
		t.Fatalf("patches did not exercise both maintenance paths: %+v", st)
	}
	if falseRows == 0 {
		t.Fatal("no answer had a false row to leave out")
	}
}

// ordersScript is a fixed 2000-row Orders(id, cust, item) table: every 25th
// row has a variable item cell over three items, every 10th row is guarded
// by one of 16 shared Bernoulli variables.
func ordersScript() string {
	var b strings.Builder
	b.WriteString("table Orders arity 3\n")
	cellVars := 0
	for i := 0; i < 2000; i++ {
		item := fmt.Sprintf("'i%02d'", i%40)
		if i%25 == 7 {
			item = fmt.Sprintf("x%d", cellVars)
			cellVars++
		}
		fmt.Fprintf(&b, "row %d, 'c%03d', %s", 1000+i, i%200, item)
		if i%10 == 3 {
			fmt.Fprintf(&b, " | g%d = 1", i%16)
		}
		b.WriteByte('\n')
	}
	for g := 0; g < 16; g++ {
		fmt.Fprintf(&b, "dist g%d = {0:0.4, 1:0.6}\n", g)
	}
	for x := 0; x < cellVars; x++ {
		fmt.Fprintf(&b, "dist x%d = {'i%02d':0.5, 'i%02d':0.25, 'i%02d':0.25}\n", x, x%40, (x+1)%40, (x+2)%40)
	}
	return b.String()
}

// coldAllocBudget bounds the heap allocations of one cold Execute of a σ
// over ordersScript: 29 500, the count measured once candidates and lineage
// came from one pass over the answer rows and the answer was rendered once,
// plus 25 %. Building lineage per candidate, which rescans all 2000 answer
// rows for each candidate, took 165 400.
const coldAllocBudget = 36900

func TestColdExecuteAllocs(t *testing.T) {
	e := newEngine(t, Options{Workers: 1}, ordersScript())
	const runs = 20
	// Distinct texts (trailing blanks) miss the plan cache every time while
	// compiling the same plan.
	texts := make([]string, runs+1)
	for i := range texts {
		texts[i] = "select[$2 = 'c007' || $3 = 'i03' && $1 < 1250](Orders)" + strings.Repeat(" ", i)
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		res, err := e.Execute(Request{Query: texts[i]})
		i++
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			t.Fatal("cold execute hit the plan cache")
		}
	})
	t.Logf("cold Execute: %.0f allocs/op (budget %d)", allocs, coldAllocBudget)
	if allocs > coldAllocBudget {
		t.Errorf("cold Execute allocates %.0f objects per run, budget %d", allocs, coldAllocBudget)
	}
}
