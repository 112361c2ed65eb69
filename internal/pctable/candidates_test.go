package pctable

import (
	"fmt"
	"math/rand"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
)

// refCandidates is the per-tuple reference: Lineage of each given tuple,
// dropping tuples whose lineage is false.
func refCandidates(t *PCTable, tuples []value.Tuple) []Candidate {
	var out []Candidate
	for _, tp := range tuples {
		lineage := t.Lineage(tp)
		if _, isFalse := lineage.(condition.FalseCond); !isFalse {
			out = append(out, Candidate{Tuple: tp, Lineage: lineage})
		}
	}
	return out
}

// randomCandidateTable draws a small arity-2 pc-table over the constants
// 0..3 and the variables v0..v3 (whose distributions are shared, so tables
// drawn with the same dists join without conflict): variable cells, rows
// whose condition is false, repeated tuples, and ground rows whose constants
// overlap the constant positions of rows with variable cells.
func randomCandidateTable(rng *rand.Rand, dists []map[value.Value]float64) *PCTable {
	t := NewWithArity(2)
	term := func() condition.Term {
		if rng.Intn(3) == 0 {
			return condition.Var(fmt.Sprintf("v%d", rng.Intn(len(dists))))
		}
		return condition.ConstInt(int64(rng.Intn(4)))
	}
	atom := func() condition.Condition {
		x, c := condition.Var(fmt.Sprintf("v%d", rng.Intn(len(dists)))), condition.ConstInt(int64(rng.Intn(4)))
		if rng.Intn(3) == 0 {
			return condition.Neq(x, c)
		}
		return condition.Eq(x, c)
	}
	var prev [][]condition.Term
	for n := 2 + rng.Intn(6); n > 0; n-- {
		terms := []condition.Term{term(), term()}
		if len(prev) > 0 && rng.Intn(4) == 0 {
			terms = prev[rng.Intn(len(prev))]
		}
		prev = append(prev, terms)
		var cond condition.Condition
		switch rng.Intn(6) {
		case 0:
			cond = condition.False()
		case 1:
			cond = atom()
		case 2:
			cond = condition.Or(atom(), atom())
		case 3:
			cond = condition.And(atom(), condition.Not(atom()))
		}
		t.AddRow(terms, cond)
	}
	for i, d := range dists {
		t.SetDist(fmt.Sprintf("v%d", i), d)
	}
	return t
}

// The one-pass builder returns exactly what the per-tuple loop returns —
// PossibleTuples, then Lineage per tuple, dropping false lineages — in the
// same order and with syntactically identical lineage, hence bit-identical
// exact marginals, over base tables and σ, π∘σ, σ⋈, ∪ and − answers, with
// and without condition simplification. CandidatesOf agrees on any subset.
func TestCandidatesMatchPerTupleReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	queries := []struct {
		name string
		q    ra.Query
	}{
		{"base", nil},
		{"σ", ra.Select(ra.OrOf(ra.Eq(ra.Col(0), ra.ConstInt(1)), ra.Eq(ra.Col(1), ra.ConstInt(2))), ra.Rel("R"))},
		{"π∘σ", ra.Project([]int{1}, ra.Select(ra.Ne(ra.Col(0), ra.Col(1)), ra.Rel("R")))},
		{"σ⋈", ra.Join(ra.Select(ra.Ne(ra.Col(0), ra.ConstInt(3)), ra.Rel("R")), ra.Rel("S"), ra.Eq(ra.Col(1), ra.Col(2)))},
		{"∪", ra.Union(ra.Rel("R"), ra.Rel("S"))},
		{"−", ra.Diff(ra.Rel("R"), ra.Rel("S"))},
	}
	checked := 0
	for trial := 0; trial < 150; trial++ {
		dists := make([]map[value.Value]float64, 4)
		for i := range dists {
			a, b := rng.Intn(4), rng.Intn(3)+1
			dists[i] = map[value.Value]float64{value.Int(int64(a)): 0.25, value.Int(int64((a + b) % 4)): 0.75}
		}
		env := Env{"R": randomCandidateTable(rng, dists), "S": randomCandidateTable(rng, dists)}
		for _, opts := range []ctable.Options{ctable.DefaultOptions, {}} {
			for _, qc := range queries {
				answer := env["R"]
				if qc.q != nil {
					var err error
					if answer, err = EvalQueryEnvWithOptions(qc.q, env, opts); err != nil {
						t.Fatalf("trial %d %s: %v", trial, qc.name, err)
					}
				}
				label := fmt.Sprintf("trial %d %s simplify=%v", trial, qc.name, opts.Simplify)
				checkCandidates(t, label, answer, rng)
				checked++
			}
		}
	}
	t.Logf("%d answers checked", checked)
}

func checkCandidates(t *testing.T, label string, answer *PCTable, rng *rand.Rand) {
	t.Helper()
	possible, err := answer.PossibleTuples()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, err := answer.Candidates()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	assertSameCandidates(t, label+" Candidates", answer, got, refCandidates(answer, possible))

	// A subset in arbitrary order, plus a tuple no row can produce.
	var subset []value.Tuple
	for _, i := range rng.Perm(len(possible)) {
		if rng.Intn(2) == 0 {
			subset = append(subset, possible[i])
		}
	}
	subset = append(subset, make(value.Tuple, answer.Arity()))
	assertSameCandidates(t, label+" CandidatesOf", answer, answer.CandidatesOf(subset), refCandidates(answer, subset))
}

func assertSameCandidates(t *testing.T, label string, answer *PCTable, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d\ngot  %v\nwant %v\nanswer:\n%s", label, len(got), len(want), got, want, answer)
	}
	gotExact, wantExact := probcalc.NewExact(answer), probcalc.NewExact(answer)
	for i := range got {
		if got[i].Tuple.Key() != want[i].Tuple.Key() {
			t.Fatalf("%s: candidate %d is %v, want %v", label, i, got[i].Tuple, want[i].Tuple)
		}
		if g, w := got[i].Lineage.String(), want[i].Lineage.String(); g != w {
			t.Fatalf("%s: lineage of %v is %s, want %s\nanswer:\n%s", label, got[i].Tuple, g, w, answer)
		}
		g, err := gotExact.ProbabilityRat(got[i].Lineage)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		w, err := wantExact.ProbabilityRat(want[i].Lineage)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if g.Cmp(w) != 0 {
			t.Fatalf("%s: marginal of %v is %s, want %s", label, got[i].Tuple, g.RatString(), w.RatString())
		}
	}
}
