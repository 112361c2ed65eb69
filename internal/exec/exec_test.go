package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
)

// randomCTable builds a random finite-domain c-table.
func randomCTable(rng *rand.Rand, arity, rows int, vars []string) *ctable.CTable {
	dom := value.IntRange(1, 3)
	tab := ctable.New(arity)
	for _, v := range vars {
		tab.SetDomain(v, dom)
	}
	randTerm := func() condition.Term {
		if rng.Intn(2) == 0 {
			return condition.ConstInt(int64(rng.Intn(3) + 1))
		}
		return condition.Var(vars[rng.Intn(len(vars))])
	}
	randAtom := func() condition.Condition {
		l, r := randTerm(), randTerm()
		if rng.Intn(2) == 0 {
			return condition.Eq(l, r)
		}
		return condition.Neq(l, r)
	}
	for i := 0; i < rows; i++ {
		terms := make([]condition.Term, arity)
		for j := range terms {
			terms[j] = randTerm()
		}
		var cond condition.Condition
		switch rng.Intn(4) {
		case 0:
			cond = condition.True()
		case 1:
			cond = randAtom()
		case 2:
			cond = condition.And(randAtom(), randAtom())
		default:
			cond = condition.Or(randAtom(), condition.Not(randAtom()))
		}
		tab.AddRow(terms, cond)
	}
	return tab
}

// randomQuery builds a random query over the relations A and B (both of the
// given arity), exercising every operator including θ-joins.
func randomQuery(rng *rand.Rand, arity, depth int) ra.Query {
	type qa struct {
		q ra.Query
		a int
	}
	randPred := func(a int) ra.Predicate {
		l := ra.Col(rng.Intn(a))
		var r ra.Term
		if rng.Intn(2) == 0 {
			r = ra.Col(rng.Intn(a))
		} else {
			r = ra.ConstInt(int64(rng.Intn(3) + 1))
		}
		if rng.Intn(2) == 0 {
			return ra.Eq(l, r)
		}
		return ra.Ne(l, r)
	}
	var rec func(d int) qa
	rec = func(d int) qa {
		if d <= 0 {
			if rng.Intn(2) == 0 {
				return qa{ra.Rel("A"), arity}
			}
			return qa{ra.Rel("B"), arity}
		}
		sub := rec(d - 1)
		switch rng.Intn(7) {
		case 0:
			p := ra.AndOf(randPred(sub.a), randPred(sub.a))
			return qa{ra.Select(p, sub.q), sub.a}
		case 1:
			cols := make([]int, rng.Intn(sub.a)+1)
			for i := range cols {
				cols[i] = rng.Intn(sub.a)
			}
			return qa{ra.Project(cols, sub.q), len(cols)}
		case 2:
			other := rec(d - 1)
			return qa{ra.Cross(sub.q, other.q), sub.a + other.a}
		case 3:
			other := rec(d - 1)
			return qa{ra.Join(sub.q, other.q, randPred(sub.a+other.a)), sub.a + other.a}
		case 4:
			return qa{ra.Union(sub.q, sub.q), sub.a}
		case 5:
			return qa{ra.Diff(sub.q, ra.Select(randPred(sub.a), sub.q)), sub.a}
		default:
			return qa{ra.Intersect(sub.q, sub.q), sub.a}
		}
	}
	return rec(depth).q
}

// Property: with plan rewriting disabled and the physical hash operators
// off, the operator core reproduces the frozen eager evaluator byte for
// byte — same rows, same condition syntax, same domains — at every worker
// count. (The hash path is Mod- and marginal-identical but not
// byte-identical: it never emits rows whose condition is the constant false.
// TestHashPathPreservesMod and the top-level equivalence grid cover it.)
func TestCoreMatchesEagerSyntax(t *testing.T) {
	check := func(label string, q ra.Query, env ctable.Env, opts ctable.Options) {
		t.Helper()
		got, err := ctable.EvalQueryEnvWithOptions(q, env, opts)
		if err != nil {
			t.Fatalf("%s: core: %v", label, err)
		}
		want, err := ctable.EvalQueryEnvEager(q, env, opts)
		if err != nil {
			t.Fatalf("%s: eager: %v", label, err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s (simplify=%v workers=%d): core and eager answers differ for %s\ncore:\n%s\neager:\n%s",
				label, opts.Simplify, opts.Workers, q, got, want)
		}
	}
	// An input spanning several morsels, queried through σ, π, ∪ and − but
	// no cross product (so the eager side stays cheap): streaming stages run
	// per morsel, and the union, the projection's group merge and the
	// difference's left side all cross morsel boundaries.
	bigEnv := ctable.Env{
		"C": randomCTable(rand.New(rand.NewSource(11)), 2, 2*exec.BatchSize+44, []string{"x", "y"}),
		"B": randomCTable(rand.New(rand.NewSource(12)), 2, 3, []string{"y", "z"}),
	}
	bigQuery := ra.Project([]int{1}, ra.Diff(
		ra.Union(ra.Select(ra.Ne(ra.Col(0), ra.ConstInt(2)), ra.Rel("C")), ra.Rel("C")),
		ra.Select(ra.Eq(ra.Col(1), ra.ConstInt(1)), ra.Rel("B"))))
	for _, workers := range []int{1, 4} {
		for _, simplify := range []bool{true, false} {
			opts := ctable.Options{Simplify: simplify, Rewrite: false, NoHash: true, Workers: workers}
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 60; trial++ {
				env := ctable.Env{
					"A": randomCTable(rng, 2, 3, []string{"x", "y"}),
					"B": randomCTable(rng, 2, 2, []string{"y", "z"}),
				}
				check(fmt.Sprintf("trial %d", trial), randomQuery(rng, 2, 3), env, opts)
			}
			check("multi-morsel", bigQuery, bigEnv, opts)
		}
	}
}

// Property: plan rewriting never changes the represented incomplete
// database — the rewritten plan's answer has the same Mod as the eager
// evaluator's.
func TestRewritePreservesMod(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		env := ctable.Env{
			"A": randomCTable(rng, 2, 3, []string{"x", "y"}),
			"B": randomCTable(rng, 2, 2, []string{"y", "z"}),
		}
		q := randomQuery(rng, 2, 3)
		rewritten, err := ctable.EvalQueryEnvWithOptions(q, env, ctable.Options{Simplify: true, Rewrite: true})
		if err != nil {
			t.Fatalf("trial %d: rewritten: %v", trial, err)
		}
		eager, err := ctable.EvalQueryEnvEager(q, env, ctable.Options{Simplify: true})
		if err != nil {
			t.Fatalf("trial %d: eager: %v", trial, err)
		}
		lhs, err := rewritten.Mod()
		if err != nil {
			t.Fatalf("trial %d: Mod(rewritten): %v", trial, err)
		}
		rhs, err := eager.Mod()
		if err != nil {
			t.Fatalf("trial %d: Mod(eager): %v", trial, err)
		}
		if !lhs.Equal(rhs) {
			t.Fatalf("trial %d: rewrite changed Mod for %s\nrewritten:\n%s\neager:\n%s",
				trial, q, rewritten, eager)
		}
	}
}

// The rewriter produces the expected plan shapes.
func TestRewriteShapes(t *testing.T) {
	arities := ra.ArityEnv{"A": 2, "B": 2}
	cases := []struct {
		name string
		in   ra.Query
		want string
	}{
		{
			name: "pushdown through cross",
			in: ra.Select(
				ra.AndOf(ra.Eq(ra.Col(0), ra.ConstInt(1)), ra.Eq(ra.Col(2), ra.ConstInt(2))),
				ra.Cross(ra.Rel("A"), ra.Rel("B"))),
			want: "(σ[$1=1](A) × σ[$1=2](B))",
		},
		{
			name: "join normalized and pushed",
			in:   ra.Join(ra.Rel("A"), ra.Rel("B"), ra.Eq(ra.Col(1), ra.Col(2))),
			want: "σ[$2=$3]((A × B))",
		},
		{
			name: "select through project",
			in: ra.Select(ra.Eq(ra.Col(0), ra.ConstInt(3)),
				ra.Project([]int{1}, ra.Rel("A"))),
			want: "π[2](σ[$2=3](A))",
		},
		{
			name: "select through union",
			in: ra.Select(ra.Eq(ra.Col(0), ra.ConstInt(1)),
				ra.Union(ra.Rel("A"), ra.Rel("B"))),
			want: "(σ[$1=1](A) ∪ σ[$1=1](B))",
		},
		{
			name: "project fusion",
			in:   ra.Project([]int{0}, ra.Project([]int{1, 0}, ra.Rel("A"))),
			want: "π[2](A)",
		},
		{
			name: "identity projection dropped",
			in:   ra.Project([]int{0, 1}, ra.Rel("A")),
			want: "A",
		},
		{
			name: "projection split across cross",
			in:   ra.Project([]int{0, 2}, ra.Cross(ra.Rel("A"), ra.Rel("B"))),
			want: "(π[1](A) × π[1](B))",
		},
		{
			name: "true selection dropped",
			in:   ra.Select(ra.True(), ra.Rel("A")),
			want: "A",
		},
		{
			name: "stacked selections merge",
			in: ra.Select(ra.Eq(ra.Col(0), ra.ConstInt(1)),
				ra.Select(ra.Ne(ra.Col(1), ra.ConstInt(2)), ra.Rel("A"))),
			want: "σ[($2≠2 ∧ $1=1)](A)",
		},
	}
	for _, tc := range cases {
		got := exec.Rewrite(tc.in, arities).String()
		if got != tc.want {
			t.Errorf("%s: Rewrite(%s) = %s, want %s", tc.name, tc.in, got, tc.want)
		}
	}
}
