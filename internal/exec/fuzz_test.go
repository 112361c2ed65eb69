package exec_test

import (
	"math/rand"
	"strings"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/ctable/eagerref"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
)

// decodePredicate derives a selection predicate over cols columns from a
// fuzz byte stream: a tiny stack-free recursive decoder emitting the atoms
// the symbolic algebra supports on variable terms (=, ≠, constants) and the
// boolean combinators; with ordering it also emits < and ≥ atoms, which are
// an error on a variable term.
func decodePredicate(data []byte, cols int, ordering bool) ra.Predicate {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	term := func() ra.Term {
		b := next()
		if b%2 == 0 {
			return ra.Col(int(b/2) % cols)
		}
		return ra.ConstInt(int64(b % 3))
	}
	atoms := 4
	if ordering {
		atoms = 6
	}
	var rec func(depth int) ra.Predicate
	rec = func(depth int) ra.Predicate {
		op := int(next())
		if depth <= 0 {
			op %= atoms // atoms only at the leaves
		}
		switch k := op % (atoms + 3); {
		case k == 0:
			return ra.Eq(term(), term())
		case k == 1:
			return ra.Ne(term(), term())
		case k == 2:
			return ra.True()
		case k == 3:
			return ra.False()
		case k == 4 && ordering:
			return ra.Cmp{Left: term(), Op: ra.OpLt, Right: term()}
		case k == 5 && ordering:
			return ra.Cmp{Left: term(), Op: ra.OpGe, Right: term()}
		case k == atoms:
			return ra.AndOf(rec(depth-1), rec(depth-1))
		case k == atoms+1:
			return ra.OrOf(rec(depth-1), rec(depth-1))
		default:
			return ra.NotOf(rec(depth - 1))
		}
	}
	return rec(4)
}

// flattenConjuncts mirrors the rewriter's conjunct flattening, so the fuzz
// target can assert the split is partition-exact.
func flattenConjuncts(p ra.Predicate) []ra.Predicate {
	if a, ok := p.(ra.And); ok {
		var out []ra.Predicate
		for _, sub := range a.Preds {
			out = append(out, flattenConjuncts(sub)...)
		}
		return out
	}
	return []ra.Predicate{p}
}

// FuzzRewriteJoinKeys: for arbitrary join predicates, SplitJoinPredicate
// never drops or duplicates a conjunct — every top-level conjunct lands in
// exactly one output, and the recombined predicate
// ⋀ keys ∧ ⋀ residual is equivalent to the original under condition.Eval
// on every valuation of the referenced columns (columns are modelled as
// condition variables, so the check runs through the same
// PredicateCondition translation the operators use).
func FuzzRewriteJoinKeys(f *testing.F) {
	f.Add([]byte{0, 0, 2}, uint8(2), uint8(2))
	f.Add([]byte{4, 0, 0, 4, 0, 2, 6, 1, 1, 3}, uint8(1), uint8(3))
	f.Add([]byte{5, 0, 0, 2, 1, 3, 4, 2, 2}, uint8(3), uint8(1))
	f.Add([]byte{6, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, laRaw, raRaw uint8) {
		la := int(laRaw)%3 + 1
		raCols := int(raRaw)%3 + 1
		cols := la + raCols
		pred := decodePredicate(data, cols, false)

		keys, residual := exec.SplitJoinPredicate(pred, la)
		for _, k := range keys {
			if k.Left < 0 || k.Left >= la || k.Right < 0 || k.Right >= raCols {
				t.Fatalf("key %+v out of range for arities %d+%d (pred %s)", k, la, raCols, pred)
			}
		}
		if got, want := len(keys)+len(residual), len(flattenConjuncts(pred)); got != want {
			t.Fatalf("split dropped or duplicated conjuncts: %d keys + %d residual != %d conjuncts of %s",
				len(keys), len(residual), want, pred)
		}

		// Recombine and compare symbolically: evaluate both predicates on a
		// tuple of variable terms and check the resulting conditions agree
		// on every valuation over a small domain.
		recombined := make([]ra.Predicate, 0, len(keys)+len(residual))
		for _, k := range keys {
			recombined = append(recombined, ra.Eq(ra.Col(k.Left), ra.Col(la+k.Right)))
		}
		recombined = append(recombined, residual...)
		terms := make([]condition.Term, cols)
		vars := make([]condition.Variable, cols)
		for i := range terms {
			v := condition.Variable(string(rune('a' + i)))
			vars[i] = v
			terms[i] = condition.VarT(v)
		}
		orig, err := exec.PredicateCondition(pred, terms)
		if err != nil {
			t.Fatalf("original predicate %s: %v", pred, err)
		}
		split, err := exec.PredicateCondition(ra.AndOf(recombined...), terms)
		if err != nil {
			t.Fatalf("recombined predicate: %v", err)
		}
		dom := value.IntRange(0, 2)
		agree := true
		condition.ForEachValuation(vars, condition.UniformDomains{Domain: dom}, func(v condition.Valuation) bool {
			if condition.MustEval(orig, v) != condition.MustEval(split, v) {
				agree = false
				return false
			}
			return true
		})
		if !agree {
			t.Fatalf("split changed the predicate %s (la=%d): keys %v residual %v", pred, la, keys, residual)
		}
	})
}

// FuzzSelectFold: σ̄ folds a predicate that is ground on a row without
// building its condition, and must still agree with the eager evaluator
// (Simplify on, hash path off) row for row, and raise the same error — an
// ordering comparison on a variable cell. Tables mix ground and variable
// cells under row conditions that are true, atoms, conjunctions and
// negated disjunctions. A join of two small tables on the same predicate
// plus a key checks the hash-join probe, which folds the same way, against
// the eager answer's rows that are not false.
func FuzzSelectFold(f *testing.F) {
	// TestBatchErrorParity's shape: $1 < 2 over a column holding a variable.
	f.Add([]byte{4, 0, 5}, int64(1), uint8(0))
	f.Add([]byte{0, 0, 5}, int64(2), uint8(1))
	f.Add([]byte{6, 5, 0, 3, 1, 2, 4}, int64(3), uint8(2))
	f.Add([]byte{7, 8, 0, 1, 1, 2, 3}, int64(4), uint8(1))
	f.Add([]byte{8, 2, 1, 2, 1, 4, 2, 0}, int64(5), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, colsRaw uint8) {
		cols := int(colsRaw)%3 + 1
		rng := rand.New(rand.NewSource(seed))
		pred := decodePredicate(data, cols, true)
		opts := ctable.Options{Simplify: true, NoHash: true}
		sameAnswer := func(label string, q ra.Query, env ctable.Env, opts ctable.Options, dropFalse bool) {
			t.Helper()
			got, gotErr := ctable.EvalQueryEnvWithOptions(q, env, opts)
			want, wantErr := eagerref.EvalQueryEnv(q, env, ctable.Options{Simplify: true})
			if dropFalse && wantErr != nil {
				// The probe never evaluates the predicate on a pair whose
				// ground keys differ, so it may miss the error the eager
				// evaluator raises first, or every error.
				if gotErr == nil || strings.Contains(gotErr.Error(), "ordering comparison") {
					return
				}
			}
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: errors differ for %s: batch %v, eager %v", label, q, gotErr, wantErr)
			}
			if gotErr != nil {
				return
			}
			var wantRows []string
			for _, r := range want.Rows() {
				if _, isFalse := r.Cond.(condition.FalseCond); !dropFalse || !isFalse {
					wantRows = append(wantRows, r.String())
				}
			}
			gotRows := got.Rows()
			if dropFalse {
				gotRows = gotRows[:0:0]
				for _, r := range got.Rows() {
					if _, isFalse := r.Cond.(condition.FalseCond); !isFalse {
						gotRows = append(gotRows, r)
					}
				}
			}
			if len(gotRows) != len(wantRows) {
				t.Fatalf("%s: %d rows, eager %d, for %s", label, len(gotRows), len(wantRows), q)
			}
			for i, r := range gotRows {
				if r.String() != wantRows[i] {
					t.Fatalf("%s: row %d of %s:\nbatch %s\neager %s", label, i, q, r, wantRows[i])
				}
			}
		}

		tab := randomCTable(rng, cols, 1+rng.Intn(2*exec.BatchSize), []string{"x", "y"})
		sameAnswer("select", ra.Select(pred, ra.Rel("T")), ctable.Env{"T": tab}, opts, false)

		l := randomCTable(rng, cols, 1+rng.Intn(12), []string{"x", "y"})
		r := randomCTable(rng, cols, 1+rng.Intn(12), []string{"y", "z"})
		joinPred := ra.AndOf(ra.Eq(ra.Col(0), ra.Col(cols)), decodePredicate(data, 2*cols, true))
		join := ra.Join(ra.Rel("L"), ra.Rel("R"), joinPred)
		env := ctable.Env{"L": l, "R": r}
		sameAnswer("nested-loop join", join, env, opts, false)
		opts.NoHash = false
		sameAnswer("hash join", join, env, opts, true)
	})
}
