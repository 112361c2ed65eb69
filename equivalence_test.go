package uncertaindb

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
	"uncertaindb/internal/workload"
)

// Property: on randomized c-tables, the d-tree engine computes the same
// tuple-marginal probabilities as brute-force enumeration — within float
// tolerance for the float64 engine, and bit-identically (equal rationals)
// for the exact engine vs exact enumeration.
func TestDTreeMatchesEnumerationOnRandomTables(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		spec := workload.CTableSpec{
			Rows: 5, Arity: 2, NumVars: 5, DomainSize: 3,
			PVarCell: 0.5, PCondAtom: 0.7, Seed: seed,
		}
		ct := workload.RandomCTable(spec)
		pc, err := pctable.UniformPCTable(ct)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		worlds, err := ct.Mod()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seen := make(map[string]value.Tuple)
		for _, inst := range worlds.Instances() {
			for _, tp := range inst.Tuples() {
				seen[tp.Key()] = tp
			}
		}
		exact := probcalc.NewExact(pc)
		for _, tp := range seen {
			lineage := pc.Lineage(tp)

			got, err := pc.ConditionProbability(lineage)
			if err != nil {
				t.Fatalf("seed %d: dtree: %v", seed, err)
			}
			want, err := pc.ConditionProbabilityEnum(lineage)
			if err != nil {
				t.Fatalf("seed %d: enum: %v", seed, err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("seed %d, tuple %s: dtree %.17g vs enum %.17g\nlineage: %s",
					seed, tp, got, want, lineage)
			}

			gotRat, err := exact.ProbabilityRat(lineage)
			if err != nil {
				t.Fatalf("seed %d: exact dtree: %v", seed, err)
			}
			wantRat, err := probcalc.EnumProbabilityRat(lineage, pc)
			if err != nil {
				t.Fatalf("seed %d: exact enum: %v", seed, err)
			}
			if gotRat.Cmp(wantRat) != 0 {
				t.Errorf("seed %d, tuple %s: exact dtree %s vs exact enum %s — not bit-identical\nlineage: %s",
					seed, tp, gotRat, wantRat, lineage)
			}
		}
	}
}

// Property: on the scaled courses workload, the d-tree marginal of every
// answer tuple matches enumeration, and Monte-Carlo estimates (sequential
// and parallel) land within sampling tolerance.
func TestCoursesMarginalsAcrossEngines(t *testing.T) {
	query := workload.ProjectionQuery(0)
	for _, students := range []int{6, 9} {
		tab := workload.Courses(students, 3, 17)
		answer, err := tab.EvalQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		sampler, err := pctable.NewSampler(answer, 99)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < students; s++ {
			target := value.NewTuple(value.Str(fmt.Sprintf("student%d", s)))
			got, err := answer.TupleProbability(target)
			if err != nil {
				t.Fatal(err)
			}
			want, err := answer.TupleProbabilityEnum(target)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("students=%d, %s: dtree %.17g vs enum %.17g", students, target, got, want)
			}
			est, se, err := sampler.EstimateTupleProbabilityParallel(target, 20000, 4)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(est-want) > 5*se+2e-2 {
				t.Errorf("students=%d, %s: estimate %g too far from exact %g (stderr %g)",
					students, target, est, want, se)
			}
		}
	}
}

// The d-tree engine handles condition sizes far beyond enumeration: a
// 30-variable disjunction of independent conjunction pairs has a closed-form
// probability, and enumeration over 2^30 valuations would be hopeless.
func TestDTreeScalesBeyondEnumeration(t *testing.T) {
	tab := pctable.NewWithArity(1)
	var disj []condition.Condition
	pairs := 15
	for i := 0; i < pairs; i++ {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		tab.SetBoolDist(a, 0.5)
		tab.SetBoolDist(b, 0.5)
		disj = append(disj, condition.And(condition.IsTrueVar(a), condition.IsTrueVar(b)))
	}
	c := condition.Or(disj...)
	got, err := tab.ConditionProbability(c)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Pow(1-0.25, float64(pairs))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("P = %.17g, want %.17g", got, want)
	}
}

// randomEqCTable builds a random finite-domain c-table over shared
// variables, for the operator-core equivalence property below.
func randomEqCTable(rng *rand.Rand, arity, rows int, vars []string) *ctable.CTable {
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
		switch rng.Intn(3) {
		case 0:
			cond = condition.True()
		case 1:
			cond = randAtom()
		default:
			cond = condition.And(randAtom(), randAtom())
		}
		tab.AddRow(terms, cond)
	}
	return tab
}

// randomEqQuery builds a random query over the relations A and B.
func randomEqQuery(rng *rand.Rand, arity, depth int) ra.Query {
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
			return qa{ra.Select(ra.AndOf(randPred(sub.a), randPred(sub.a)), sub.q), sub.a}
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

// Property (acceptance criterion of the physical-plan and batch-execution
// redesigns): on randomized multi-table environments and queries, the
// answers produced by the unified operator core across the full 2×2 grid
// of plan options — rewrites off/on × hash path off/on — have
// bit-identical rational tuple marginals to the frozen eager evaluator's,
// for every tuple possible under any answer, and identical certain-answer
// (marginal exactly 1) and possible-answer (marginal > 0) sets. Marginals
// are computed by the exact big.Rat engine, so "equal" means equal as
// rationals, not within a float tolerance. The CI race job runs this under
// -race (every cell executes morsel-parallel).
func TestOperatorCoreBitIdenticalToEager(t *testing.T) {
	one := big.NewRat(1, 1)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		env := ctable.Env{
			"A": randomEqCTable(rng, 2, 3, []string{"x", "y"}),
			"B": randomEqCTable(rng, 2, 2, []string{"y", "z"}),
		}
		q := randomEqQuery(rng, 2, 3)
		eagerCT, err := ctable.EvalQueryEnvEager(q, env, ctable.Options{Simplify: true})
		if err != nil {
			t.Fatalf("trial %d: eager: %v", trial, err)
		}
		eagerPC, err := pctable.UniformPCTable(eagerCT)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		eagerExact := probcalc.NewExact(eagerPC)

		for _, rewrite := range []bool{false, true} {
			for _, hash := range []bool{false, true} {
				grid := fmt.Sprintf("rewrite=%v hash=%v", rewrite, hash)
				coreCT, err := ctable.EvalQueryEnvWithOptions(q, env,
					ctable.Options{Simplify: true, Rewrite: rewrite, NoHash: !hash})
				if err != nil {
					t.Fatalf("trial %d (%s): core: %v", trial, grid, err)
				}
				corePC, err := pctable.UniformPCTable(coreCT)
				if err != nil {
					t.Fatalf("trial %d (%s): %v", trial, grid, err)
				}
				coreExact := probcalc.NewExact(corePC)

				// Every tuple possible under either answer must have the same
				// exact rational marginal in both, hence the same certain and
				// possible answer sets.
				tuples := make(map[string]value.Tuple)
				for _, pc := range []*pctable.PCTable{eagerPC, corePC} {
					possible, err := pc.PossibleTuples()
					if err != nil {
						t.Fatalf("trial %d (%s): %v", trial, grid, err)
					}
					for _, tp := range possible {
						tuples[tp.Key()] = tp
					}
				}
				for _, tp := range tuples {
					want, err := eagerExact.ProbabilityRat(eagerPC.Lineage(tp))
					if err != nil {
						t.Fatalf("trial %d: eager marginal: %v", trial, err)
					}
					got, err := coreExact.ProbabilityRat(corePC.Lineage(tp))
					if err != nil {
						t.Fatalf("trial %d (%s): core marginal: %v", trial, grid, err)
					}
					if got.Cmp(want) != 0 {
						t.Errorf("trial %d (%s), tuple %s: core %s vs eager %s — not bit-identical\nquery: %s",
							trial, grid, tp, got, want, q)
					}
					if (got.Sign() > 0) != (want.Sign() > 0) {
						t.Errorf("trial %d (%s), tuple %s: possible-answer sets differ (core %s, eager %s)",
							trial, grid, tp, got, want)
					}
					if (got.Cmp(one) == 0) != (want.Cmp(one) == 0) {
						t.Errorf("trial %d (%s), tuple %s: certain-answer sets differ (core %s, eager %s)",
							trial, grid, tp, got, want)
					}
				}
			}
		}
	}
}

// Property (acceptance criterion of the shared-circuit engine): on the same
// randomized multi-table environments and queries as the grid test above,
// one shared circuit compiled over ALL answer tuples computes, for every
// tuple, a rational marginal bit-identical to the per-tuple exact d-tree's
// and to the frozen eager evaluator's — across the 2×2 plan-option grid,
// and with the circuit evaluated by 1 and by 8 concurrent goroutines (the
// compiled circuit is immutable; the CI race job runs this under -race).
func TestCircuitBitIdenticalAcrossGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 12; trial++ {
		env := ctable.Env{
			"A": randomEqCTable(rng, 2, 3, []string{"x", "y"}),
			"B": randomEqCTable(rng, 2, 2, []string{"y", "z"}),
		}
		q := randomEqQuery(rng, 2, 3)
		eagerCT, err := ctable.EvalQueryEnvEager(q, env, ctable.Options{Simplify: true})
		if err != nil {
			t.Fatalf("trial %d: eager: %v", trial, err)
		}
		eagerPC, err := pctable.UniformPCTable(eagerCT)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		eagerExact := probcalc.NewExact(eagerPC)

		for _, rewrite := range []bool{false, true} {
			for _, hash := range []bool{false, true} {
				grid := fmt.Sprintf("rewrite=%v hash=%v", rewrite, hash)
				coreCT, err := ctable.EvalQueryEnvWithOptions(q, env,
					ctable.Options{Simplify: true, Rewrite: rewrite, NoHash: !hash})
				if err != nil {
					t.Fatalf("trial %d (%s): core: %v", trial, grid, err)
				}
				corePC, err := pctable.UniformPCTable(coreCT)
				if err != nil {
					t.Fatalf("trial %d (%s): %v", trial, grid, err)
				}
				coreExact := probcalc.NewExact(corePC)

				possible, err := corePC.PossibleTuples()
				if err != nil {
					t.Fatalf("trial %d (%s): %v", trial, grid, err)
				}
				lineages := make([]condition.Condition, len(possible))
				for i, tp := range possible {
					lineages[i] = corePC.Lineage(tp)
				}
				circuit, err := probcalc.CompileAnswer(lineages, corePC)
				if err != nil {
					t.Fatalf("trial %d (%s): compile: %v", trial, grid, err)
				}
				if err := circuit.WellFormed(); err != nil {
					t.Fatalf("trial %d (%s): %v", trial, grid, err)
				}

				for _, workers := range []int{1, 8} {
					results := make([][]*big.Rat, workers)
					errs := make([]error, workers)
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							results[w], errs[w] = circuit.EvalRat(corePC)
						}(w)
					}
					wg.Wait()
					for w := 0; w < workers; w++ {
						if errs[w] != nil {
							t.Fatalf("trial %d (%s) workers=%d: eval: %v", trial, grid, workers, errs[w])
						}
						for i, tp := range possible {
							got := results[w][i]
							dtree, err := coreExact.ProbabilityRat(lineages[i])
							if err != nil {
								t.Fatalf("trial %d (%s): dtree twin: %v", trial, grid, err)
							}
							eager, err := eagerExact.ProbabilityRat(eagerPC.Lineage(tp))
							if err != nil {
								t.Fatalf("trial %d: eager marginal: %v", trial, err)
							}
							if got.Cmp(dtree) != 0 || got.Cmp(eager) != 0 {
								t.Errorf("trial %d (%s) workers=%d, tuple %s: circuit %s, dtree %s, eager %s — not bit-identical\nquery: %s",
									trial, grid, workers, tp, got, dtree, eager, q)
							}
						}
					}
				}
			}
		}
	}
}
