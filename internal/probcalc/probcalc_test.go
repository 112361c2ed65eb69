package probcalc

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/value"
)

func bigPow(b int64, e int) *big.Int {
	return new(big.Int).Exp(big.NewInt(b), big.NewInt(int64(e)), nil)
}

// randomDists builds distributions for x1..xn over {1..domainSize} with
// random (normalised) probabilities.
func randomDists(rng *rand.Rand, n, domainSize int) MapDists {
	dists := make(MapDists, n)
	for i := 1; i <= n; i++ {
		weights := make([]float64, domainSize)
		total := 0.0
		for j := range weights {
			weights[j] = 0.05 + rng.Float64()
			total += weights[j]
		}
		dist := make(map[value.Value]float64, domainSize)
		acc := 0.0
		for j := 0; j < domainSize-1; j++ {
			p := weights[j] / total
			dist[value.Int(int64(j+1))] = p
			acc += p
		}
		// Force an exact sum of 1 so prob.New accepts the space.
		dist[value.Int(int64(domainSize))] = 1 - acc
		dists[condition.Variable(fmt.Sprintf("x%d", i))] = prob.MustNewValueSpace(dist)
	}
	return dists
}

// randomCondition generates a random condition over x1..numVars with
// constants from {1..domainSize}, nested to the given depth.
func randomCondition(rng *rand.Rand, numVars, domainSize, depth int) condition.Condition {
	randVar := func() condition.Term {
		return condition.Var(fmt.Sprintf("x%d", rng.Intn(numVars)+1))
	}
	randTerm := func() condition.Term {
		if rng.Intn(2) == 0 {
			return randVar()
		}
		return condition.ConstInt(int64(rng.Intn(domainSize) + 1))
	}
	atom := func() condition.Condition {
		l, r := randVar(), randTerm()
		if rng.Intn(2) == 0 {
			return condition.Eq(l, r)
		}
		return condition.Neq(l, r)
	}
	if depth <= 0 || rng.Intn(3) == 0 {
		return atom()
	}
	n := 2 + rng.Intn(3)
	kids := make([]condition.Condition, n)
	for i := range kids {
		kids[i] = randomCondition(rng, numVars, domainSize, depth-1)
	}
	switch rng.Intn(3) {
	case 0:
		return condition.And(kids...)
	case 1:
		return condition.Or(kids...)
	default:
		return condition.Not(kids[0])
	}
}

// The float d-tree engine agrees with brute-force enumeration within float
// tolerance, and the exact engine agrees with exact enumeration
// bit-identically, on randomized conditions of many shapes.
func TestDTreeEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		numVars := 2 + rng.Intn(5)
		domainSize := 2 + rng.Intn(3)
		dists := randomDists(rng, numVars, domainSize)
		c := randomCondition(rng, numVars, domainSize, 3)

		// Decompose aggressively: a tiny threshold forces splits/expansions
		// even on conditions small enough to enumerate.
		ev := NewWithOptions(dists, Options{EnumThreshold: 2})
		got, err := ev.Probability(c)
		if err != nil {
			t.Fatalf("trial %d: dtree: %v", trial, err)
		}
		want, err := EnumProbability(c, dists)
		if err != nil {
			t.Fatalf("trial %d: enum: %v", trial, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: dtree %.17g vs enum %.17g for %s", trial, got, want, c)
		}

		exact := NewExactWithOptions(dists, Options{EnumThreshold: 2})
		gotRat, err := exact.ProbabilityRat(c)
		if err != nil {
			t.Fatalf("trial %d: exact dtree: %v", trial, err)
		}
		wantRat, err := EnumProbabilityRat(c, dists)
		if err != nil {
			t.Fatalf("trial %d: exact enum: %v", trial, err)
		}
		if gotRat.Cmp(wantRat) != 0 {
			t.Fatalf("trial %d: exact dtree %s vs exact enum %s for %s", trial, gotRat, wantRat, c)
		}
	}
}

func bern(p float64) *prob.Space {
	s, err := prob.Bernoulli(p)
	if err != nil {
		panic(err)
	}
	return s
}

// Independent conjuncts and disjuncts decompose into component splits with
// the closed-form probabilities.
func TestIndependentComponentSplits(t *testing.T) {
	dists := MapDists{
		"a": bern(0.25), "b": bern(0.5), "c": bern(0.125),
	}
	and := condition.And(
		condition.IsTrueVar("a"), condition.IsTrueVar("b"), condition.IsTrueVar("c"))
	ev := NewWithOptions(dists, Options{EnumThreshold: 1})
	p, err := ev.Probability(and)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.25 * 0.5 * 0.125; p != want {
		t.Fatalf("P[and] = %g, want %g", p, want)
	}
	if s := ev.Stats(); s.ComponentSplits == 0 {
		t.Fatalf("expected a component split, stats %+v", s)
	}

	or := condition.Or(
		condition.IsTrueVar("a"), condition.IsTrueVar("b"), condition.IsTrueVar("c"))
	ev2 := NewWithOptions(dists, Options{EnumThreshold: 1})
	p, err = ev2.Probability(or)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 - (1-0.25)*(1-0.5)*(1-0.125); math.Abs(p-want) > 1e-15 {
		t.Fatalf("P[or] = %g, want %g", p, want)
	}
	if s := ev2.Stats(); s.ComponentSplits == 0 {
		t.Fatalf("expected a component split, stats %+v", s)
	}
}

// Disjuncts forcing a shared variable to different constants are detected
// as exclusive and summed.
func TestExclusiveSplit(t *testing.T) {
	three := prob.MustNewValueSpace(map[value.Value]float64{
		value.Int(1): 0.5, value.Int(2): 0.25, value.Int(3): 0.25,
	})
	dists := MapDists{"x": three, "y": three}
	c := condition.Or(
		condition.And(condition.EqVarConst("x", value.Int(1)), condition.EqVarConst("y", value.Int(1))),
		condition.And(condition.EqVarConst("x", value.Int(2)), condition.EqVarConst("y", value.Int(2))),
	)
	ev := NewWithOptions(dists, Options{EnumThreshold: 1})
	p, err := ev.Probability(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.5*0.5 + 0.25*0.25; math.Abs(p-want) > 1e-15 {
		t.Fatalf("P = %g, want %g", p, want)
	}
	if s := ev.Stats(); s.ExclusiveSplits == 0 {
		t.Fatalf("expected an exclusive split, stats %+v", s)
	}
}

// Entangled variable-to-variable comparisons fall back to Shannon expansion,
// and repeated residuals hit the memo cache.
func TestShannonExpansionAndMemo(t *testing.T) {
	three := prob.MustNewValueSpace(map[value.Value]float64{
		value.Int(1): 0.2, value.Int(2): 0.3, value.Int(3): 0.5,
	})
	dists := MapDists{"x": three, "y": three, "z": three}
	c := condition.Or(
		condition.Eq(condition.Var("x"), condition.Var("y")),
		condition.Eq(condition.Var("y"), condition.Var("z")))
	ev := NewWithOptions(dists, Options{EnumThreshold: 1})
	p, err := ev.Probability(c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EnumProbability(c, dists)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-want) > 1e-12 {
		t.Fatalf("P = %g, want %g", p, want)
	}
	s := ev.Stats()
	if s.ShannonExpansions == 0 {
		t.Fatalf("expected Shannon expansions, stats %+v", s)
	}

	// The two branches x=1..3 all reduce the second disjunct to the same
	// subcondition y=z (unless absorbed), so the cache must be hit.
	memo := condition.Or(
		condition.And(condition.EqVarConst("x", value.Int(1)), condition.EqVarConst("y", value.Int(1))),
		condition.And(condition.EqVarConst("x", value.Int(2)), condition.EqVarConst("y", value.Int(1))),
	)
	ev2 := NewWithOptions(dists, Options{EnumThreshold: 1})
	if _, err := ev2.Probability(memo); err != nil {
		t.Fatal(err)
	}
	if s := ev2.Stats(); s.MemoHits == 0 || s.MemoEntries == 0 {
		t.Fatalf("expected memo hits, stats %+v", s)
	}
}

// The evaluator handles constants, negation and missing distributions.
func TestEdgeCases(t *testing.T) {
	dists := MapDists{"a": bern(0.25)}
	ev := New(dists)
	if p, err := ev.Probability(condition.True()); err != nil || p != 1 {
		t.Fatalf("P[true] = %g, %v", p, err)
	}
	if p, err := ev.Probability(condition.False()); err != nil || p != 0 {
		t.Fatalf("P[false] = %g, %v", p, err)
	}
	if p, err := ev.Probability(condition.Not(condition.IsTrueVar("a"))); err != nil || p != 0.75 {
		t.Fatalf("P[¬a] = %g, %v", p, err)
	}
	if _, err := ev.Probability(condition.IsTrueVar("missing")); err == nil {
		t.Fatal("missing distribution must be reported")
	}
	if _, err := EnumProbability(condition.IsTrueVar("missing"), dists); err == nil {
		t.Fatal("missing distribution must be reported by the enum reference")
	}
	if _, err := NewExact(dists).ProbabilityRat(condition.IsTrueVar("missing")); err == nil {
		t.Fatal("missing distribution must be reported by the exact engine")
	}
}

// enumCount is the enumeration oracle for model counting: the number of
// total valuations of c's variables over dom that satisfy c, and the number
// of valuations.
func enumCount(c condition.Condition, dom condition.DomainProvider) (sat, total int64) {
	condition.ForEachValuation(condition.Vars(c), dom, func(v condition.Valuation) bool {
		total++
		if condition.MustEval(c, v) {
			sat++
		}
		return true
	})
	return sat, total
}

// Model counting, satisfiability and tautology by decomposition agree with
// exhaustive enumeration on randomized conditions.
func TestCountSatisfyingMatchesCondition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		numVars := 2 + rng.Intn(4)
		domainSize := 2 + rng.Intn(3)
		c := randomCondition(rng, numVars, domainSize, 2)
		dom := condition.UniformDomains{Domain: value.IntRange(1, int64(domainSize))}

		wantSat, wantTotal := enumCount(c, dom)
		gotSat, gotTotal := CountSatisfying(c, dom)
		if gotSat != wantSat || gotTotal != wantTotal {
			t.Fatalf("trial %d: count (%d/%d), want (%d/%d) for %s",
				trial, gotSat, gotTotal, wantSat, wantTotal, c)
		}
		if got, want := Satisfiable(c, dom), wantSat > 0; got != want {
			t.Fatalf("trial %d: satisfiable %v, want %v for %s", trial, got, want, c)
		}
		if got, want := Tautology(c, dom), wantSat == wantTotal; got != want {
			t.Fatalf("trial %d: tautology %v, want %v for %s", trial, got, want, c)
		}
	}
}

// Model counting scales past enumeration: a 40-variable disjunction has an
// exactly known model count 4^40 − 3^40 (each b_i ≠ 1 removed).
func TestCountSatisfyingBigScales(t *testing.T) {
	var disj []condition.Condition
	for i := 0; i < 40; i++ {
		disj = append(disj, condition.EqVarConst(fmt.Sprintf("b%d", i), value.Int(1)))
	}
	c := condition.Or(disj...)
	dom := condition.UniformDomains{Domain: value.IntRange(1, 4)}
	sat, total := CountSatisfyingBig(c, dom)
	pow := func(b int64, e int) string {
		n := bigPow(b, e)
		return n.String()
	}
	if total.String() != pow(4, 40) {
		t.Fatalf("total = %s, want 4^40", total)
	}
	want := bigPow(4, 40)
	want.Sub(want, bigPow(3, 40))
	if sat.Cmp(want) != 0 {
		t.Fatalf("sat = %s, want 4^40-3^40 = %s", sat, want)
	}
}

// Regression: memoization keys must be injective even when string constants
// contain structural characters. With String()-based keys, the two
// disjunctions below collided on one cache entry, so a shared evaluator
// silently returned the first condition's probability for the second. The
// memo is now keyed by hash-consed IDs, which identify terms by value and
// cannot collide on renderings at all.
func TestMemoKeyInjective(t *testing.T) {
	tricky := condition.Or(
		condition.Eq(condition.Var("x"), condition.Const(value.Str("1'|y='2"))),
		condition.EqVarConst("z", value.Str("3")))
	plain := condition.Or(
		condition.EqVarConst("x", value.Str("1")),
		condition.EqVarConst("y", value.Str("2")),
		condition.EqVarConst("z", value.Str("3")))
	in := condition.NewInterner()
	if in.ID(tricky) == in.ID(plain) {
		t.Fatalf("memo key collision between %s and %s", tricky, plain)
	}

	dists := MapDists{
		"x": prob.MustNewValueSpace(map[value.Value]float64{value.Str("1"): 0.5, value.Str("1'|y='2"): 0.5}),
		"y": prob.MustNewValueSpace(map[value.Value]float64{value.Str("2"): 0.25, value.Str("other"): 0.75}),
		"z": prob.MustNewValueSpace(map[value.Value]float64{value.Str("3"): 0.125, value.Str("other"): 0.875}),
	}
	ev := NewWithOptions(dists, Options{EnumThreshold: 1})
	for i, c := range []condition.Condition{tricky, plain} {
		got, err := ev.Probability(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EnumProbability(c, dists)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("case %d: shared evaluator returned %g, want %g", i, got, want)
		}
	}
}

func TestStatsEnumerationCounted(t *testing.T) {
	dists := MapDists{"a": bern(0.5), "b": bern(0.5)}
	ev := New(dists) // default threshold ≥ 4: the whole condition enumerates
	c := condition.And(condition.IsTrueVar("a"), condition.IsTrueVar("b"))
	if _, err := ev.Probability(c); err != nil {
		t.Fatal(err)
	}
	if s := ev.Stats(); s.Enumerations == 0 {
		t.Fatalf("expected a residual enumeration, stats %+v", s)
	}
}
