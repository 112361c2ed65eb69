package probcalc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/value"
)

// TestCircuitMatchesDTreeAndEnum compiles random answer sets and checks the
// circuit's marginals against the per-tuple ExactEvaluator and against
// brute-force enumeration (bit-identical rationals). Both evaluators run the
// same compiler, so enumeration is the independent reference: the float fast
// path is checked against it too.
func TestCircuitMatchesDTreeAndEnum(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, opts := range []Options{{}, {EnumThreshold: 2}} {
		for trial := 0; trial < 60; trial++ {
			numVars := 2 + rng.Intn(4)
			domain := 2 + rng.Intn(2)
			dists := randomDists(rng, numVars, domain)
			conds := make([]condition.Condition, 1+rng.Intn(4))
			for i := range conds {
				conds[i] = condition.Simplify(randomCondition(rng, numVars, domain, 2))
			}
			circ, err := CompileAnswerWithOptions(conds, dists, opts)
			if err != nil {
				t.Fatalf("trial %d: compile: %v", trial, err)
			}
			if err := circ.WellFormed(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			rats, err := circ.EvalRat(dists)
			if err != nil {
				t.Fatalf("trial %d: EvalRat: %v", trial, err)
			}
			floats, err := circ.EvalFloat(dists)
			if err != nil {
				t.Fatalf("trial %d: EvalFloat: %v", trial, err)
			}
			exact := NewExactWithOptions(dists, opts)
			for i, c := range conds {
				want, err := exact.ProbabilityRat(c)
				if err != nil {
					t.Fatalf("trial %d: dtree: %v", trial, err)
				}
				if rats[i].Cmp(want) != 0 {
					t.Fatalf("trial %d root %d: circuit %s != dtree %s for %s",
						trial, i, rats[i], want, c)
				}
				enum, err := EnumProbabilityRat(c, dists)
				if err != nil {
					t.Fatalf("trial %d: enum: %v", trial, err)
				}
				if rats[i].Cmp(enum) != 0 {
					t.Fatalf("trial %d root %d: circuit %s != enumeration %s for %s",
						trial, i, rats[i], enum, c)
				}
				wantF, _ := enum.Float64()
				if math.Abs(floats[i]-wantF) > 1e-9 {
					t.Fatalf("trial %d root %d: float circuit %v != %v", trial, i, floats[i], wantF)
				}
			}
		}
	}
}

// TestCircuitSharesStructure verifies the point of the circuit: a block
// shared by many tuples compiles once, so the DAG is far smaller than the
// sum of per-tuple compilations and the compiler reports the sharing.
func TestCircuitSharesStructure(t *testing.T) {
	const tuples = 50
	dists := make(MapDists)
	var blockAtoms []condition.Condition
	for i := 0; i < 6; i++ {
		x := condition.Variable(fmt.Sprintf("b%d", i))
		dists[x] = bern(0.5)
		blockAtoms = append(blockAtoms, condition.IsTrueVar(string(x)))
	}
	block := condition.Or(
		condition.And(blockAtoms[0], blockAtoms[1], blockAtoms[2]),
		condition.And(blockAtoms[3], blockAtoms[4], blockAtoms[5]),
	)
	conds := make([]condition.Condition, tuples)
	for i := range conds {
		u := condition.Variable(fmt.Sprintf("u%d", i))
		dists[u] = bern(0.3)
		conds[i] = condition.And(condition.IsTrueVar(string(u)), block)
	}
	circ, err := CompileAnswerWithOptions(conds, dists, Options{EnumThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := circ.Stats()
	if st.SharedHits < tuples-1 {
		t.Fatalf("expected >= %d shared-subcircuit hits, got %d", tuples-1, st.SharedHits)
	}
	solo, err := CompileAnswerWithOptions(conds[:1], dists, Options{EnumThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if circ.NumNodes() >= tuples*solo.NumNodes() {
		t.Fatalf("no structure sharing: %d nodes for %d tuples, %d for one",
			circ.NumNodes(), tuples, solo.NumNodes())
	}
	// And the shared answer is still exactly right.
	rats, err := circ.EvalRat(dists)
	if err != nil {
		t.Fatal(err)
	}
	exact := NewExact(dists)
	for i, c := range conds {
		want, err := exact.ProbabilityRat(c)
		if err != nil {
			t.Fatal(err)
		}
		if rats[i].Cmp(want) != 0 {
			t.Fatalf("root %d: %s != %s", i, rats[i], want)
		}
	}
}

// TestCircuitWhatIf re-evaluates a compiled circuit under overridden
// distributions and checks the result is bit-identical to decomposing from
// scratch under the new distributions.
func TestCircuitWhatIf(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		numVars := 2 + rng.Intn(3)
		domain := 2 + rng.Intn(2)
		base := randomDists(rng, numVars, domain)
		override := randomDists(rng, numVars, domain) // same supports, new weights
		conds := make([]condition.Condition, 1+rng.Intn(3))
		for i := range conds {
			conds[i] = condition.Simplify(randomCondition(rng, numVars, domain, 2))
		}
		circ, err := CompileAnswerWithOptions(conds, base, Options{EnumThreshold: 2})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rats, err := circ.EvalRat(override)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fresh := NewExact(override)
		for i, c := range conds {
			want, err := fresh.ProbabilityRat(c)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if rats[i].Cmp(want) != 0 {
				t.Fatalf("trial %d root %d: what-if %s != fresh %s for %s",
					trial, i, rats[i], want, c)
			}
		}
	}
}

// TestCircuitRejectsWiderSupport: an override may reweight or drop support
// values, but introducing a value the circuit never branched on is an error.
func TestCircuitRejectsWiderSupport(t *testing.T) {
	x := condition.Variable("x")
	y := condition.Variable("y")
	base := MapDists{
		x: prob.MustNewValueSpace(map[value.Value]float64{value.Int(1): 0.5, value.Int(2): 0.5}),
		y: prob.MustNewValueSpace(map[value.Value]float64{value.Int(1): 0.5, value.Int(2): 0.5}),
	}
	c := condition.And(
		condition.Eq(condition.Var("x"), condition.ConstInt(1)),
		condition.Or(
			condition.Eq(condition.Var("y"), condition.ConstInt(1)),
			condition.Eq(condition.Var("x"), condition.Var("y")),
		),
	)
	circ, err := CompileAnswerWithOptions([]condition.Condition{c}, base, Options{EnumThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	wider := MapDists{
		x: prob.MustNewValueSpace(map[value.Value]float64{value.Int(1): 0.4, value.Int(2): 0.3, value.Int(3): 0.3}),
		y: base[y],
	}
	if _, err := circ.EvalFloat(wider); err == nil {
		t.Fatal("expected support-violation error for widened distribution")
	}
	// Narrower support is fine: the missing branch just gets weight zero.
	narrower := MapDists{
		x: prob.MustNewValueSpace(map[value.Value]float64{value.Int(1): 1}),
		y: base[y],
	}
	got, err := circ.EvalFloat(narrower)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Probability(c, narrower)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-want) > 1e-12 {
		t.Fatalf("narrowed support: circuit %v != fresh %v", got[0], want)
	}
}

// circuitDecoder derives arbitrary conditions from fuzz bytes, mirroring the
// condition package's fuzz decoder: variables {x, y, z}, constants {1, 2, 3},
// depth-bounded so every input decodes to a finite tree.
type circuitDecoder struct {
	data []byte
	pos  int
}

func (d *circuitDecoder) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *circuitDecoder) term() condition.Term {
	b := d.next()
	if b%2 == 0 {
		return condition.Var(string(rune('x' + (b/2)%3)))
	}
	return condition.ConstInt(int64(1 + (b/2)%3))
}

func (d *circuitDecoder) cmp() condition.Condition {
	l, r := d.term(), d.term()
	if d.next()%2 == 0 {
		return condition.Eq(l, r)
	}
	return condition.Neq(l, r)
}

func (d *circuitDecoder) cond(depth int) condition.Condition {
	b := d.next()
	if depth >= 5 {
		switch b % 4 {
		case 0:
			return condition.True()
		case 1:
			return condition.False()
		default:
			return d.cmp()
		}
	}
	switch b % 8 {
	case 0:
		return condition.True()
	case 1:
		return condition.False()
	case 2, 3:
		return d.cmp()
	case 4:
		return condition.Not(d.cond(depth + 1))
	case 5:
		return condition.And(d.cond(depth+1), d.cond(depth+1))
	case 6:
		return condition.Or(d.cond(depth+1), d.cond(depth+1))
	default:
		return condition.And(d.cond(depth+1), condition.Or(d.cond(depth+1), d.cond(depth+1)), condition.Not(d.cond(depth+1)))
	}
}

// FuzzCircuitCompile checks the compiler's contract on arbitrary answer
// sets: compilation never panics, the DAG is well-formed (children strictly
// precede parents, so no cycles; every root in range), and every root
// evaluates — float64 and bit-exact big.Rat — to the same probability as
// brute-force enumeration of the input condition.
func FuzzCircuitCompile(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0},
		{5, 2, 0, 1, 0, 2, 0, 1, 1},
		{6, 7, 3, 5, 1, 9, 42, 8, 255, 17, 3, 3, 0, 0, 1},
		{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7},
		{4, 4, 2, 0, 1, 1, 5, 2, 0, 1, 0, 2, 0, 1, 1, 6, 7, 3},
	} {
		f.Add(seed)
	}
	dists := MapDists{
		"x": prob.MustNewValueSpace(map[value.Value]float64{value.Int(1): 0.5, value.Int(2): 0.25, value.Int(3): 0.25}),
		"y": prob.MustNewValueSpace(map[value.Value]float64{value.Int(1): 0.25, value.Int(2): 0.5, value.Int(3): 0.25}),
		"z": prob.MustNewValueSpace(map[value.Value]float64{value.Int(1): 0.125, value.Int(2): 0.375, value.Int(3): 0.5}),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &circuitDecoder{data: data}
		conds := []condition.Condition{d.cond(0), d.cond(0), d.cond(0)}
		for _, opts := range []Options{{}, {EnumThreshold: 2}} {
			circ, err := CompileAnswerWithOptions(conds, dists, opts)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if err := circ.WellFormed(); err != nil {
				t.Fatal(err)
			}
			if circ.NumRoots() != len(conds) {
				t.Fatalf("%d roots for %d conditions", circ.NumRoots(), len(conds))
			}
			rats, err := circ.EvalRat(dists)
			if err != nil {
				t.Fatalf("EvalRat: %v", err)
			}
			floats, err := circ.EvalFloat(dists)
			if err != nil {
				t.Fatalf("EvalFloat: %v", err)
			}
			for i, c := range conds {
				want, err := EnumProbabilityRat(c, dists)
				if err != nil {
					t.Fatalf("enum: %v", err)
				}
				if rats[i].Cmp(want) != 0 {
					t.Fatalf("root %d: circuit %s != enumeration %s for %s", i, rats[i], want, c)
				}
				wantF, _ := want.Float64()
				if math.Abs(floats[i]-wantF) > 1e-9 {
					t.Fatalf("root %d: float %v != %v for %s", i, floats[i], wantF, c)
				}
			}
		}
	})
}

// sharedAnswer builds the E20 benchmark shape: groups× a shared disjunctive
// block of variable pairs, perGroup tuples per group each guarded by a
// private variable — the high-sharing regime CompileAnswer amortizes.
func sharedAnswer(groups, perGroup, pairs int) ([]condition.Condition, MapDists) {
	mustBern := func(p float64) *prob.Space {
		s, err := prob.Bernoulli(p)
		if err != nil {
			panic(err)
		}
		return s
	}
	dists := make(MapDists)
	var conds []condition.Condition
	for g := 0; g < groups; g++ {
		disj := make([]condition.Condition, pairs)
		for i := 0; i < pairs; i++ {
			a, b := fmt.Sprintf("a%d_%d", g, i), fmt.Sprintf("b%d_%d", g, i)
			dists[condition.Variable(a)] = mustBern(0.5)
			dists[condition.Variable(b)] = mustBern(0.4)
			disj[i] = condition.And(condition.IsTrueVar(a), condition.IsTrueVar(b))
		}
		block := condition.Or(disj...)
		for t := 0; t < perGroup; t++ {
			u := fmt.Sprintf("u%d_%d", g, t)
			dists[condition.Variable(u)] = mustBern(0.9)
			conds = append(conds, condition.And(condition.IsTrueVar(u), block))
		}
	}
	return conds, dists
}

// BenchmarkCompileAnswer measures shared compilation plus one evaluation of
// a 10k-tuple high-sharing answer (the E20 throughput shape).
func BenchmarkCompileAnswer(b *testing.B) {
	conds, dists := sharedAnswer(100, 100, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := CompileAnswer(conds, dists)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.EvalFloat(dists); err != nil {
			b.Fatal(err)
		}
	}
}
