// Package probcalc computes exact probabilities of c-table conditions under
// independent per-variable distributions (the pc-table semantics of
// Definition 13) without enumerating all valuations.
//
// One compiler (circuit.go) decomposes a condition into a d-tree shared as
// a DAG: connected-component independence splits, exclusive-disjunction
// splits, and Shannon expansion on a pivot variable, memoized by
// hash-consed condition IDs (condition.Interner), so permutations of the
// same subcondition share one node without any string rendering on the hot
// path; residual subproblems with at most Options.EnumThreshold valuations
// become enumeration leaves. It is the engine behind
// PCTable.ConditionProbability and every exact served marginal.
//
// The compiler has two faces. Evaluator (float64) and ExactEvaluator
// (big.Rat) answer one condition at a time and keep the compiler across
// calls, so related conditions (the lineage of every answer tuple) share
// nodes. CompileAnswer compiles a whole answer into a Circuit that
// re-evaluates under what-if distributions. Exact results convert every
// float64 probability to the rational it denotes, so they are
// mathematically identical to brute-force enumeration (EnumProbabilityRat,
// the independent oracle) — the equivalence tests assert bit-identical
// rationals. sat.go derives model counting and satisfiability from the same
// compiler under uniform weights.
package probcalc

import (
	"fmt"
	"math/big"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/prob"
)

// DistProvider supplies the finite distribution of each variable. It is
// implemented by *pctable.PCTable and by MapDists.
type DistProvider interface {
	// Dist returns the distribution of x, or nil if x has none.
	Dist(x condition.Variable) *prob.Space
}

// MapDists is a DistProvider backed by a map, convenient for tests and
// callers that are not pc-tables.
type MapDists map[condition.Variable]*prob.Space

// Dist implements DistProvider.
func (m MapDists) Dist(x condition.Variable) *prob.Space { return m[x] }

// DefaultEnumThreshold is the residual size (number of valuations) at or
// below which the evaluator enumerates directly instead of decomposing.
const DefaultEnumThreshold = 16

// Options tunes an evaluator.
type Options struct {
	// EnumThreshold is the maximum number of residual valuations that are
	// enumerated directly. Zero or negative selects DefaultEnumThreshold.
	EnumThreshold int64
}

// Stats counts the decomposition steps an evaluator's compiler has taken;
// it is the observable shape of the d-tree and is reported by benchmarks.
type Stats struct {
	ComponentSplits   int // independence splits of conjunctions/disjunctions
	ExclusiveSplits   int // disjoint-disjunction splits
	ShannonExpansions int // pivot expansions
	Enumerations      int // residual enumeration leaves
	MemoHits          int // subproblems answered from the memo
	MemoMisses        int // subproblems decomposed and inserted
	MemoEntries       int // size of the memo
}

// Evaluator computes condition probabilities in float64. Its compiler, and
// so its memo, persists across calls, so evaluating many related conditions
// (e.g. the lineage of every answer tuple) shares work. Not safe for
// concurrent use.
type Evaluator struct {
	inc *incremental[float64]
}

// New builds a float64 evaluator over the given distributions.
func New(d DistProvider) *Evaluator { return NewWithOptions(d, Options{}) }

// NewWithOptions is New with explicit options.
func NewWithOptions(d DistProvider, opts Options) *Evaluator {
	return &Evaluator{inc: newIncremental(floatField(), floatOutcomes(d), opts)}
}

// Probability returns P[c] under the evaluator's distributions.
func (e *Evaluator) Probability(c condition.Condition) (float64, error) {
	return e.inc.probability(c)
}

// Stats returns the accumulated decomposition statistics.
func (e *Evaluator) Stats() Stats { return e.inc.cp.Stats() }

// ExactEvaluator computes condition probabilities in exact rational
// arithmetic. Every float64 probability is converted to the rational it
// exactly denotes and each variable's weights are renormalized to an exact
// probability measure (float distributions only sum to 1 within
// prob.Tolerance), so the result is the mathematically exact probability of
// the condition under the distributions, independent of decomposition
// order: it is bit-identical to exact enumeration (EnumProbabilityRat).
// Not safe for concurrent use.
type ExactEvaluator struct {
	inc *incremental[*big.Rat]
}

// NewExact builds an exact (big.Rat) evaluator.
func NewExact(d DistProvider) *ExactEvaluator { return NewExactWithOptions(d, Options{}) }

// NewExactWithOptions is NewExact with explicit options.
func NewExactWithOptions(d DistProvider, opts Options) *ExactEvaluator {
	return &ExactEvaluator{inc: newIncremental(ratField(), ratOutcomes(d), opts)}
}

// ProbabilityRat returns P[c] as an exact rational.
func (e *ExactEvaluator) ProbabilityRat(c condition.Condition) (*big.Rat, error) {
	return e.inc.probability(c)
}

// Probability returns P[c] as the float64 nearest the exact rational.
func (e *ExactEvaluator) Probability(c condition.Condition) (float64, error) {
	r, err := e.inc.probability(c)
	if err != nil {
		return 0, err
	}
	f, _ := r.Float64()
	return f, nil
}

// Stats returns the accumulated decomposition statistics.
func (e *ExactEvaluator) Stats() Stats { return e.inc.cp.Stats() }

// Probability is the one-shot convenience: P[c] by a fresh float64
// evaluator over d.
func Probability(c condition.Condition, d DistProvider) (float64, error) {
	return New(d).Probability(c)
}

// EnumProbability computes P[c] by brute-force enumeration of all valuations
// of the condition's variables, in float64. It is the reference baseline the
// benchmarks compare the compiler against.
func EnumProbability(c condition.Condition, d DistProvider) (float64, error) {
	return enumProbability(c, floatField(), floatOutcomes(d))
}

// EnumProbabilityRat computes P[c] by brute-force enumeration in exact
// rational arithmetic. It never decomposes, so it is an oracle independent
// of the compiler: ExactEvaluator.ProbabilityRat returns a rational equal to
// this one for every condition — the equivalence tests assert it.
func EnumProbabilityRat(c condition.Condition, d DistProvider) (*big.Rat, error) {
	return enumProbability(c, ratField(), ratOutcomes(d))
}

// enumProbability runs the one leaf enumerator over all of c's variables.
func enumProbability[T any](c condition.Condition, f field[T], dist func(condition.Variable) ([]weighted[T], error)) (T, error) {
	c = condition.Simplify(c)
	vars := condition.Vars(c)
	w := make(map[condition.Variable]varWeights[T], len(vars))
	for _, x := range vars {
		o, err := dist(x)
		if err != nil {
			return f.zero(), err
		}
		if len(o) == 0 {
			return f.zero(), fmt.Errorf("probcalc: empty distribution for variable %s", x)
		}
		w[x] = varWeights[T]{outs: o}
	}
	return enumerateLeaf(f, c, vars, w, make(condition.Valuation, len(vars))), nil
}

func floatField() field[float64] {
	return field[float64]{
		zero: func() float64 { return 0 },
		one:  func() float64 { return 1 },
		add:  func(a, b float64) float64 { return a + b },
		sub:  func(a, b float64) float64 { return a - b },
		mul:  func(a, b float64) float64 { return a * b },
	}
}

func ratField() field[*big.Rat] {
	return field[*big.Rat]{
		zero: func() *big.Rat { return new(big.Rat) },
		one:  func() *big.Rat { return big.NewRat(1, 1) },
		add:  func(a, b *big.Rat) *big.Rat { return new(big.Rat).Add(a, b) },
		sub:  func(a, b *big.Rat) *big.Rat { return new(big.Rat).Sub(a, b) },
		mul:  func(a, b *big.Rat) *big.Rat { return new(big.Rat).Mul(a, b) },
	}
}

func floatOutcomes(d DistProvider) func(condition.Variable) ([]weighted[float64], error) {
	return func(x condition.Variable) ([]weighted[float64], error) {
		s := d.Dist(x)
		if s == nil {
			return nil, fmt.Errorf("probcalc: variable %s has no distribution", x)
		}
		out := make([]weighted[float64], 0, s.Size())
		for _, o := range s.Outcomes() {
			out = append(out, weighted[float64]{v: o.ValuePayload(), w: o.P})
		}
		return out, nil
	}
}

func ratOutcomes(d DistProvider) func(condition.Variable) ([]weighted[*big.Rat], error) {
	floats := floatOutcomes(d)
	return func(x condition.Variable) ([]weighted[*big.Rat], error) {
		o, err := floats(x)
		if err != nil {
			return nil, err
		}
		out := make([]weighted[*big.Rat], len(o))
		sum := new(big.Rat)
		for i, wo := range o {
			w := new(big.Rat).SetFloat64(wo.w)
			if w == nil {
				return nil, fmt.Errorf("probcalc: probability %v of %s is not finite", wo.w, x)
			}
			sum.Add(sum, w)
			out[i] = weighted[*big.Rat]{v: wo.v, w: w}
		}
		// Float probabilities only sum to 1 within prob.Tolerance; as exact
		// rationals the residue would break the measure (and with it the
		// complement and marginalization identities the decomposition
		// relies on). Renormalize so the weights form an exact probability
		// distribution.
		if sum.Cmp(big.NewRat(1, 1)) != 0 {
			inv := new(big.Rat).Inv(sum)
			for i := range out {
				out[i].w = new(big.Rat).Mul(out[i].w, inv)
			}
		}
		return out, nil
	}
}
