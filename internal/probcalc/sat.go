package probcalc

import (
	"fmt"
	"math/big"

	"uncertaindb/internal/condition"
)

// This file derives model counting and satisfiability from the compiler:
// running it in big.Rat arithmetic under exact uniform weights 1/|dom(x)|
// turns a probability into a model count (count = P · Π|dom(x)|, an exact
// integer). They scale to variable counts where exhaustive enumeration —
// the oracle the tests check them against — is hopeless.

// CountSatisfyingBig returns the number of total valuations of the free
// variables of c over dom that satisfy c, and the total number of
// valuations, as big integers. It panics if a variable has no (non-empty)
// domain, as condition.ForEachValuation does.
func CountSatisfyingBig(c condition.Condition, dom condition.DomainProvider) (sat, total *big.Int) {
	vars := condition.Vars(c)
	total = big.NewInt(1)
	for _, x := range vars {
		d := dom.DomainOf(x)
		if d == nil || d.Size() == 0 {
			panic(fmt.Sprintf("probcalc: no domain for variable %s", x))
		}
		total.Mul(total, big.NewInt(int64(d.Size())))
	}
	p, err := newIncremental(ratField(), uniformOutcomes(dom), Options{}).probability(c)
	if err != nil {
		panic(err)
	}
	r := new(big.Rat).Mul(p, new(big.Rat).SetInt(total))
	if !r.IsInt() {
		// Cannot happen: uniform weights are exact rationals 1/n, so the
		// probability has denominator dividing the valuation count.
		panic(fmt.Sprintf("probcalc: non-integral model count %s", r))
	}
	return new(big.Int).Set(r.Num()), total
}

// CountSatisfying is CountSatisfyingBig with int64 results; it panics when a
// count does not fit in an int64.
func CountSatisfying(c condition.Condition, dom condition.DomainProvider) (sat, total int64) {
	s, t := CountSatisfyingBig(c, dom)
	if !s.IsInt64() || !t.IsInt64() {
		panic("probcalc: model count overflows int64; use CountSatisfyingBig")
	}
	return s.Int64(), t.Int64()
}

// Satisfiable reports whether some total valuation over dom satisfies c,
// decided by decomposition rather than search. It produces no witness
// valuation.
func Satisfiable(c condition.Condition, dom condition.DomainProvider) bool {
	sat, _ := CountSatisfyingBig(c, dom)
	return sat.Sign() != 0
}

// Tautology reports whether c holds under every total valuation over dom.
func Tautology(c condition.Condition, dom condition.DomainProvider) bool {
	sat, total := CountSatisfyingBig(c, dom)
	return sat.Cmp(total) == 0
}

// uniformOutcomes weights every domain value of a variable with the exact
// rational 1/|dom(x)|.
func uniformOutcomes(dom condition.DomainProvider) func(condition.Variable) ([]weighted[*big.Rat], error) {
	return func(x condition.Variable) ([]weighted[*big.Rat], error) {
		d := dom.DomainOf(x)
		if d == nil || d.Size() == 0 {
			return nil, fmt.Errorf("probcalc: no domain for variable %s", x)
		}
		w := big.NewRat(1, int64(d.Size()))
		out := make([]weighted[*big.Rat], 0, d.Size())
		for _, v := range d.Values() {
			out = append(out, weighted[*big.Rat]{v: v, w: w})
		}
		return out, nil
	}
}
