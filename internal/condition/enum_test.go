package condition

import "fmt"

// Enumeration oracles: exhaustive searches over every total valuation, used
// by this package's tests to check simplification and evaluation. No served
// request needs them; the decomposition-based counters live in
// internal/probcalc.

// CountValuations returns the number of total valuations of vars over dom,
// guarding against overflow by capping at max (use max<=0 for no cap, which
// panics on overflow).
func CountValuations(vars []Variable, dom DomainProvider, max int64) int64 {
	n := int64(1)
	for _, x := range vars {
		d := dom.DomainOf(x)
		if d == nil {
			panic(fmt.Sprintf("condition: no domain for variable %s", x))
		}
		n *= int64(d.Size())
		if max > 0 && n > max {
			return max
		}
		if n < 0 {
			panic("condition: valuation count overflow")
		}
	}
	return n
}

// Satisfiable reports whether some total valuation of the free variables of
// c over dom makes c true, together with a witness valuation (nil when
// unsatisfiable). The search short-circuits at the first witness and prunes
// using Substitute after each variable is fixed.
func Satisfiable(c Condition, dom DomainProvider) (bool, Valuation) {
	vars := Vars(c)
	var witness Valuation
	found := false
	var rec func(rest []Variable, cur Condition, partial Valuation)
	rec = func(rest []Variable, cur Condition, partial Valuation) {
		if found {
			return
		}
		switch cur.(type) {
		case TrueCond:
			// Any extension works; fill remaining variables arbitrarily.
			w := partial.Copy()
			for _, x := range rest {
				w[x] = dom.DomainOf(x).At(0)
			}
			witness, found = w, true
			return
		case FalseCond:
			return
		}
		if len(rest) == 0 {
			if MustEval(cur, partial) {
				witness, found = partial.Copy(), true
			}
			return
		}
		x := rest[0]
		d := dom.DomainOf(x)
		if d == nil || d.Size() == 0 {
			panic(fmt.Sprintf("condition: no domain for variable %s", x))
		}
		for _, val := range d.Values() {
			partial[x] = val
			rec(rest[1:], cur.Substitute(Valuation{x: val}), partial)
			if found {
				return
			}
		}
		delete(partial, x)
	}
	rec(vars, Simplify(c), make(Valuation))
	return found, witness
}

// Tautology reports whether c holds under every total valuation over dom.
func Tautology(c Condition, dom DomainProvider) bool {
	unsat, _ := Satisfiable(Not(c), dom)
	return !unsat
}

// CountSatisfying returns the number of total valuations of the free
// variables of c over dom that satisfy c, and the total number of
// valuations. It enumerates exhaustively; use only when the variable count
// and domains are small (the probabilistic packages use smarter expansion).
func CountSatisfying(c Condition, dom DomainProvider) (sat, total int64) {
	vars := Vars(c)
	ForEachValuation(vars, dom, func(v Valuation) bool {
		total++
		if MustEval(c, v) {
			sat++
		}
		return true
	})
	if len(vars) == 0 {
		total = 1
		if MustEval(c, nil) {
			sat = 1
		} else {
			sat = 0
		}
	}
	return sat, total
}
