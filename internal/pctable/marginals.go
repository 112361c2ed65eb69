package pctable

import (
	"fmt"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/value"
)

// The engines Marginals computes with: one shared arithmetic circuit over
// all candidates (the exact engine), valuation enumeration
// (ConditionProbabilityEnum, the brute-force reference), and Monte-Carlo
// sampling.
const (
	EngineEnum    = "enum"
	EngineCircuit = "circuit"
	EngineMC      = "mc"
)

// CertainEps is the tolerance under which an exact marginal counts as 1 and
// the tuple is reported as a certain answer.
const CertainEps = 1e-9

// Strategy selects how Marginals computes each candidate's marginal.
type Strategy struct {
	Engine string // EngineCircuit, EngineEnum or EngineMC
	// Circuit is, for EngineCircuit, a circuit compiled over exactly the
	// candidates' lineages in candidate order; nil compiles one.
	Circuit *probcalc.Circuit
	// Samples (default 10000), Seed (default 1) and Workers (default 1)
	// drive EngineMC, whose estimates are deterministic for a fixed triple.
	Samples int
	Seed    int64
	Workers int
}

// TupleAnswer is one answer tuple with its marginal probability.
type TupleAnswer struct {
	Tuple value.Tuple
	P     float64
	// StdErr is the standard error of a Monte-Carlo estimate (0 for exact
	// engines).
	StdErr float64
	// Certain reports whether the tuple is a certain answer: marginal 1
	// within CertainEps for the exact engines; for Monte-Carlo, only a
	// lineage that simplified to the constant true (an estimate of 1 is not
	// proof).
	Certain bool
}

// Marginals computes every candidate's marginal P[lineage] under t's
// independent variable distributions (Theorem 9 with the §9 lineage reading)
// and returns the answers in candidate order. t supplies only the
// distributions: a query answer, or its what-if view from WithDists. The
// circuit engine compiles every candidate's lineage into one circuit, so
// subformulas shared across candidates are decomposed once.
//
// Exact engines drop candidates whose marginal is 0 — candidate discovery
// over-approximates, and a row pattern may have unsatisfiable lineage — and
// report a tuple certain at P ≥ 1−CertainEps. Monte-Carlo keeps every
// candidate and reports it certain only when its lineage is the constant
// true.
func Marginals(t *PCTable, cands []Candidate, s Strategy) ([]TupleAnswer, error) {
	var prob func(i int, c condition.Condition) (p, stderr float64, err error)
	switch s.Engine {
	case EngineEnum:
		prob = func(_ int, c condition.Condition) (float64, float64, error) {
			p, err := t.ConditionProbabilityEnum(c)
			return p, 0, err
		}
	case EngineCircuit:
		if s.Circuit == nil && len(cands) > 0 {
			conds := make([]condition.Condition, len(cands))
			for i, c := range cands {
				conds[i] = c.Lineage
			}
			var err error
			if s.Circuit, err = probcalc.CompileAnswer(conds, t); err != nil {
				return nil, err
			}
		}
		var probs []float64
		if s.Circuit != nil {
			var err error
			if probs, err = s.Circuit.EvalFloat(t); err != nil {
				return nil, err
			}
		}
		prob = func(i int, _ condition.Condition) (float64, float64, error) { return probs[i], 0, nil }
	case EngineMC:
		samples, seed, workers := s.Samples, s.Seed, max(s.Workers, 1)
		if samples <= 0 {
			samples = 10000
		}
		if seed == 0 {
			seed = 1
		}
		sampler, err := NewSampler(t, seed)
		if err != nil {
			return nil, err
		}
		prob = func(_ int, c condition.Condition) (float64, float64, error) {
			return sampler.EstimateConditionProbabilityParallel(c, samples, workers)
		}
	default:
		return nil, fmt.Errorf("pctable: unknown marginal engine %q", s.Engine)
	}

	exact := s.Engine != EngineMC
	out := make([]TupleAnswer, 0, len(cands))
	for i, c := range cands {
		p, se, err := prob(i, c.Lineage)
		if err != nil {
			return nil, err
		}
		if exact && p == 0 {
			continue
		}
		certain := p >= 1-CertainEps
		if !exact {
			_, certain = c.Lineage.(condition.TrueCond)
		}
		out = append(out, TupleAnswer{Tuple: c.Tuple, P: p, StdErr: se, Certain: certain})
	}
	return out, nil
}
