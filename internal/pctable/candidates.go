package pctable

import (
	"slices"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/value"
)

// Candidate is a possible tuple of a table together with its lineage.
type Candidate struct {
	Tuple   value.Tuple
	Lineage condition.Condition
}

// Candidates returns the possible tuples (PossibleTuples) whose lineage is
// not syntactically false, each with that lineage, sorted by tuple key.
func (t *PCTable) Candidates() ([]Candidate, error) {
	tuples, err := t.PossibleTuples()
	if err != nil {
		return nil, err
	}
	return t.CandidatesOf(tuples), nil
}

// CandidatesOf returns those of the given distinct tuples whose lineage is
// not syntactically false, in the given order, each with its lineage —
// syntactically identical to Lineage's, so marginals are bit-identical — all
// built in one pass over the rows instead of one per tuple. The pass skips
// rows whose condition is syntactically false (their disjuncts simplify
// away), sends a ground row to its tuple by a hash lookup, matches only rows
// with variable cells against every tuple, and appends disjuncts in row order.
func (t *PCTable) CandidatesOf(tuples []value.Tuple) []Candidate {
	// A tuple is keyed by the packed IDs of its interned values, so looking a
	// ground row up renders and allocates nothing. IDs start at 1: a value no
	// tuple holds packs as 0, and its key matches nothing.
	ids := make(map[value.Value]uint32)
	appendID := func(key []byte, v value.Value) []byte {
		id := ids[v]
		return append(key, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	byKey := make(map[string]int, len(tuples))
	var key []byte
	for i, tp := range tuples {
		key = key[:0]
		for _, v := range tp {
			if ids[v] == 0 {
				ids[v] = uint32(len(ids)) + 1
			}
			key = appendID(key, v)
		}
		byKey[string(key)] = i
	}

	disj := make([][]condition.Condition, len(tuples))
	for _, row := range t.table.Rows() {
		if _, isFalse := row.Cond.(condition.FalseCond); isFalse {
			continue
		}
		if !slices.ContainsFunc(row.Terms, func(term condition.Term) bool { return term.IsVar }) {
			key = key[:0]
			for _, term := range row.Terms {
				key = appendID(key, term.Const)
			}
			if i, ok := byKey[string(key)]; ok {
				disj[i] = append(disj[i], row.Cond)
			}
			continue
		}
	match:
		for i, tp := range tuples {
			for j, term := range row.Terms {
				if !term.IsVar && term.Const != tp[j] {
					continue match
				}
			}
			conds := []condition.Condition{row.Cond}
			for j, term := range row.Terms {
				if term.IsVar {
					conds = append(conds, condition.Eq(term, condition.Const(tp[j])))
				}
			}
			disj[i] = append(disj[i], condition.And(conds...))
		}
	}

	out := make([]Candidate, 0, len(tuples))
	for i, tp := range tuples {
		lineage := condition.Simplify(condition.Or(disj[i]...))
		if _, isFalse := lineage.(condition.FalseCond); !isFalse {
			out = append(out, Candidate{Tuple: tp, Lineage: lineage})
		}
	}
	return out
}
