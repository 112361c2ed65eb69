package wal

import (
	"encoding/binary"
	"fmt"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/value"
)

// The patch types live in pctable, below the parser that reads and writes
// them; these aliases keep the names the WAL and its callers use.
type (
	Patch     = pctable.Patch
	PatchRow  = pctable.PatchRow
	DistPatch = pctable.DistPatch
)

// AppendRowKey appends the canonical identity bytes of a row: term count,
// terms, condition — the exact trees, no simplification. The bytes are
// compared in memory and never persisted.
func AppendRowKey(b []byte, terms []condition.Term, cond condition.Condition) []byte {
	b = appendUvarint(b, uint64(len(terms)))
	for _, t := range terms {
		b = appendTerm(b, t)
	}
	return appendCondition(b, cond)
}

// RowKey returns the canonical identity of a row as a string, usable as a
// map key.
func RowKey(terms []condition.Term, cond condition.Condition) string {
	return string(AppendRowKey(nil, terms, cond))
}

// TermsKey returns the canonical identity of a term tuple alone (no
// condition), usable as a map key. Unlike condition.Interner term keys it is
// stable across processes and calls, so group indexes built from it can be
// cached and extended incrementally.
func TermsKey(terms []condition.Term) string {
	b := appendUvarint(make([]byte, 0, 8+12*len(terms)), uint64(len(terms)))
	for _, t := range terms {
		b = appendTerm(b, t)
	}
	return string(b)
}

// ---- row identity encoding ----

func appendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

const (
	valNull byte = 0
	valInt  byte = 1
	valStr  byte = 2
	valBool byte = 3
)

func appendValue(b []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindInt:
		b = append(b, valInt)
		return binary.AppendVarint(b, v.AsInt())
	case value.KindString:
		b = append(b, valStr)
		return appendString(b, v.AsString())
	case value.KindBool:
		b = append(b, valBool)
		return appendBool(b, v.AsBool())
	default:
		return append(b, valNull)
	}
}

func appendTerm(b []byte, t condition.Term) []byte {
	if t.IsVar {
		b = append(b, 1)
		return appendString(b, string(t.Var))
	}
	b = append(b, 0)
	return appendValue(b, t.Const)
}

const (
	condTrue  byte = 0
	condFalse byte = 1
	condCmp   byte = 2
	condAnd   byte = 3
	condOr    byte = 4
	condNot   byte = 5
)

// appendCondition encodes the condition tree exactly as structured — no
// re-association, no sorting — so two rows share a key only when their trees
// are identical.
func appendCondition(b []byte, c condition.Condition) []byte {
	switch c := c.(type) {
	case nil:
		return append(b, condTrue)
	case condition.TrueCond:
		return append(b, condTrue)
	case condition.FalseCond:
		return append(b, condFalse)
	case condition.Cmp:
		b = append(b, condCmp)
		b = appendTerm(b, c.Left)
		b = appendBool(b, c.Neq)
		return appendTerm(b, c.Right)
	case condition.AndCond:
		b = append(b, condAnd)
		b = appendUvarint(b, uint64(len(c.Conds)))
		for _, sub := range c.Conds {
			b = appendCondition(b, sub)
		}
		return b
	case condition.OrCond:
		b = append(b, condOr)
		b = appendUvarint(b, uint64(len(c.Conds)))
		for _, sub := range c.Conds {
			b = appendCondition(b, sub)
		}
		return b
	case condition.NotCond:
		b = append(b, condNot)
		return appendCondition(b, c.Cond)
	default:
		// The condition grammar is closed; anything else is a programming
		// error worth surfacing loudly.
		panic(fmt.Sprintf("wal: cannot encode condition of type %T", c))
	}
}

// DecodePatch decodes a patch script (parser.PatchScript renders one; the
// empty script is the empty patch). Arbitrary bytes yield an error, not a panic.
func DecodePatch(b []byte) (*Patch, error) {
	if len(b) == 0 {
		return &Patch{}, nil
	}
	p, err := parser.ParsePatchString(string(b))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return p, nil
}

// AppliedPatch is the result of applying a patch to a table: the new table
// plus the exact row-level difference, from which the catalog records how
// the table changed (catalog.Entry's change versions).
type AppliedPatch struct {
	New *pctable.PCTable
	// RemovedRows are the indices (into the old table's rows, ascending) of
	// the rows the patch deleted.
	RemovedRows []int
	// AddedRows is how many rows the patch appended at New's tail. New's rows
	// are the old table's survivors in order followed by exactly these
	// appends.
	AddedRows int
	// AddedDists names the variables that received a distribution.
	AddedDists []string
}

// InsertOnly reports whether the applied difference is a pure tail append:
// no rows removed and no distributions added. (A patch with deletes that
// matched nothing still applies insert-only.)
func (ap *AppliedPatch) InsertOnly() bool {
	return len(ap.RemovedRows) == 0 && len(ap.AddedDists) == 0
}

// RowKeySet is the set of canonical row identities (RowKey) of one table's
// rows — the membership index patch application needs for delete matching
// and upsert deduplication. Building it costs one pass over the table;
// ApplyPatchToTableKeyed then extends it per patch in O(patch), which is what
// makes a row-level patch O(Δ) instead of O(table). A set is only valid for
// the exact table it was built from (or evolved alongside); the catalog keeps
// one per entry and drops it whenever the table is replaced wholesale.
type RowKeySet struct {
	m map[string]bool
}

// NewRowKeySet indexes the canonical row identities of t.
func NewRowKeySet(t *pctable.PCTable) *RowKeySet {
	s := &RowKeySet{m: make(map[string]bool, t.NumRows())}
	for _, row := range t.Table().Rows() {
		s.m[RowKey(row.Terms, row.Cond)] = true
	}
	return s
}

// ApplyPatchToTable applies a patch to a table, returning the new table and
// the row-level difference. It is a pure deterministic function of
// (old, patch) — the leader, every follower, and log replay all call it, so
// they land on byte-identical tables. The old table is not mutated.
func ApplyPatchToTable(old *pctable.PCTable, p *Patch) (*AppliedPatch, error) {
	ap, _, err := ApplyPatchToTableKeyed(old, p, nil)
	return ap, err
}

// ApplyPatchToTableKeyed is ApplyPatchToTable reusing (and evolving) a
// row-key set: keys must be the key set of old's rows, or nil to build it
// here. It returns the key set of the NEW table's rows alongside the applied
// difference; when no delete matched, the input set is extended in place and
// returned, so a caller caching the set per table (the catalog) pays the
// O(table) indexing cost once and O(patch) per patch after that. On error the
// input set may have been partially extended and must be discarded.
//
// The new table shares everything unchanged with the old one: the row slice
// is copied (the Row structs, not the term slices or condition trees), and
// the distribution and domain pointers are carried over as they are — never
// rebuilt, and never found by scanning rows for variables.
func ApplyPatchToTableKeyed(old *pctable.PCTable, p *Patch, keys *RowKeySet) (*AppliedPatch, *RowKeySet, error) {
	arity := old.Arity()
	for _, r := range p.Deletes {
		if len(r.Terms) != arity {
			return nil, nil, fmt.Errorf("wal: patch delete row has arity %d, table has %d", len(r.Terms), arity)
		}
	}
	for _, r := range p.Upserts {
		if len(r.Terms) != arity {
			return nil, nil, fmt.Errorf("wal: patch upsert row has arity %d, table has %d", len(r.Terms), arity)
		}
	}
	if keys == nil {
		keys = NewRowKeySet(old)
	}
	anyDelete := false
	for _, r := range p.Deletes {
		if keys.m[RowKey(r.Terms, r.Cond)] {
			anyDelete = true
			break
		}
	}

	oldRows := old.Table().Rows()
	ap := &AppliedPatch{}
	var outRows []ctable.Row
	if !anyDelete {
		// No delete matches a row: survivors are exactly the old rows, so the
		// old key set doubles as the upsert presence index and row identity
		// never has to be recomputed for unchanged rows.
		outRows = make([]ctable.Row, len(oldRows), len(oldRows)+len(p.Upserts))
		copy(outRows, oldRows)
		for _, r := range p.Upserts {
			k := RowKey(r.Terms, r.Cond)
			if keys.m[k] {
				continue
			}
			keys.m[k] = true
			outRows = append(outRows, ctable.NewRow(r.Terms, r.Cond))
			ap.AddedRows++
		}
	} else {
		del := make(map[string]bool, len(p.Deletes))
		for _, r := range p.Deletes {
			del[RowKey(r.Terms, r.Cond)] = true
		}
		present := make(map[string]bool, len(oldRows))
		outRows = make([]ctable.Row, 0, len(oldRows)+len(p.Upserts))
		for i, row := range oldRows {
			k := RowKey(row.Terms, row.Cond)
			if del[k] {
				ap.RemovedRows = append(ap.RemovedRows, i)
				continue
			}
			present[k] = true
			outRows = append(outRows, row)
		}
		for _, r := range p.Upserts {
			k := RowKey(r.Terms, r.Cond)
			if present[k] {
				continue
			}
			present[k] = true
			outRows = append(outRows, ctable.NewRow(r.Terms, r.Cond))
			ap.AddedRows++
		}
		keys = &RowKeySet{m: present}
	}
	// Distributions and declared domains: share the old table's pointers,
	// then attach the patch's new spaces — add-only, so every marginal
	// memoized against the old distributions stays valid.
	out := old.WithRows(outRows)
	ap.New = out
	for _, dp := range p.Dists {
		if out.Dist(condition.Variable(dp.Var)) != nil {
			return nil, nil, fmt.Errorf("wal: patch adds a distribution for %s, which already has one (replace the table to change a distribution)", dp.Var)
		}
		out.SetSpace(dp.Var, dp.Dist)
		ap.AddedDists = append(ap.AddedDists, dp.Var)
		// A declared domain wins over the new distribution's support, as in
		// a table script (dom lines follow dist lines).
		if dom := old.Table().DomainOf(condition.Variable(dp.Var)); dom != nil {
			out.Table().SetDomain(dp.Var, dom)
		}
	}
	return ap, keys, nil
}
