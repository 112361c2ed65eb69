package condition

// This file dictionary-encodes terms: a TermInterner assigns every distinct
// term (variables by name, constants by value and kind) a stable small
// integer TermID, so a relation over terms can materialize as columnar
// []TermID vectors and term equality becomes a single integer compare. It is
// the sibling of Interner (which hash-conses whole conditions).
//
// The batch execution engine in internal/exec keeps one TermInterner per
// table version, built once when a query first reads that version and frozen
// from then on. A run layers a private Overlay over the dictionary of its
// largest input: the overlay resolves the parent's IDs unchanged and numbers
// the run's own new terms (other tables' terms, constant relations) after
// them, so the base table's encoded columns are used as they are and nothing
// is interned twice.
//
// TermIDs are only meaningful relative to the TermInterner that produced
// them (an overlay's IDs include its parent's). A TermInterner is not safe
// for concurrent interning, but once interning is done Resolve, IsVar and
// Len are read-only and safe to call from many goroutines. An overlay only
// reads its parent, so any number of concurrent runs may share one frozen
// parent.

// TermID identifies an interned term within one TermInterner. IDs are dense,
// starting at 0, in first-intern order.
type TermID uint32

// TermInterner dictionary-encodes terms.
type TermInterner struct {
	// parent, when non-nil, is the frozen dictionary this overlay extends:
	// IDs below base are the parent's.
	parent *TermInterner
	base   int
	ids    map[Term]TermID
	terms  []Term
}

// NewTermInterner returns an empty term dictionary.
func NewTermInterner() *TermInterner {
	return &TermInterner{ids: make(map[Term]TermID)}
}

// Overlay returns an empty dictionary layered over parent: a term the parent
// knows keeps the parent's ID, and new terms receive IDs from parent.Len()
// on. The parent is only read, and must not be interned into while the
// overlay is in use. A nil parent yields a plain empty dictionary; an
// overlay cannot itself be a parent.
func Overlay(parent *TermInterner) *TermInterner {
	if parent == nil {
		return NewTermInterner()
	}
	if parent.parent != nil {
		panic("condition: overlay over an overlay")
	}
	return &TermInterner{parent: parent, base: parent.Len(), ids: make(map[Term]TermID)}
}

// Intern returns the stable ID of t, assigning the next dense ID on first
// sight. Two terms receive the same ID exactly when they are structurally
// equal (same variable, or same constant value and kind).
func (ti *TermInterner) Intern(t Term) TermID {
	if ti.parent != nil {
		if id, ok := ti.parent.ids[t]; ok {
			return id
		}
	}
	if id, ok := ti.ids[t]; ok {
		return id
	}
	id := TermID(ti.base + len(ti.terms))
	ti.ids[t] = id
	ti.terms = append(ti.terms, t)
	return id
}

// Resolve returns the term with the given ID. It panics if id was not
// produced by this interner (or its parent).
func (ti *TermInterner) Resolve(id TermID) Term {
	if int(id) < ti.base {
		return ti.parent.terms[id]
	}
	return ti.terms[int(id)-ti.base]
}

// IsVar reports whether the interned term is a variable.
func (ti *TermInterner) IsVar(id TermID) bool {
	if int(id) < ti.base {
		return ti.parent.terms[id].IsVar
	}
	return ti.terms[int(id)-ti.base].IsVar
}

// Len returns the number of distinct terms interned so far, the parent's
// included.
func (ti *TermInterner) Len() int { return ti.base + len(ti.terms) }
