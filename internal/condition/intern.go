package condition

import "slices"

// This file implements hash-consing of conditions: an Interner assigns every
// structurally distinct condition a stable small integer ID and a 64-bit
// structural hash, so equality of interned conditions is an integer compare
// and maps can be keyed by ID instead of rendered strings. Conjunctions and
// disjunctions are canonicalized by sorting their children's IDs, so
// syntactic permutations of the same junction share one node, without
// building any strings.
//
// Interners are scoped, not global: the circuit compiler in internal/probcalc
// owns one per compiler (its memo keys and junction cache), and the engine's
// auto selector one per selection (its per-lineage variable sets). IDs are
// only meaningful relative to the Interner that produced them.

// ID identifies an interned condition node within one Interner. The zero ID
// is never assigned; TrueCond and FalseCond always intern to TrueID and
// FalseID.
type ID uint32

// Reserved IDs.
const (
	// NoID is the zero ID; no interned condition has it.
	NoID ID = 0
	// TrueID is the ID of TrueCond in every Interner.
	TrueID ID = 1
	// FalseID is the ID of FalseCond in every Interner.
	FalseID ID = 2
)

// internKind discriminates interned node shapes.
type internKind uint8

const (
	kindTrue internKind = iota
	kindFalse
	kindEq
	kindNeq
	kindNot
	kindAnd
	kindOr
	kindOpaque // unknown Condition implementations, identified by rendering
)

// internNode is one hash-consed condition node.
type internNode struct {
	kind internKind
	// a, b are the term IDs of a comparison; a is the child ID of a
	// negation or the rendering ID of an opaque node.
	a, b uint32
	// kids are the sorted child IDs of a conjunction/disjunction.
	kids []ID
	hash uint64
}

// Interner hash-conses conditions. Not safe for concurrent use; every
// consumer owns its own Interner (they are cheap to create).
type Interner struct {
	terms   map[Term]uint32
	opaque  map[string]uint32
	nodes   []internNode
	buckets map[uint64][]ID
	kidbuf  []ID
	vars    map[ID][]Variable
}

// NewInterner returns an empty Interner with the constants pre-interned.
func NewInterner() *Interner {
	in := &Interner{
		terms:   make(map[Term]uint32),
		buckets: make(map[uint64][]ID),
		// nodes[0] is a placeholder so IDs index nodes directly.
		nodes: make([]internNode, 1, 16),
	}
	in.nodes = append(in.nodes,
		internNode{kind: kindTrue, hash: hashNode(kindTrue, 0, 0, nil)},
		internNode{kind: kindFalse, hash: hashNode(kindFalse, 0, 0, nil)},
	)
	in.buckets[in.nodes[TrueID].hash] = append(in.buckets[in.nodes[TrueID].hash], TrueID)
	in.buckets[in.nodes[FalseID].hash] = append(in.buckets[in.nodes[FalseID].hash], FalseID)
	return in
}

// Len returns the number of distinct condition nodes interned so far
// (including the two constants).
func (in *Interner) Len() int { return len(in.nodes) - 1 }

// ID returns the stable identifier of c's hash-consed node, interning any
// structure not seen before. Two conditions get the same ID exactly when
// they are structurally identical up to permutation of conjuncts/disjuncts.
// The walk allocates nothing once c's nodes are interned.
func (in *Interner) ID(c Condition) ID {
	switch c := c.(type) {
	case TrueCond:
		return TrueID
	case FalseCond:
		return FalseID
	case Cmp:
		kind := kindEq
		if c.Neq {
			kind = kindNeq
		}
		return in.intern(kind, in.termID(c.Left), in.termID(c.Right), nil)
	case NotCond:
		return in.intern(kindNot, uint32(in.ID(c.Cond)), 0, nil)
	case AndCond:
		return in.junction(kindAnd, c.Conds)
	case OrCond:
		return in.junction(kindOr, c.Conds)
	default:
		// The Condition interface is closed (unexported method), but stay
		// total: identify unknown nodes by their rendering.
		return in.intern(kindOpaque, in.opaqueID(c.String()), 0, nil)
	}
}

// Vars returns the sorted variables of c, cached under c's hash-consed ID:
// a subcondition shared across many conditions (join lineage, group
// conditions) pays the variable walk, map build and sort once per Interner
// instead of once per occurrence. The returned slice is shared — callers
// must not mutate it.
func (in *Interner) Vars(c Condition) []Variable {
	id := in.ID(c)
	if v, ok := in.vars[id]; ok {
		return v
	}
	v := Vars(c)
	if in.vars == nil {
		in.vars = make(map[ID][]Variable)
	}
	in.vars[id] = v
	return v
}

// Hash returns the structural hash of c (the hash of its interned node).
// Conditions with equal IDs have equal hashes; distinct IDs collide only
// with the usual 64-bit probability.
func (in *Interner) Hash(c Condition) uint64 { return in.nodes[in.ID(c)].hash }

// Equal reports whether a and b intern to the same node — structural
// equality up to junct permutation. Interning is linear in the condition
// size; comparing two already-interned IDs is a single integer compare.
func (in *Interner) Equal(a, b Condition) bool { return in.ID(a) == in.ID(b) }

// AndID interns the conjunction whose children already have the given IDs,
// without walking any condition structure: callers that cache child IDs (the
// circuit compiler identifies shared junctions by their backing array)
// intern a junction in O(children) instead of O(condition size). kids is not
// retained or mutated.
func (in *Interner) AndID(kids []ID) ID { return in.junctionIDs(kindAnd, kids) }

// OrID is AndID for disjunctions.
func (in *Interner) OrID(kids []ID) ID { return in.junctionIDs(kindOr, kids) }

func (in *Interner) junctionIDs(kind internKind, kids []ID) ID {
	start := len(in.kidbuf)
	in.kidbuf = append(in.kidbuf, kids...)
	buf := in.kidbuf[start:]
	slices.Sort(buf)
	id := in.intern(kind, 0, 0, buf)
	in.kidbuf = in.kidbuf[:start]
	return id
}

// junction interns a conjunction or disjunction: children first, then the
// node under the sorted child-ID list. The child IDs are staged in a shared
// buffer so warm interning allocates nothing.
func (in *Interner) junction(kind internKind, juncts []Condition) ID {
	start := len(in.kidbuf)
	for _, j := range juncts {
		id := in.ID(j) // may grow and restore kidbuf beyond start
		in.kidbuf = append(in.kidbuf, id)
	}
	kids := in.kidbuf[start:]
	slices.Sort(kids)
	id := in.intern(kind, 0, 0, kids)
	in.kidbuf = in.kidbuf[:start]
	return id
}

// intern returns the ID of the node (kind, a, b, kids), adding it if new.
// kids may alias a shared buffer; it is copied on insertion.
func (in *Interner) intern(kind internKind, a, b uint32, kids []ID) ID {
	h := hashNode(kind, a, b, kids)
	for _, id := range in.buckets[h] {
		n := &in.nodes[id]
		if n.kind == kind && n.a == a && n.b == b && slices.Equal(n.kids, kids) {
			return id
		}
	}
	id := ID(len(in.nodes))
	in.nodes = append(in.nodes, internNode{kind: kind, a: a, b: b, kids: slices.Clone(kids), hash: h})
	in.buckets[h] = append(in.buckets[h], id)
	return id
}

// termID interns a term (Term is comparable: variables by name, constants by
// value and kind).
func (in *Interner) termID(t Term) uint32 {
	if id, ok := in.terms[t]; ok {
		return id
	}
	id := uint32(len(in.terms)) + 1
	in.terms[t] = id
	return id
}

// opaqueID interns the rendering of an unknown condition type.
func (in *Interner) opaqueID(s string) uint32 {
	if in.opaque == nil {
		in.opaque = make(map[string]uint32)
	}
	if id, ok := in.opaque[s]; ok {
		return id
	}
	id := uint32(len(in.opaque)) + 1
	in.opaque[s] = id
	return id
}

// TermsKey returns a compact map key identifying a tuple of terms: two
// slices map to the same key exactly when they are componentwise identical.
// The key packs 32-bit interned term IDs, so building it does no rendering —
// this is what the projection breaker groups its disjunctive merges by.
func (in *Interner) TermsKey(terms []Term) string {
	buf := make([]byte, 0, 4*len(terms))
	for _, t := range terms {
		id := in.termID(t)
		buf = append(buf, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return string(buf)
}

// FNV-1a constants for the structural hash.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func mix(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime
	return h
}

func hashNode(kind internKind, a, b uint32, kids []ID) uint64 {
	h := mix(fnvOffset, uint64(kind)+1)
	h = mix(h, uint64(a))
	h = mix(h, uint64(b))
	for _, k := range kids {
		h = mix(h, uint64(k))
	}
	return h
}
