package condition

import (
	"testing"

	"uncertaindb/internal/value"
)

func TestTermInternerRoundTrip(t *testing.T) {
	ti := NewTermInterner()
	terms := []Term{
		Var("x"),
		Var("y"),
		ConstInt(1),
		ConstInt(2),
		Const(value.Str("1")), // must not collide with ConstInt(1)
		Const(value.Bool(true)),
		Const(value.Null),
		Var("x"), // repeat: same ID as the first
	}
	ids := make([]TermID, len(terms))
	for i, tm := range terms {
		ids[i] = ti.Intern(tm)
	}
	if ti.Len() != 7 {
		t.Errorf("Len = %d, want 7 distinct terms", ti.Len())
	}
	if ids[0] != ids[7] {
		t.Errorf("re-interning x gave %d, first gave %d", ids[7], ids[0])
	}
	for i, tm := range terms {
		if got := ti.Resolve(ids[i]); got != tm {
			t.Errorf("Resolve(Intern(%s)) = %s", tm, got)
		}
		if ti.IsVar(ids[i]) != tm.IsVar {
			t.Errorf("IsVar(%s) = %v, want %v", tm, ti.IsVar(ids[i]), tm.IsVar)
		}
	}
	// Distinct terms must have distinct IDs.
	seen := make(map[TermID]Term)
	for i, tm := range terms[:7] {
		if prev, ok := seen[ids[i]]; ok && prev != tm {
			t.Errorf("terms %s and %s share ID %d", prev, tm, ids[i])
		}
		seen[ids[i]] = tm
	}
}

func TestTermInternerDenseIDs(t *testing.T) {
	ti := NewTermInterner()
	for i := int64(0); i < 100; i++ {
		if id := ti.Intern(ConstInt(i)); id != TermID(i) {
			t.Fatalf("Intern assigned ID %d to the %d-th fresh term", id, i)
		}
	}
}

// termDecoder derives an arbitrary term from fuzz bytes, covering variables
// and every constant kind.
func termDecoder(kind byte, i int64, s string) Term {
	switch kind % 5 {
	case 0:
		return Var(s)
	case 1:
		return ConstInt(i)
	case 2:
		return Const(value.Str(s))
	case 3:
		return Const(value.Bool(i%2 == 0))
	default:
		return Const(value.Null)
	}
}

// FuzzTermIntern checks the dictionary-encoding contract the batch engine
// relies on: interning then resolving any term round-trips exactly, and two
// terms receive the same ID if and only if they are structurally equal —
// the property that lets interned-ID comparison stand in for symbolic term
// equality on ground cells.
func FuzzTermIntern(f *testing.F) {
	f.Add(byte(0), int64(0), "x", byte(1), int64(1), "y")
	f.Add(byte(1), int64(7), "", byte(2), int64(7), "7")
	f.Add(byte(2), int64(-1), "a", byte(0), int64(3), "a")
	f.Add(byte(3), int64(2), "b", byte(3), int64(3), "b")
	f.Add(byte(4), int64(0), "", byte(4), int64(9), "z")
	f.Fuzz(func(t *testing.T, k1 byte, i1 int64, s1 string, k2 byte, i2 int64, s2 string) {
		a, b := termDecoder(k1, i1, s1), termDecoder(k2, i2, s2)
		ti := NewTermInterner()
		ia, ib := ti.Intern(a), ti.Intern(b)
		if got := ti.Resolve(ia); got != a {
			t.Fatalf("Resolve(Intern(%s)) = %s", a, got)
		}
		if got := ti.Resolve(ib); got != b {
			t.Fatalf("Resolve(Intern(%s)) = %s", b, got)
		}
		if (ia == ib) != (a == b) {
			t.Fatalf("ID equality %v but structural equality %v for %s vs %s", ia == ib, a == b, a, b)
		}
		if ti.IsVar(ia) != a.IsVar || ti.IsVar(ib) != b.IsVar {
			t.Fatalf("IsVar mismatch for %s / %s", a, b)
		}
		// Re-interning is stable.
		if ti.Intern(a) != ia || ti.Intern(b) != ib {
			t.Fatalf("re-interning changed IDs for %s / %s", a, b)
		}

		// A frozen parent plus an overlay behaves like one injective
		// interner: the overlay keeps the parent's IDs for the parent's
		// terms, numbers its own from parent.Len() on, and leaves the parent
		// untouched.
		c := termDecoder(k1^k2, i1+i2, s1+s2)
		parentLen := ti.Len()
		ov := Overlay(ti)
		terms := []Term{c, b, a, c}
		ids := make([]TermID, len(terms))
		for i, tm := range terms {
			ids[i] = ov.Intern(tm)
		}
		if ti.Len() != parentLen {
			t.Fatalf("overlay interning grew the parent from %d to %d terms", parentLen, ti.Len())
		}
		if ids[1] != ib || ids[2] != ia {
			t.Fatalf("overlay gave parent terms new IDs: %d,%d want %d,%d", ids[1], ids[2], ib, ia)
		}
		if c != a && c != b && int(ids[0]) != parentLen {
			t.Fatalf("overlay's first new term got ID %d, want %d", ids[0], parentLen)
		}
		for i, tm := range terms {
			if got := ov.Resolve(ids[i]); got != tm {
				t.Fatalf("overlay Resolve(Intern(%s)) = %s", tm, got)
			}
			if ov.IsVar(ids[i]) != tm.IsVar {
				t.Fatalf("overlay IsVar mismatch for %s", tm)
			}
			for j, um := range terms {
				if (ids[i] == ids[j]) != (tm == um) {
					t.Fatalf("overlay ID equality %v but structural equality %v for %s vs %s", ids[i] == ids[j], tm == um, tm, um)
				}
			}
		}
		distinct := map[Term]bool{a: true, b: true, c: true}
		if ov.Len() != len(distinct) {
			t.Fatalf("overlay Len = %d, want %d distinct terms", ov.Len(), len(distinct))
		}
	})
}

func TestOverlayOfNilIsPlain(t *testing.T) {
	ov := Overlay(nil)
	if id := ov.Intern(Var("x")); id != 0 || ov.Len() != 1 {
		t.Fatalf("Overlay(nil) first ID %d, Len %d", id, ov.Len())
	}
}
