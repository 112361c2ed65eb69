package wal

import (
	"bytes"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/value"
)

func encodePatch(p *Patch) []byte { return []byte(parser.PatchScript(p)) }

func constRow(vals ...int64) PatchRow {
	terms := make([]condition.Term, len(vals))
	for i, v := range vals {
		terms[i] = condition.Const(value.Int(v))
	}
	return PatchRow{Terms: terms, Cond: condition.True()}
}

func TestApplyPatchSemantics(t *testing.T) {
	base := pctable.NewWithArity(2)
	base.AddConstRow(value.Tuple{value.Int(1), value.Int(10)}, nil)
	base.AddConstRow(value.Tuple{value.Int(2), value.Int(20)}, nil)
	base.AddConstRow(value.Tuple{value.Int(1), value.Int(10)}, nil) // duplicate of row 0

	p := &Patch{
		Deletes: []PatchRow{constRow(2, 20)},
		Upserts: []PatchRow{
			constRow(3, 30),
			constRow(1, 10), // already present: no-op
			constRow(3, 30), // duplicate upsert: single append
		},
	}
	ap, err := ApplyPatchToTable(base, p)
	if err != nil {
		t.Fatal(err)
	}
	if base.NumRows() != 3 {
		t.Fatalf("patch mutated the old table: %d rows", base.NumRows())
	}
	// Delete removes every row matching the identity; survivors keep order;
	// one new row is appended at the tail.
	if got, want := ap.New.NumRows(), 3; got != want {
		t.Fatalf("new table has %d rows, want %d", got, want)
	}
	if len(ap.RemovedRows) != 1 || ap.RemovedRows[0] != 1 {
		t.Fatalf("RemovedRows = %v, want [1]", ap.RemovedRows)
	}
	if ap.AddedRows != 1 {
		t.Fatalf("AddedRows = %d, want 1", ap.AddedRows)
	}
	last := ap.New.Table().Rows()[2]
	if RowKey(last.Terms, last.Cond) != RowKey(p.Upserts[0].Terms, p.Upserts[0].Cond) {
		t.Fatal("appended row is not the upserted row")
	}

	// Deleting one identity removes ALL rows carrying it.
	ap2, err := ApplyPatchToTable(base, &Patch{Deletes: []PatchRow{constRow(1, 10)}})
	if err != nil {
		t.Fatal(err)
	}
	if ap2.New.NumRows() != 1 || len(ap2.RemovedRows) != 2 {
		t.Fatalf("duplicate-identity delete: %d rows left, removed %v", ap2.New.NumRows(), ap2.RemovedRows)
	}
}

func TestApplyPatchArityAndDists(t *testing.T) {
	base := pctable.NewWithArity(1)
	base.AddRow([]condition.Term{condition.Var("y")}, nil)
	base.Table().SetDomain("y", value.NewDomain(value.Int(1), value.Int(2)))

	if _, err := ApplyPatchToTable(base, &Patch{Upserts: []PatchRow{constRow(1, 2)}}); err == nil {
		t.Fatal("arity mismatch must be rejected")
	}

	dist := prob.MustNewValueSpace(map[value.Value]float64{value.Int(1): 0.5, value.Int(2): 0.5})
	ap, err := ApplyPatchToTable(base, &Patch{Dists: []DistPatch{{Var: "y", Dist: dist}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ap.AddedDists) != 1 || ap.AddedDists[0] != "y" {
		t.Fatalf("AddedDists = %v, want [y]", ap.AddedDists)
	}
	if ap.New.Validate() != nil {
		t.Fatal("table with a patched-in distribution must validate")
	}
	// Distributions are add-only: re-attaching is rejected.
	if _, err := ApplyPatchToTable(ap.New, &Patch{Dists: []DistPatch{{Var: "y", Dist: dist}}}); err == nil {
		t.Fatal("changing an existing distribution must be rejected")
	}
	// The declared domain (wider or re-ordered) survives the patch exactly.
	var got []value.Value
	ap.New.EachDomain(func(x condition.Variable, dom *value.Domain) {
		if x == "y" {
			got = dom.Values()
		}
	})
	want := value.NewDomain(value.Int(1), value.Int(2)).Values()
	if len(got) != len(want) {
		t.Fatalf("declared domain changed: %v", got)
	}
}

// Patch application is deterministic and replay lands where the leader did:
// the golden-history states that include patch records re-derive byte-
// identically (the broad guarantee lives in the crash/golden suites; this
// pins the patch records specifically).
func TestPatchRecordsInHistoryReplay(t *testing.T) {
	recs, exports := testHistory(t, 12)
	sawPatch := false
	for _, rec := range recs {
		if rec.Kind == KindPatch {
			sawPatch = true
		}
	}
	if !sawPatch {
		t.Fatal("test history contains no patch records; the golden net has a hole")
	}
	st := replayState(t, recs, uint64(len(recs)))
	if !bytes.Equal(EncodeState(st), exports[len(recs)]) {
		t.Fatal("replay of a patch-bearing history is not byte-identical")
	}
}

func TestPatchRecordRoundTrip(t *testing.T) {
	recs, _ := testHistory(t, 12)
	for _, rec := range recs {
		if rec.Kind != KindPatch {
			continue
		}
		enc := EncodeRecord(rec)
		dec, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("patch record v%d: %v", rec.Version, err)
		}
		if dec.Patch == nil {
			t.Fatalf("patch record v%d decoded without payload", rec.Version)
		}
		if !bytes.Equal(encodePatch(dec.Patch), encodePatch(rec.Patch)) {
			t.Fatalf("patch record v%d: payload drifted across encode∘decode", rec.Version)
		}
	}
}

func TestDecodePatchRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{0xff},
		bytes.Repeat([]byte{0xff}, 32),
		// One delete row claiming a huge arity.
		{1, 0xff, 0xff, 0xff, 0x07},
	}
	for i, data := range cases {
		if _, err := DecodePatch(data); err == nil {
			t.Errorf("case %d: DecodePatch accepted garbage", i)
		}
	}
	// The renderer sorts distributions; decoding does not depend on their
	// order, so an unsorted script decodes to the same patch.
	two := prob.MustNewValueSpace(map[value.Value]float64{value.Int(1): 1})
	p := &Patch{Dists: []DistPatch{{Var: "b", Dist: two}, {Var: "a", Dist: two}}}
	enc := encodePatch(p)
	dec, err := DecodePatch(enc)
	if err != nil || len(dec.Dists) != 2 || dec.Dists[0].Var != "a" {
		t.Fatalf("sorted dists should decode: %v %+v", err, dec)
	}
	unsorted, err := DecodePatch([]byte("dist b={1:1}\ndist a={1:1}\n"))
	if err != nil || !bytes.Equal(encodePatch(unsorted), enc) {
		t.Fatalf("unsorted dists decode differently: %v %q vs %q", err, encodePatch(unsorted), enc)
	}
}

// FuzzPatchDecode locks down the patch decoder (the patch-script parser):
// arbitrary bytes never panic, anything that decodes re-encodes to a fixed
// point (encode ∘ decode is idempotent), and a patch that decodes applies
// totally — table application errors cleanly rather than panicking — to a
// table whose snapshot round-trips.
func FuzzPatchDecode(f *testing.F) {
	recs, _ := testHistory(f, 12)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	for _, rec := range recs {
		if rec.Kind == KindPatch {
			f.Add(encodePatch(rec.Patch))
			f.Add(EncodeRecord(rec))
		}
	}
	target := testTable(2) // arity 1, discrete dist
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePatch(data)
		if err != nil {
			return
		}
		e1 := encodePatch(p)
		p2, err := DecodePatch(e1)
		if err != nil {
			t.Fatalf("re-encoded patch does not decode: %v", err)
		}
		if e2 := encodePatch(p2); !bytes.Equal(e1, e2) {
			t.Fatal("encode ∘ decode is not a fixed point for patches")
		}
		// Application is total: arity mismatches and dist conflicts are
		// errors, never panics, and success yields a table whose canonical
		// encoding round-trips.
		ap, err := ApplyPatchToTable(target, p)
		if err != nil {
			return
		}
		st := &State{Version: 1, Tables: []TableState{{Name: "T", Version: 1, Table: ap.New}}}
		enc := EncodeState(st)
		st2, err := DecodeState(enc)
		if err != nil {
			t.Fatalf("patched table does not round-trip: %v", err)
		}
		if !bytes.Equal(EncodeState(st2), enc) {
			t.Fatal("patched table is not a fixed point of encode ∘ decode")
		}
	})
}

// A patch carries the old table's distributions and declared domains over
// by pointer, and a declared domain wins over the support of a distribution
// the patch adds. The old table is not mutated.
func TestApplyPatchCarriesDistsAndDomains(t *testing.T) {
	base := pctable.NewWithArity(1)
	base.AddRow([]condition.Term{condition.Var("x")}, nil)
	base.SetSpace("x", prob.MustNewValueSpace(map[value.Value]float64{value.Int(1): 0.5, value.Int(2): 0.5}))
	wide := value.NewDomain(value.Int(1), value.Int(2), value.Int(3))
	base.Table().SetDomain("w", wide)

	dist := prob.MustNewValueSpace(map[value.Value]float64{value.Int(1): 0.25, value.Int(2): 0.75})
	ap, err := ApplyPatchToTable(base, &Patch{
		Upserts: []PatchRow{{Terms: []condition.Term{condition.Var("w")}}},
		Dists:   []DistPatch{{Var: "w", Dist: dist}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ap.New.Dist("x") != base.Dist("x") || ap.New.Table().DomainOf("x") != base.Table().DomainOf("x") {
		t.Error("x's distribution or domain was rebuilt instead of carried over")
	}
	if ap.New.Dist("w") != dist || ap.New.Table().DomainOf("w") != wide {
		t.Errorf("w: distribution %v, domain %v; want the patch's distribution over the declared domain %v", ap.New.Dist("w"), ap.New.Table().DomainOf("w"), wide)
	}
	if base.Dist("w") != nil || base.NumRows() != 1 {
		t.Error("the patch mutated the old table")
	}
}
