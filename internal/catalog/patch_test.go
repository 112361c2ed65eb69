package catalog

import (
	"fmt"
	"strings"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/value"
	"uncertaindb/internal/wal"
)

func TestApplyPatchVersioningAndIsolation(t *testing.T) {
	c := New()
	base := pctable.NewWithArity(1)
	base.SetBoolDist("g", 0.3)
	base.AddConstRow(value.Ints(1), condition.IsTrueVar("g"))
	if _, err := c.Put("A", base); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()

	p := &wal.Patch{Upserts: []wal.PatchRow{{
		Terms: []condition.Term{condition.Const(value.Int(2))},
		Cond:  condition.IsTrueVar("g"),
	}}}
	v, ap, err := c.ApplyPatch("A", p)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("version after patch = %d, want 2", v)
	}
	if ap.AddedRows != 1 || len(ap.RemovedRows) != 0 {
		t.Fatalf("applied diff = %+v, want one append", ap)
	}
	if e := before.Get("A"); e.Version != 1 || e.Table.NumRows() != 1 {
		t.Fatal("old snapshot must keep the unpatched table (snapshot isolation)")
	}
	after := c.Snapshot().Get("A")
	if after.Version != 2 || after.Table.NumRows() != 2 || !after.Probabilistic {
		t.Fatalf("patched entry = %+v, want version 2 with 2 rows", after)
	}

	// The mutation enters the change feed as a KindPatch record that a
	// second catalog can apply, landing on the identical table.
	w, err := c.Watch(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	follower := New()
	for i := 0; i < 2; i++ {
		rec := <-w.C()
		fap, err := follower.ApplyRecord(rec)
		if err != nil {
			t.Fatalf("apply record v%d: %v", rec.Version, err)
		}
		if (rec.Kind == wal.KindPatch) != (fap != nil) {
			t.Fatalf("record v%d: AppliedPatch presence mismatch", rec.Version)
		}
	}
	lState, fState := wal.EncodeState(c.State()), wal.EncodeState(follower.State())
	if string(lState) != string(fState) {
		t.Fatal("follower applying the patch record diverged from the leader")
	}
}

func TestApplyPatchErrors(t *testing.T) {
	c := New()
	if _, _, err := c.ApplyPatch("ghost", &wal.Patch{}); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("patch of unknown table: err = %v", err)
	}
	// A table whose row really references its distributed variable.
	base := pctable.NewWithArity(1)
	base.SetBoolDist("g", 0.3)
	base.AddConstRow(value.Ints(1), condition.IsTrueVar("g"))
	if _, err := c.Put("A", base); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ApplyPatch("A", nil); err == nil {
		t.Fatal("nil patch must be rejected")
	}
	// A patch introducing a variable without a distribution leaves the table
	// partially probabilistic — rejected like Put, catalog unchanged.
	bad := &wal.Patch{Upserts: []wal.PatchRow{{
		Terms: []condition.Term{condition.Var("z")},
		Cond:  nil,
	}}}
	if _, _, err := c.ApplyPatch("A", bad); err == nil {
		t.Fatal("partial-distribution patch must be rejected")
	}
	if got := c.Version(); got != 1 {
		t.Fatalf("failed patch bumped the version to %d", got)
	}
}

// Tables and patches are persisted and replicated as scripts, so a name or
// variable a script cannot carry is refused up front rather than written
// into a log record that recovery could not read back.
func TestUnscriptableNamesRefused(t *testing.T) {
	c := New()
	bad := pctable.NewWithArity(1)
	bad.AddRow([]condition.Term{condition.Var("two words")}, nil)
	if _, err := c.Put("A", bad); err == nil {
		t.Fatal("a variable named with a space must be refused")
	}
	ok := pctable.NewWithArity(1)
	ok.AddConstRow(value.Ints(1), nil)
	if _, err := c.Put("A B", ok); err == nil {
		t.Fatal("a table name with a space must be refused")
	}
	if _, err := c.Put("A", ok); err != nil {
		t.Fatal(err)
	}
	p := &wal.Patch{Deletes: []wal.PatchRow{{Terms: []condition.Term{condition.Var("true")}}}}
	if _, _, err := c.ApplyPatch("A", p); err == nil {
		t.Fatal("a patch variable named like a literal must be refused")
	}
	p = &wal.Patch{Upserts: []wal.PatchRow{{Terms: []condition.Term{condition.ConstInt(1)}, Cond: condition.EqVarConst("a b", value.Int(1))}}}
	if _, _, err := c.ApplyPatch("A", p); err == nil {
		t.Fatal("a condition variable with a space must be refused")
	}
	if c.Version() != 1 {
		t.Fatalf("refused mutations moved the catalog to version %d", c.Version())
	}
}

// BenchmarkApplyPatchUpsert times a 1-row upsert on a 2 000-row table with
// 96 distributions (80 three-valued cell variables, 16 Bernoulli guards):
// the per-patch cost of the catalog, which should not grow with the number
// of distributions the table carries.
func BenchmarkApplyPatchUpsert(b *testing.B) {
	var s strings.Builder
	s.WriteString("table Orders arity 3\n")
	cellVars := 0
	for i := 0; i < 2000; i++ {
		item := fmt.Sprintf("'i%02d'", i%40)
		if i%25 == 7 {
			item = fmt.Sprintf("x%d", cellVars)
			cellVars++
		}
		fmt.Fprintf(&s, "row %d, 'c%03d', %s", 1000+i, i%200, item)
		if i%10 == 3 {
			fmt.Fprintf(&s, " | g%d = 1", i%16)
		}
		s.WriteByte('\n')
	}
	for g := 0; g < 16; g++ {
		fmt.Fprintf(&s, "dist g%d = {0:0.4, 1:0.6}\n", g)
	}
	for x := 0; x < cellVars; x++ {
		fmt.Fprintf(&s, "dist x%d = {'i%02d':0.5, 'i%02d':0.25, 'i%02d':0.25}\n", x, x%40, (x+1)%40, (x+2)%40)
	}
	c := New()
	if _, err := c.LoadScript(strings.NewReader(s.String())); err != nil {
		b.Fatal(err)
	}
	patches := make([]*wal.Patch, b.N)
	for i := range patches {
		patches[i] = &wal.Patch{Upserts: []wal.PatchRow{{Terms: []condition.Term{
			condition.Const(value.Int(int64(100000 + i))), condition.Const(value.Str("cpatch")), condition.Const(value.Str("i07")),
		}}}}
	}
	if _, _, err := c.ApplyPatch("Orders", patches[0]); err != nil { // index the row keys once
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i < b.N; i++ {
		if _, _, err := c.ApplyPatch("Orders", patches[i]); err != nil {
			b.Fatal(err)
		}
	}
}
