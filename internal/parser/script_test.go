package parser

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/value"
)

// scriptSeeds are the table and patch scripts FuzzScriptRoundTrip starts
// from: negative ints, zero-weight outcomes, a distribution on a variable no
// row mentions, dom-only c-tables, a declared domain wider than its
// distribution's support, nested ¬/∧/∨, strings only the quoted form can
// carry, and patches with delete, upsert and dist.
var scriptSeeds = []string{
	"table T arity 2\nrow -3, x | x = -1 || x != 0\nrow 'a', -9223372036854775808\ndist x = {-1: 0.25, 0: 0.75}\n",
	"table Z arity 1\nrow x\ndist x = {'a': 0, 'b': 1, 'c': 0}\n",
	"table U arity 1\nrow 'k' | g = true\ndist g = {true: 0.3, false: 0.7}\ndist unused = {1: 0.5, 2: 0.5}\n",
	"table C arity 2\nrow x, y | x != y\ndom x = {1, 2, 3}\ndom y = {'p', 'q'}\n",
	"table W arity 1\nrow y\ndist y = {1: 1}\ndom y = {1, 2, 42}\n",
	"table N arity 1\nrow 1 | !(x = 1 && (y = 2 || !(z = 3))) || (x = 2 && !(y != 1)) && true\nrow 2 | ¬(x ≠ 1) ∧ (y = 1 ∨ z = 2) ∧ false\n" +
		"dist x = {1: 0.1, 2: 0.9}\ndist y = {1: 0.5, 2: 0.5}\ndist z = {2: 0.3333333333333333, 3: 0.6666666666666667}\n",
	"table Q arity 2\nrow \"it's\\na \\\"trap\\\"\", null | s = \"\\xff\"\nrow '', false\ndist s = {'': 0.5, \"\\xff\": 0.5}\n",
	"delete 'Alice', x | x = 'phys'\nupsert 'Dana', -2\nupsert 'Eve', y | !(y = 'chem' || y = 'bio')\ndist y = {'bio': 0.125, 'chem': 0.875}\ndist d = {0: 0, 1: 1}\n",
}

// FuzzScriptRoundTrip checks that the canonical renderer inverts the
// parser: whatever table or patch a script parses to, rendering it and
// parsing the rendering rebuilds the same rows, condition trees, domains and
// float64 probability bits, and rendering is a fixed point.
func FuzzScriptRoundTrip(f *testing.F) {
	for _, s := range scriptSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if pt, err := ParseTableString(s); err == nil {
			checkTableRoundTrip(t, pt.Name, pt.PCTable)
		}
		if p, err := ParsePatchString(s); err == nil {
			checkPatchRoundTrip(t, p)
		}
	})
}

// checkTableRoundTrip asserts parse∘Script is the identity on t.
func checkTableRoundTrip(t *testing.T, name string, tab *pctable.PCTable) {
	t.Helper()
	script := Script(name, tab)
	back, err := ParseTableString(script)
	if err != nil {
		t.Fatalf("rendered table does not parse: %v\n%s", err, script)
	}
	if back.Name != name {
		t.Fatalf("name %q parsed back as %q", name, back.Name)
	}
	if err := sameTable(tab, back.PCTable); err != nil {
		t.Fatalf("%v\n%s", err, script)
	}
	if again := Script(name, back.PCTable); again != script {
		t.Fatalf("rendering is not a fixed point:\n%s\nvs\n%s", script, again)
	}
}

// checkPatchRoundTrip asserts parse∘PatchScript is the identity on p.
func checkPatchRoundTrip(t *testing.T, p *pctable.Patch) {
	t.Helper()
	script := PatchScript(p)
	back, err := ParsePatchString(script)
	if err != nil {
		t.Fatalf("rendered patch does not parse: %v\n%s", err, script)
	}
	if err := sameRows("delete", p.Deletes, back.Deletes); err != nil {
		t.Fatal(err)
	}
	if err := sameRows("upsert", p.Upserts, back.Upserts); err != nil {
		t.Fatal(err)
	}
	want := append([]pctable.DistPatch(nil), p.Dists...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Var < want[j].Var })
	if len(back.Dists) != len(want) {
		t.Fatalf("%d dists parsed back as %d", len(want), len(back.Dists))
	}
	for i, dp := range back.Dists {
		if dp.Var != want[i].Var {
			t.Fatalf("dist %d on %s parsed back on %s", i, want[i].Var, dp.Var)
		}
		if err := sameSpace(dp.Var, want[i].Dist, dp.Dist); err != nil {
			t.Fatal(err)
		}
	}
	if again := PatchScript(back); again != script {
		t.Fatalf("patch rendering is not a fixed point:\n%s\nvs\n%s", script, again)
	}
}

// sameTable compares two tables structurally: rows (terms and condition
// trees, a root condition of true standing for none), declared domains, and
// the float64 bits of every declared outcome.
func sameTable(a, b *pctable.PCTable) error {
	if a.Arity() != b.Arity() {
		return fmt.Errorf("arity %d parsed back as %d", a.Arity(), b.Arity())
	}
	if err := sameRows("row", patchRows(a), patchRows(b)); err != nil {
		return err
	}
	domains := func(t *pctable.PCTable) map[condition.Variable][]value.Value {
		m := map[condition.Variable][]value.Value{}
		t.EachDomain(func(x condition.Variable, d *value.Domain) { m[x] = d.Values() })
		return m
	}
	if da, db := domains(a), domains(b); !reflect.DeepEqual(da, db) {
		return fmt.Errorf("domains %v parsed back as %v", da, db)
	}
	count := 0
	var err error
	a.EachDist(func(x condition.Variable, s *prob.Space) {
		count++
		if err == nil {
			err = sameSpace(string(x), s, b.Dist(x))
		}
	})
	b.EachDist(func(condition.Variable, *prob.Space) { count-- })
	if err == nil && count != 0 {
		err = fmt.Errorf("distribution count changed by %d", -count)
	}
	return err
}

func patchRows(t *pctable.PCTable) []pctable.PatchRow {
	var rows []pctable.PatchRow
	for _, r := range t.Table().Rows() {
		rows = append(rows, pctable.PatchRow{Terms: r.Terms, Cond: r.Cond})
	}
	return rows
}

func sameRows(what string, a, b []pctable.PatchRow) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d %s rows parsed back as %d", len(a), what, len(b))
	}
	root := func(c condition.Condition) condition.Condition {
		if c == nil {
			return condition.True()
		}
		return c
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Terms, b[i].Terms) || !reflect.DeepEqual(root(a[i].Cond), root(b[i].Cond)) {
			return fmt.Errorf("%s %d: %v | %v parsed back as %v | %v", what, i, a[i].Terms, a[i].Cond, b[i].Terms, b[i].Cond)
		}
	}
	return nil
}

func sameSpace(x string, a, b *prob.Space) error {
	if a == nil || b == nil || a.Size() != b.Size() {
		return fmt.Errorf("distribution of %s: %v parsed back as %v", x, a, b)
	}
	for i, o := range a.Outcomes() {
		ob := b.Outcomes()[i]
		if o.ValuePayload() != ob.ValuePayload() || math.Float64bits(o.P) != math.Float64bits(ob.P) {
			return fmt.Errorf("distribution of %s: outcome %v:%v parsed back as %v:%v", x, o.ValuePayload(), o.P, ob.ValuePayload(), ob.P)
		}
	}
	return nil
}

// Tables built through the Go API hold what no script a user writes does:
// strings with quotes and line breaks, invalid UTF-8, nulls, junctions the
// parser never builds nested, negative zero and subnormal probabilities.
func TestScriptRoundTripGoTables(t *testing.T) {
	tab := pctable.NewWithArity(3)
	tab.AddConstRow(value.Tuple{value.Str("it's\na \"trap\"\r"), value.Null, value.Str("\xff|#")}, nil)
	tab.AddRow([]condition.Term{condition.Var("x"), condition.Const(value.Str("a|b")), condition.Var("_y2")},
		condition.Or(
			condition.And(condition.EqVarConst("x", value.Int(1)), condition.And(condition.True(), condition.False())),
			condition.Or(condition.Not(condition.Not(condition.Neq(condition.Var("x"), condition.Var("_y2")))), condition.Eq(condition.Const(value.Null), condition.Var("x"))),
		))
	tab.SetDist("x", map[value.Value]float64{value.Int(1): math.Copysign(0, -1), value.Int(2): 1 - 5e-324, value.Int(3): 5e-324})
	tab.SetDist("_y2", map[value.Value]float64{value.Int(1): 0.1, value.Int(2): 0.2, value.Int(3): 0.7})
	tab.Table().SetDomain("_y2", value.NewDomain(value.Int(3), value.Int(9)))
	checkTableRoundTrip(t, "Go_Table", tab)

	p := &pctable.Patch{
		Deletes: []pctable.PatchRow{{Terms: []condition.Term{condition.Const(value.Str("'"))}, Cond: condition.True()}},
		Upserts: []pctable.PatchRow{{Terms: []condition.Term{condition.Var("v")}, Cond: condition.And(condition.IsTrueVar("v"), condition.Not(condition.IsFalseVar("v")))}},
	}
	checkPatchRoundTrip(t, p)
	if PatchScript(&pctable.Patch{}) != "" {
		t.Fatal("the empty patch must render as the empty script")
	}
}

func TestCheckScriptable(t *testing.T) {
	ok := pctable.NewWithArity(1)
	ok.AddRow([]condition.Term{condition.Var("x_1")}, nil)
	if err := CheckScriptable("Orders", ok); err != nil {
		t.Fatal(err)
	}
	if err := CheckScriptable("two words", ok); err == nil {
		t.Error("a table name with a space must be refused")
	}
	for _, bad := range []string{"", "x y", "1x", "true", "NULL", "a-b", "x'"} {
		tab := pctable.NewWithArity(1)
		tab.AddRow([]condition.Term{condition.Const(value.Int(1))}, condition.EqVarConst(bad, value.Int(1)))
		if err := CheckScriptable("T", tab); err == nil {
			t.Errorf("variable %q must be refused", bad)
		}
		if err := CheckPatchScriptable(&pctable.Patch{Upserts: []pctable.PatchRow{{Terms: []condition.Term{condition.Var(bad)}}}}); err == nil {
			t.Errorf("patch variable %q must be refused", bad)
		}
	}
}

// A rendered row longer than bufio.Scanner's default 64 KiB token limit
// still parses: recovery must read back every row the WAL could frame.
func TestParseLongRow(t *testing.T) {
	long := strings.Repeat("x", 100<<10)
	if pt, err := ParseTableString("table L arity 1\nrow '" + long + "'\n"); err != nil || pt.CTable.NumRows() != 1 {
		t.Fatalf("table with a %d-byte row: %v", len(long), err)
	}
	tab := pctable.NewWithArity(1)
	tab.AddConstRow(value.Tuple{value.Str(long)}, nil)
	checkTableRoundTrip(t, "Long", tab)
	tables, err := ParseCatalogString(Script("A", tab) + Script("B", tab))
	if err != nil || len(tables) != 2 {
		t.Fatalf("catalog of long rows: %v", err)
	}
	p, err := ParsePatchString("upsert '" + long + "'\n")
	if err != nil || p.Upserts[0].Terms[0].Const.AsString() != long {
		t.Fatalf("patch of a long row: %v", err)
	}
}
