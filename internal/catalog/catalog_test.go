package catalog

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/value"
	"uncertaindb/internal/wal"
)

// boolTable is a one-row table declaring a Bernoulli variable named after
// p, so tables of different p never give one variable two distributions.
func boolTable(p float64) *pctable.PCTable {
	t := pctable.NewWithArity(1)
	t.SetBoolDist(fmt.Sprintf("g%d", int(p*100)), p)
	t.AddConstRow(value.Ints(1), nil)
	return t
}

func TestPutGetVersioning(t *testing.T) {
	c := New()
	if c.Version() != 0 {
		t.Fatalf("fresh catalog version = %d, want 0", c.Version())
	}
	v1, err := c.Put("A", boolTable(0.3))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Put("B", boolTable(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 1 || v2 != 2 {
		t.Errorf("versions = %d, %d; want 1, 2", v1, v2)
	}
	snap := c.Snapshot()
	if snap.Version() != 2 || snap.Len() != 2 {
		t.Errorf("snapshot version=%d len=%d, want 2, 2", snap.Version(), snap.Len())
	}
	if got := snap.Names(); got[0] != "A" || got[1] != "B" {
		t.Errorf("names = %v, want [A B]", got)
	}
	if e := snap.Get("A"); e == nil || e.Version != 1 || !e.Probabilistic {
		t.Errorf("entry A = %+v, want version 1, probabilistic", e)
	}

	// Replacing A bumps both the catalog version and A's entry version,
	// while the old snapshot still sees the old entry.
	v3, err := c.Put("A", boolTable(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if v3 != 3 {
		t.Errorf("version after replace = %d, want 3", v3)
	}
	if e := snap.Get("A"); e.Version != 1 {
		t.Errorf("old snapshot sees A at version %d, want 1 (snapshot isolation)", e.Version)
	}
	if e := c.Snapshot().Get("A"); e.Version != 3 {
		t.Errorf("new snapshot sees A at version %d, want 3", e.Version)
	}
}

func TestPutCopiesTable(t *testing.T) {
	c := New()
	tab := boolTable(0.3)
	if _, err := c.Put("A", tab); err != nil {
		t.Fatal(err)
	}
	tab.AddConstRow(value.Ints(99), nil) // caller keeps mutating its copy
	if got := c.Snapshot().Get("A").Table.Table().NumRows(); got != 1 {
		t.Errorf("catalog table has %d rows, want 1 (Put must copy)", got)
	}
}

func TestPutRejectsPartialDistributions(t *testing.T) {
	tab := pctable.NewWithArity(1)
	tab.SetBoolDist("g", 0.5)
	// Variable y in a tuple position has no distribution: neither a plain
	// c-table nor a valid pc-table.
	tab.AddRow([]condition.Term{condition.Var("y")}, condition.IsTrueVar("g"))
	if _, err := New().Put("A", tab); err == nil {
		t.Error("partially-distributed table must be rejected")
	}
}

func TestPutErrors(t *testing.T) {
	c := New()
	if _, err := c.Put("", boolTable(0.1)); err == nil {
		t.Error("empty name must be rejected")
	}
	if _, err := c.Put("A", nil); err == nil {
		t.Error("nil table must be rejected")
	}
}

func TestDrop(t *testing.T) {
	c := New()
	if _, err := c.Put("A", boolTable(0.3)); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()
	if ok, err := c.Drop("A"); err != nil || !ok {
		t.Fatalf("Drop(A) = %v, %v, want true, nil", ok, err)
	}
	if ok, _ := c.Drop("A"); ok {
		t.Error("second Drop(A) = true, want false")
	}
	if before.Get("A") == nil {
		t.Error("pre-drop snapshot lost table A")
	}
	if c.Snapshot().Get("A") != nil {
		t.Error("post-drop snapshot still has table A")
	}
	if c.Version() != 2 {
		t.Errorf("version after drop = %d, want 2", c.Version())
	}
}

func TestLoadScript(t *testing.T) {
	c := New()
	names, err := c.LoadScript(strings.NewReader(`
table S arity 1
row 1 | g = true
dist g = {true:0.4, false:0.6}

table T arity 1
row y
dom y = {1, 2}
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "S" || names[1] != "T" {
		t.Fatalf("names = %v, want [S T]", names)
	}
	snap := c.Snapshot()
	if !snap.Get("S").Probabilistic {
		t.Error("S should be probabilistic")
	}
	if snap.Get("T").Probabilistic {
		t.Error("T has no distributions and should not be probabilistic")
	}
	if _, err := c.LoadScript(strings.NewReader("garbage")); err == nil {
		t.Error("bad script must error")
	}
}

// A script whose second table fails validation must leave the catalog
// completely unchanged — no partial replacement of the first table.
func TestLoadScriptAllOrNothing(t *testing.T) {
	c := New()
	if _, err := c.Put("S", boolTable(0.3)); err != nil {
		t.Fatal(err)
	}
	before := c.Version()
	// S parses fine; T has a distribution for g but none for the tuple
	// variable y, so validation rejects it.
	_, err := c.LoadScript(strings.NewReader(`
table S arity 1
row 9
table T arity 1
row y | g = true
dist g = {true:0.5, false:0.5}
`))
	if err == nil {
		t.Fatal("partially-valid script must error")
	}
	if c.Version() != before {
		t.Errorf("version moved from %d to %d; failed load must not mutate the catalog", before, c.Version())
	}
	if got := c.Snapshot().Get("S").Table.Table().Rows()[0].Terms[0].String(); got != "1" {
		t.Errorf("table S was replaced by the failed load (first cell now %s)", got)
	}
}

// A variable has one distribution in the whole catalog. A put, a loaded
// script or a patch that gives a variable another table already gives a
// different distribution is refused with pctable.ErrConflictingDists and
// leaves the catalog unchanged; the same distribution is accepted. A
// follower's apply does not re-check what its leader accepted.
func TestConflictingDistsRefused(t *testing.T) {
	c := New()
	if _, err := c.LoadScript(strings.NewReader("table A arity 1\nrow 1 | g = true\ndist g = {true:0.3, false:0.7}\n")); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, pctable.ErrConflictingDists) {
			t.Errorf("%s: err = %v, want ErrConflictingDists", what, err)
		}
		if c.Version() != 1 || c.Snapshot().Len() != 1 {
			t.Errorf("%s: catalog moved to version %d with %d tables", what, c.Version(), c.Snapshot().Len())
		}
	}
	conflicting := pctable.NewWithArity(1)
	conflicting.SetBoolDist("g", 0.5)
	conflicting.AddConstRow(value.Ints(2), nil)
	_, err := c.Put("B", conflicting)
	refused("put", err)
	_, err = c.LoadScript(strings.NewReader("table C arity 1\nrow 3\ntable B arity 1\nrow 2\ndist g = {true:0.5, false:0.5}\n"))
	refused("load", err)

	if _, err := c.Put("B", boolTable(0.5)); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.ApplyPatch("B", &wal.Patch{Dists: []wal.DistPatch{{Var: "g", Dist: conflicting.Dist("g")}}})
	if !errors.Is(err, pctable.ErrConflictingDists) || c.Version() != 2 {
		t.Errorf("patch: err = %v at version %d, want ErrConflictingDists at version 2", err, c.Version())
	}
	same := pctable.NewWithArity(1)
	same.SetBoolDist("g", 0.3)
	same.AddConstRow(value.Ints(4), condition.IsTrueVar("g"))
	if _, err := c.Put("D", same); err != nil {
		t.Errorf("put with the catalog's own distribution of g: %v", err)
	}

	follower := New()
	for i, tab := range []*pctable.PCTable{same, conflicting} {
		rec := &wal.Record{Kind: wal.KindPut, Version: uint64(i + 1), Name: fmt.Sprint("T", i), Probabilistic: true, Table: tab}
		if _, err := follower.ApplyRecord(rec); err != nil {
			t.Errorf("follower apply of %s: %v", rec.Name, err)
		}
	}
}

func TestSnapshotEnv(t *testing.T) {
	c := New()
	if _, err := c.Put("A", boolTable(0.3)); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	env, err := snap.Env([]string{"A"})
	if err != nil || len(env) != 1 {
		t.Fatalf("Env(A) = %v, %v", env, err)
	}
	if _, err := snap.Env([]string{"A", "Missing"}); err == nil {
		t.Error("unknown table must error")
	}
}

// Concurrent writers and snapshot readers must be race-clean and every
// snapshot must be internally consistent.
func TestConcurrentPutSnapshot(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("T%d", w)
				if _, err := c.Put(name, boolTable(0.5)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for i := 0; i < 100; i++ {
				snap := c.Snapshot()
				if snap.Version() < last {
					t.Errorf("snapshot version went backwards: %d after %d", snap.Version(), last)
					return
				}
				last = snap.Version()
				for _, name := range snap.Names() {
					if snap.Get(name) == nil {
						t.Errorf("snapshot lists %s but Get returns nil", name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
