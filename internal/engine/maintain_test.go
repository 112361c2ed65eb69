package engine

import (
	"math"
	"strings"
	"testing"

	"uncertaindb/internal/catalog"
	"uncertaindb/internal/condition"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/value"
	"uncertaindb/internal/wal"
)

// boolDist builds a two-outcome boolean distribution patch.
func boolDist(t *testing.T, name string, p float64) wal.DistPatch {
	t.Helper()
	sp, err := prob.NewValueSpace(map[value.Value]float64{
		value.Bool(true):  p,
		value.Bool(false): 1 - p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return wal.DistPatch{Var: name, Dist: sp}
}

// newRow builds a patch row from constant string cells with an optional
// condition.
func newRow(cond condition.Condition, cells ...string) wal.PatchRow {
	terms := make([]condition.Term, len(cells))
	for i, c := range cells {
		terms[i] = condition.Const(value.Str(c))
	}
	return wal.PatchRow{Terms: terms, Cond: cond}
}

// tableRow reads the identity of one current row of a catalog table, for
// building delete patches that match exactly.
func tableRow(t *testing.T, e *Engine, table string, i int) wal.PatchRow {
	t.Helper()
	ent := e.Catalog().Snapshot().Get(table)
	if ent == nil {
		t.Fatalf("no table %s", table)
	}
	rows := ent.Table.Table().Rows()
	if i >= len(rows) {
		t.Fatalf("table %s has %d rows, want index %d", table, len(rows), i)
	}
	return wal.PatchRow{Terms: rows[i].Terms, Cond: rows[i].Cond}
}

// assertFreshEquivalent executes req on the maintained engine and on a fresh
// engine over the same catalog (full recompile) and requires byte-identical
// answers and plans plus bit-identical marginals. wantHit asserts the
// maintained engine's cache outcome.
func assertFreshEquivalent(t *testing.T, e *Engine, req Request, wantHit bool) *Result {
	t.Helper()
	got, err := e.Execute(req)
	if err != nil {
		t.Fatalf("maintained execute: %v", err)
	}
	if got.CacheHit != wantHit {
		t.Errorf("%s [%s]: cache hit = %v, want %v", req.Query, req.Engine, got.CacheHit, wantHit)
	}
	fresh := New(e.Catalog(), e.opts)
	want, err := fresh.Execute(req)
	if err != nil {
		t.Fatalf("fresh execute: %v", err)
	}
	if got.Answer != want.Answer {
		t.Errorf("%s [%s]: maintained answer differs from recompile:\n got: %s\nwant: %s", req.Query, req.Engine, got.Answer, want.Answer)
	}
	if got.Plan != want.Plan {
		t.Errorf("%s [%s]: maintained plan rendering differs:\n got: %s\nwant: %s", req.Query, req.Engine, got.Plan, want.Plan)
	}
	if got.CatalogVersion != want.CatalogVersion {
		t.Errorf("catalog version %d != %d", got.CatalogVersion, want.CatalogVersion)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s [%s]: %d tuples, recompile has %d\n got: %v\nwant: %v",
			req.Query, req.Engine, len(got.Tuples), len(want.Tuples), got.Tuples, want.Tuples)
	}
	for i := range got.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if g.Tuple.Key() != w.Tuple.Key() ||
			math.Float64bits(g.P) != math.Float64bits(w.P) ||
			math.Float64bits(g.StdErr) != math.Float64bits(w.StdErr) ||
			g.Certain != w.Certain {
			t.Errorf("%s [%s]: tuple %d = (%s, %v, ±%v, certain=%v), recompile (%s, %v, ±%v, certain=%v)",
				req.Query, req.Engine, i, g.Tuple, g.P, g.StdErr, g.Certain, w.Tuple, w.P, w.StdErr, w.Certain)
		}
	}
	return got
}

// TestPatchMaintainsPlans covers the delta-append and re-evaluation paths
// over representative shapes: every cached plan must stay byte-identical to
// a from-scratch recompile after each patch, and insert-only patches against
// order-safe shapes must take the append path.
func TestPatchMaintainsPlans(t *testing.T) {
	queries := []struct {
		query      string
		wantAppend bool // insert-only patch of Takes takes the delta-append path
	}{
		{"select[$2 = 'math'](Takes)", true},
		{"project[1](Takes)", true},
		{"project[1,4](Takes join[$2 = $3] Labs)", true}, // Takes on the probe spine
		{"Labs union Takes", true},                       // Takes on the union's right spine
		{"Takes union Labs", false},                      // appended rows interleave: re-evaluate
		{"project[1,4](Labs join[$1 = $2] Takes)", false},
		{"project[1](Takes) union project[1](select[$2 = 'chem'](Takes))", false}, // two refs
	}
	kinds := []string{"dtree", "enum", "circuit", "auto"}
	e := newEngine(t, Options{}, takesScript, labsScript)
	for _, q := range queries {
		for _, kind := range kinds {
			if _, err := e.Execute(Request{Query: q.query, Engine: kind}); err != nil {
				t.Fatalf("prime %s [%s]: %v", q.query, kind, err)
			}
		}
	}

	// Patch 1: pure inserts — a constant row and a row over the existing
	// variable x (new candidate tuples, refreshed marginals).
	before := e.Stats().Maintenance
	if _, err := e.PatchTable("Takes", &wal.Patch{Upserts: []wal.PatchRow{
		newRow(nil, "Dana", "math"),
		{Terms: []condition.Term{condition.Const(value.Str("Eve")), condition.Var("x")}, Cond: nil},
	}}); err != nil {
		t.Fatal(err)
	}
	after := e.Stats().Maintenance
	if after.PatchesApplied != before.PatchesApplied+1 {
		t.Fatalf("patchesApplied = %d, want %d", after.PatchesApplied, before.PatchesApplied+1)
	}
	wantAppends := uint64(0)
	for _, q := range queries {
		if q.wantAppend {
			wantAppends += uint64(len(kinds))
		}
	}
	if got := after.DeltaAppends - before.DeltaAppends; got != wantAppends {
		t.Errorf("deltaAppends = %d, want %d", got, wantAppends)
	}
	if got := after.PlansMaintained - before.PlansMaintained; got != uint64(len(queries)*len(kinds)) {
		t.Errorf("plansMaintained = %d, want %d", got, len(queries)*len(kinds))
	}
	for _, q := range queries {
		for _, kind := range kinds {
			assertFreshEquivalent(t, e, Request{Query: q.query, Engine: kind}, true)
		}
	}

	// Patch 2: a delete — no shape is append-safe, every plan re-evaluates;
	// candidates produced only by the deleted row must vanish.
	before = e.Stats().Maintenance
	if _, err := e.PatchTable("Takes", &wal.Patch{
		Deletes: []wal.PatchRow{tableRow(t, e, "Takes", 0)}, // 'Alice', x
		Upserts: []wal.PatchRow{newRow(nil, "Frank", "chem")},
	}); err != nil {
		t.Fatal(err)
	}
	after = e.Stats().Maintenance
	if got := after.Reevaluations - before.Reevaluations; got != uint64(len(queries)*len(kinds)) {
		t.Errorf("reevaluations = %d, want %d", got, len(queries)*len(kinds))
	}
	for _, q := range queries {
		for _, kind := range kinds {
			res := assertFreshEquivalent(t, e, Request{Query: q.query, Engine: kind}, true)
			for _, ta := range res.Tuples {
				if strings.Contains(ta.Tuple.String(), "Alice") {
					t.Errorf("%s [%s]: deleted row still produces %s", q.query, kind, ta.Tuple)
				}
			}
		}
	}
}

// TestPatchMarginalCarry checks that maintenance reuses memoized marginals
// for unaffected tuples and refreshes only the affected ones.
func TestPatchMarginalCarry(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	const query = "project[1](Takes)"
	if _, err := e.Execute(Request{Query: query}); err != nil {
		t.Fatal(err)
	}
	before := e.Stats().Maintenance
	// A constant row opens a brand-new projection group; existing groups
	// (and their marginals) are untouched.
	if _, err := e.PatchTable("Takes", &wal.Patch{Upserts: []wal.PatchRow{newRow(nil, "Dana", "math")}}); err != nil {
		t.Fatal(err)
	}
	after := e.Stats().Maintenance
	if reused := after.MarginalsReused - before.MarginalsReused; reused == 0 {
		t.Error("no marginals reused for a patch that only adds a new group")
	}
	if refreshed := after.MarginalsRefreshed - before.MarginalsRefreshed; refreshed == 0 {
		t.Error("no marginals refreshed for the new candidate tuple")
	}
	res := assertFreshEquivalent(t, e, Request{Query: query}, true)
	// The maintained execution must not have recomputed the carried
	// marginals: the plan's memo is already final, so the execution is warm.
	if res.PrepareDuration != 0 {
		t.Error("maintained plan recompiled on execute")
	}
}

// TestPatchForcedRecompiles covers the typed fallbacks: non-monotone
// queries, distribution-adding patches, and whole-table replacement.
func TestPatchForcedRecompiles(t *testing.T) {
	e := newEngine(t, Options{}, takesScript, labsScript)
	if _, err := e.Execute(Request{Query: "Takes minus Labs"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PatchTable("Takes", &wal.Patch{Upserts: []wal.PatchRow{newRow(nil, "Dana", "math")}}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats().Maintenance
	if st.ForcedNonMonotone != 1 {
		t.Errorf("forcedNonMonotone = %d, want 1", st.ForcedNonMonotone)
	}
	// The dropped plan recompiles correctly on the next execution.
	assertFreshEquivalent(t, e, Request{Query: "Takes minus Labs"}, false)

	// A patch that adds a distribution invalidates (memoized marginals were
	// computed without the new variable's space).
	if _, err := e.Execute(Request{Query: "select[$2 = 'math'](Takes)"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PatchTable("Takes", &wal.Patch{
		Upserts: []wal.PatchRow{{
			Terms: []condition.Term{condition.Const(value.Str("Gail")), condition.Const(value.Str("math"))},
			Cond:  condition.IsTrueVar("fresh"),
		}},
		Dists: []wal.DistPatch{boolDist(t, "fresh", 0.5)},
	}); err != nil {
		t.Fatal(err)
	}
	st = e.Stats().Maintenance
	if st.ForcedDistsChanged == 0 {
		t.Error("distribution-adding patch did not force a recompile")
	}
	assertFreshEquivalent(t, e, Request{Query: "select[$2 = 'math'](Takes)"}, false)

	// Whole-table replacement is counted under tableReplaced.
	ent := e.Catalog().Snapshot().Get("Labs")
	if _, err := e.Execute(Request{Query: "project[1](Labs)"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PutTable("Labs", ent.Table); err != nil {
		t.Fatal(err)
	}
	if st = e.Stats().Maintenance; st.ForcedTableReplaced == 0 {
		t.Error("table replacement not counted as a forced recompile")
	}
}

// TestPatchMaintainsFollowerCache checks the ApplyChange path: a follower
// tailing the leader's change feed maintains its plan cache through patch
// records and stays byte-identical to the leader.
func TestPatchMaintainsFollowerCache(t *testing.T) {
	leader := newEngine(t, Options{}, takesScript, labsScript)
	w, err := leader.Catalog().Watch(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	follower := New(catalog.New(), Options{})
	catchUp := func(upTo uint64) {
		t.Helper()
		for {
			rec := <-w.C()
			if err := follower.ApplyChange(rec); err != nil {
				t.Fatalf("apply record v%d: %v", rec.Version, err)
			}
			if rec.Version >= upTo {
				return
			}
		}
	}
	catchUp(leader.Catalog().Version())

	const query = "project[1,4](Takes join[$2 = $3] Labs)"
	for _, e := range []*Engine{leader, follower} {
		if _, err := e.Execute(Request{Query: query}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := leader.PatchTable("Takes", &wal.Patch{Upserts: []wal.PatchRow{newRow(nil, "Dana", "phys")}})
	if err != nil {
		t.Fatal(err)
	}
	catchUp(v)
	if st := follower.Stats().Maintenance; st.PlansMaintained != 1 {
		t.Errorf("follower plansMaintained = %d, want 1", st.PlansMaintained)
	}
	lr := assertFreshEquivalent(t, leader, Request{Query: query}, true)
	fr := assertFreshEquivalent(t, follower, Request{Query: query}, true)
	if lr.Answer != fr.Answer || lr.CatalogVersion != fr.CatalogVersion {
		t.Errorf("leader and follower diverged:\nleader:   %s @%d\nfollower: %s @%d",
			lr.Answer, lr.CatalogVersion, fr.Answer, fr.CatalogVersion)
	}
	for i := range lr.Tuples {
		if math.Float64bits(lr.Tuples[i].P) != math.Float64bits(fr.Tuples[i].P) {
			t.Errorf("tuple %d: leader P %v, follower P %v", i, lr.Tuples[i].P, fr.Tuples[i].P)
		}
	}
}

// TestPatchKeepsMonteCarloDeterminism: MC marginals are per-request, so a
// maintained plan must sample the maintained answer exactly as a recompiled
// plan samples the recompiled answer.
func TestPatchMaintainsMonteCarlo(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	req := Request{Query: "project[1](Takes)", Engine: "mc", Samples: 4000, Seed: 11}
	if _, err := e.Execute(req); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PatchTable("Takes", &wal.Patch{Upserts: []wal.PatchRow{newRow(nil, "Dana", "math")}}); err != nil {
		t.Fatal(err)
	}
	assertFreshEquivalent(t, e, req, true)
}
