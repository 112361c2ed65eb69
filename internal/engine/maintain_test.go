package engine

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"uncertaindb/internal/catalog"
	"uncertaindb/internal/condition"
	"uncertaindb/internal/obs"
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
// order-safe shapes must take the append path. The maintained exact
// marginals must also match the maintained enumeration, and the dtree alias
// must be served by the maintained circuit plan.
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
	kinds := []string{"enum", "circuit", "auto"}
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
	for _, q := range queries {
		assertMaintainedKinds(t, e, q.query, kinds)
	}
	// Plans are caught up by the queries that read them, so the counters
	// are read after those queries.
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

	// Patch 2: a delete — no shape is append-safe, every plan re-evaluates;
	// candidates produced only by the deleted row must vanish.
	before = e.Stats().Maintenance
	if _, err := e.PatchTable("Takes", &wal.Patch{
		Deletes: []wal.PatchRow{tableRow(t, e, "Takes", 0)}, // 'Alice', x
		Upserts: []wal.PatchRow{newRow(nil, "Frank", "chem")},
	}); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		for kind, res := range assertMaintainedKinds(t, e, q.query, kinds) {
			for _, ta := range res.Tuples {
				if strings.Contains(ta.Tuple.String(), "Alice") {
					t.Errorf("%s [%s]: deleted row still produces %s", q.query, kind, ta.Tuple)
				}
			}
		}
	}
	after = e.Stats().Maintenance
	if got := after.Reevaluations - before.Reevaluations; got != uint64(len(queries)*len(kinds)) {
		t.Errorf("reevaluations = %d, want %d", got, len(queries)*len(kinds))
	}
}

// assertMaintainedKinds runs assertFreshEquivalent for query under every
// kind, which must include enum, and checks every kind's marginals against
// enumeration's within float rounding. A dtree request must hit the
// maintained circuit plan and answer with it bit for bit.
func assertMaintainedKinds(t *testing.T, e *Engine, query string, kinds []string) map[string]*Result {
	t.Helper()
	out := make(map[string]*Result, len(kinds))
	for _, kind := range kinds {
		out[kind] = assertFreshEquivalent(t, e, Request{Query: query, Engine: kind}, true)
	}
	enum := out["enum"]
	for kind, res := range out {
		if len(res.Tuples) != len(enum.Tuples) {
			t.Fatalf("%s [%s]: %d tuples, enumeration has %d", query, kind, len(res.Tuples), len(enum.Tuples))
		}
		for i, ta := range res.Tuples {
			if w := enum.Tuples[i]; ta.Tuple.Key() != w.Tuple.Key() || math.Abs(ta.P-w.P) > 1e-12 || ta.Certain != w.Certain {
				t.Errorf("%s [%s]: tuple %d = %+v, enumeration %+v", query, kind, i, ta, w)
			}
		}
	}
	if circuit, ok := out["circuit"]; ok {
		alias, err := e.Execute(Request{Query: query, Engine: "dtree"})
		if err != nil {
			t.Fatal(err)
		}
		if !alias.CacheHit || alias.Kind != KindCircuit {
			t.Errorf("%s [dtree]: kind %q, cache hit %v; want the maintained circuit plan", query, alias.Kind, alias.CacheHit)
		}
		for i := range alias.Tuples {
			if math.Float64bits(alias.Tuples[i].P) != math.Float64bits(circuit.Tuples[i].P) {
				t.Errorf("%s [dtree]: tuple %d P %v, circuit %v", query, i, alias.Tuples[i].P, circuit.Tuples[i].P)
			}
		}
	}
	return out
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
	res := assertFreshEquivalent(t, e, Request{Query: query}, true)
	// The maintained execution must not have recomputed the carried
	// marginals: the plan's memo is already final, so the execution is warm.
	if res.PrepareDuration != 0 {
		t.Error("maintained plan recompiled on execute")
	}
	after := e.Stats().Maintenance
	if reused := after.MarginalsReused - before.MarginalsReused; reused == 0 {
		t.Error("no marginals reused for a patch that only adds a new group")
	}
	if refreshed := after.MarginalsRefreshed - before.MarginalsRefreshed; refreshed == 0 {
		t.Error("no marginals refreshed for the new candidate tuple")
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
	// The dropped plan recompiles correctly on the next execution, which is
	// where the non-monotone plan is found and dropped.
	assertFreshEquivalent(t, e, Request{Query: "Takes minus Labs"}, false)
	st := e.Stats().Maintenance
	if st.ForcedNonMonotone != 1 {
		t.Errorf("forcedNonMonotone = %d, want 1", st.ForcedNonMonotone)
	}

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
	assertFreshEquivalent(t, e, Request{Query: "select[$2 = 'math'](Takes)"}, false)
	st = e.Stats().Maintenance
	if st.ForcedDistsChanged == 0 {
		t.Error("distribution-adding patch did not force a recompile")
	}

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
// tailing the leader's change feed applies patch records, its queries catch
// its cached plans up, and it stays byte-identical to the leader.
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
	lr := assertFreshEquivalent(t, leader, Request{Query: query}, true)
	fr := assertFreshEquivalent(t, follower, Request{Query: query}, true)
	if st := follower.Stats().Maintenance; st.PlansMaintained != 1 {
		t.Errorf("follower plansMaintained = %d, want 1", st.PlansMaintained)
	}
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

// TestPatchMissWaitsForMaintenance: a query run the moment the change feed
// delivers a patch catches the cached plan up to the patched version and
// hits it, without compiling a second plan, while 64 other cached plans over
// the same table stay behind untouched.
func TestPatchMissWaitsForMaintenance(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	for i := 0; i < 64; i++ {
		if _, err := e.Execute(Request{Query: fmt.Sprintf("select[$1 != 'a%03d'](Takes)", i)}); err != nil {
			t.Fatal(err)
		}
	}
	req := Request{Query: "select[$1 != 'zzz'](Takes)"}
	if _, err := e.Execute(req); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		w, err := e.Catalog().Watch(e.Catalog().Version())
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := e.PatchTable("Takes", &wal.Patch{Upserts: []wal.PatchRow{newRow(nil, fmt.Sprintf("New%d", round), "math")}})
			done <- err
		}()
		rec := <-w.C()
		res, err := e.Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit || res.CatalogVersion != rec.Version {
			t.Fatalf("round %d: query at v%d after the patch to v%d: cache hit %v, want the maintained plan",
				round, res.CatalogVersion, rec.Version, res.CacheHit)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		w.Close()
		assertFreshEquivalent(t, e, req, true)
	}
	if st := e.Stats().Maintenance; st.ForcedTableReplaced != 0 {
		t.Fatalf("maintained plans were thrown away: %+v", st)
	}
}

// TestPatchDefersMaintenance: a patch maintains no plan. Every cached plan
// over the patched table stays as it was until a query reads it, and then
// only the plan that query reads is caught up.
func TestPatchDefersMaintenance(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	const plans = 8
	req := func(i int) Request { return Request{Query: fmt.Sprintf("select[$1 != 'a%d'](Takes)", i)} }
	for i := 0; i < plans; i++ {
		if _, err := e.Execute(req(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats()
	if _, err := e.PatchTable("Takes", &wal.Patch{Upserts: []wal.PatchRow{newRow(nil, "Dana", "math")}}); err != nil {
		t.Fatal(err)
	}
	after := e.Stats()
	if after.Maintenance.PatchesApplied != before.Maintenance.PatchesApplied+1 {
		t.Errorf("patchesApplied = %d, want %d", after.Maintenance.PatchesApplied, before.Maintenance.PatchesApplied+1)
	}
	after.Maintenance.PatchesApplied = before.Maintenance.PatchesApplied
	if after.Maintenance != before.Maintenance || after.Entries != plans || after.Invalidations != before.Invalidations {
		t.Fatalf("a patch touched the plan cache:\nbefore: %+v\nafter:  %+v", before, after)
	}

	assertFreshEquivalent(t, e, req(0), true)
	if got := e.Stats().Maintenance.PlansMaintained; got != before.Maintenance.PlansMaintained+1 {
		t.Fatalf("plansMaintained = %d after one read, want %d", got, before.Maintenance.PlansMaintained+1)
	}
	// The caught-up plan is current now: reading it again is a plain hit.
	res, err := e.Execute(req(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit || e.Stats().Maintenance.PlansMaintained != before.Maintenance.PlansMaintained+1 {
		t.Fatalf("second read: cache hit %v, maintenance %+v; want a hit and no second catch-up", res.CacheHit, e.Stats().Maintenance)
	}
}

// TestOlderSnapshotCompilesUncached: a cached plan is never served to a
// snapshot older than the one it is current at. Such a query compiles its
// own plan, stamps its own snapshot's version, and leaves the cached plan in
// place.
func TestOlderSnapshotCompilesUncached(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	req := Request{Query: "project[1](Takes)"}
	old := e.Catalog().Snapshot()
	v, err := e.PatchTable("Takes", &wal.Patch{Upserts: []wal.PatchRow{newRow(nil, "Dana", "math")}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(req); err != nil { // caches the plan at v
		t.Fatal(err)
	}
	before := e.Stats()
	res, err := e.executeOn(old, req, &phases{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit || res.CatalogVersion != old.Version() {
		t.Fatalf("query at v%d: cache hit %v, stamped v%d; want an uncached compile stamped v%d", old.Version(), res.CacheHit, res.CatalogVersion, old.Version())
	}
	want, err := New(e.Catalog(), e.opts).executeOn(old, req, &phases{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer != want.Answer || strings.Contains(res.Answer, "Dana") {
		t.Fatalf("answer at v%d:\n got: %s\nwant: %s", old.Version(), res.Answer, want.Answer)
	}
	after := e.Stats()
	if after.Misses != before.Misses+1 || after.Entries != before.Entries {
		t.Fatalf("uncached compile: misses %d -> %d, entries %d -> %d", before.Misses, after.Misses, before.Entries, after.Entries)
	}
	cur, err := e.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.CacheHit || cur.CatalogVersion != v || !strings.Contains(cur.Answer, "Dana") {
		t.Fatalf("query at v%d after the older one: cache hit %v at v%d; want the cached plan", v, cur.CacheHit, cur.CatalogVersion)
	}
}

// TestCatchUpTraced: a catch-up is a "maintain" span in the trace of the
// query that paid for it — with the outcome, the patches it coalesced, the
// delta rows and the marginals reused and refreshed — so a slow catch-up
// reaches the slow-query log through that query; the apply histogram
// observes one catch-up, not one patch.
func TestCatchUpTraced(t *testing.T) {
	o := obs.NewObserver(time.Nanosecond, 8) // every execution is slow
	e := newEngine(t, Options{Obs: o}, takesScript)
	req := Request{Query: "project[1](Takes)"}
	if _, err := e.Execute(req); err != nil {
		t.Fatal(err)
	}
	for _, who := range []string{"Dana", "Eve"} {
		if _, err := e.PatchTable("Takes", &wal.Patch{Upserts: []wal.PatchRow{newRow(nil, who, "math")}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.applySeconds.Count(); n != 0 {
		t.Fatalf("apply histogram observed %d catch-ups before any read", n)
	}
	req.Analyze = true
	res, err := e.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("caught-up plan was not served as a hit")
	}
	if n := e.applySeconds.Count(); n != 1 {
		t.Fatalf("apply histogram observed %d catch-ups, want 1", n)
	}
	want := map[string]any{"outcome": "append", "patches": int64(2), "deltaRows": int64(2), "marginalsReused": int64(3), "marginalsRefreshed": int64(2)}
	check := func(label string, tr *obs.SpanExport) {
		t.Helper()
		var sp *obs.SpanExport
		for _, c := range tr.Children {
			if c.Name == "maintain" {
				sp = c
			}
		}
		if sp == nil {
			t.Fatalf("%s: no maintain span in the query trace", label)
		}
		got := make(map[string]any, len(sp.Attrs))
		for _, a := range sp.Attrs {
			got[a.Key] = a.Value
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: maintain span attributes %v, want %v", label, got, want)
		}
	}
	check("analyze", res.Trace)
	slow := o.Slow.Snapshot()
	if len(slow) == 0 {
		t.Fatal("slow-query log is empty")
	}
	check("slow log", slow[0].Trace) // most recent first
}

// TestConcurrentCatchUp: queries that read the same plan at once, some at a
// snapshot older than the patches, share one catch-up. Readers at the newest
// snapshot are all hits on the one caught-up plan; readers at the older
// snapshot get the answer at their own version, from the cached plan while
// it is still current for them and from an uncached compile once it is not.
func TestConcurrentCatchUp(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	req := Request{Query: "project[1](Takes)"}
	if _, err := e.Execute(req); err != nil {
		t.Fatal(err)
	}
	old := e.Catalog().Snapshot()
	for _, who := range []string{"Dana", "Eve", "Finn"} {
		if _, err := e.PatchTable("Takes", &wal.Patch{Upserts: []wal.PatchRow{newRow(nil, who, "math")}}); err != nil {
			t.Fatal(err)
		}
	}
	cur := e.Catalog().Snapshot()
	want := make(map[uint64]string)
	for _, snap := range []*catalog.Snapshot{old, cur} {
		res, err := New(e.Catalog(), e.opts).executeOn(snap, req, &phases{})
		if err != nil {
			t.Fatal(err)
		}
		want[snap.Version()] = res.Answer
	}
	before := e.Stats().Maintenance.PlansMaintained
	const readers = 8
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		snap := cur
		if i%2 == 1 {
			snap = old
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.executeOn(snap, req, &phases{})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Answer != want[snap.Version()] || res.CatalogVersion != snap.Version() {
				t.Errorf("reader at v%d: answer at v%d differs from a fresh compile:\n%s", snap.Version(), res.CatalogVersion, res.Answer)
			}
			if snap == cur && !res.CacheHit {
				t.Errorf("reader at the newest snapshot v%d missed the cache", snap.Version())
			}
		}()
	}
	wg.Wait()
	if got := e.Stats().Maintenance.PlansMaintained - before; got != 1 {
		t.Errorf("%d catch-ups for one plan read concurrently, want 1", got)
	}
}
