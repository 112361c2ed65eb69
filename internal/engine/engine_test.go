package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"uncertaindb/internal/catalog"
	"uncertaindb/internal/parser"
)

const takesScript = `table Takes arity 2
row 'Alice', x
row 'Bob',   x | x = 'phys' || x = 'chem'
row 'Theo',  'math' | t = 1
dist x = {'math':0.3, 'phys':0.3, 'chem':0.4}
dist t = {0:0.15, 1:0.85}
`

const labsScript = `table Labs arity 2
row 'phys', 'L1'
row 'math', 'L2' | l = 1
dist l = {0:0.5, 1:0.5}
`

func newEngine(t *testing.T, opts Options, scripts ...string) *Engine {
	t.Helper()
	cat := catalog.New()
	e := New(cat, opts)
	for _, s := range scripts {
		if _, err := e.LoadCatalogScript(strings.NewReader(s)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// The engine's marginals must equal the tuple marginals of the answer's
// possible-worlds distribution (Mod, enumerated world by world — no lineage,
// no decomposition) for both exact engines and the dtree alias, and the
// Monte-Carlo engine must agree within a few standard errors.
func TestExecuteMatchesDirectComputation(t *testing.T) {
	e := newEngine(t, Options{Workers: 4}, takesScript)
	const queryText = "project[1](select[$2 = 'phys'](Takes))"

	pt, err := parser.ParseTableString(takesScript)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(queryText)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := pt.PCTable.EvalQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	worlds, err := answer.Mod()
	if err != nil {
		t.Fatal(err)
	}
	direct := worlds.TupleMarginals()

	for _, kind := range []string{"circuit", "dtree", "enum"} {
		res, err := e.Execute(Request{Query: queryText, Engine: kind})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != len(direct) {
			t.Fatalf("%s: %d answers, want %d", kind, len(res.Tuples), len(direct))
		}
		for i, ta := range res.Tuples {
			if ta.Tuple.Key() != direct[i].Tuple.Key() || math.Abs(ta.P-direct[i].P) > 1e-12 {
				t.Errorf("%s: answer %d = (%s, %g), want (%s, %g)", kind, i, ta.Tuple, ta.P, direct[i].Tuple, direct[i].P)
			}
		}
	}

	res, err := e.Execute(Request{Query: queryText, Engine: "mc", Samples: 20000, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, ta := range res.Tuples {
		if math.Abs(ta.P-direct[i].P) > 5*ta.StdErr+1e-9 {
			t.Errorf("mc: P[%s] = %g ± %g, direct %g", ta.Tuple, ta.P, ta.StdErr, direct[i].P)
		}
	}
}

func TestExecuteMultiTableJoin(t *testing.T) {
	e := newEngine(t, Options{}, takesScript, labsScript)
	res, err := e.Execute(Request{
		Query: "project[1,4](Takes join[$2 = $3] Labs)",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Tables); got != "[Labs Takes]" {
		t.Errorf("tables = %s, want [Labs Takes]", got)
	}
	// P[('Theo','L2')] = P[t=1] * P[l=1] = 0.85 * 0.5 = 0.425.
	found := false
	for _, ta := range res.Tuples {
		if strings.Contains(ta.Tuple.String(), "Theo") {
			found = true
			if math.Abs(ta.P-0.425) > 1e-12 {
				t.Errorf("P[%s] = %g, want 0.425", ta.Tuple, ta.P)
			}
		}
	}
	if !found {
		t.Errorf("no Theo tuple in answers: %v", res.Tuples)
	}
}

func TestCertainAnswerFlag(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	res, err := e.Execute(Request{Query: "project[1](Takes)"})
	if err != nil {
		t.Fatal(err)
	}
	certain := map[string]bool{}
	for _, ta := range res.Tuples {
		certain[ta.Tuple.String()] = ta.Certain
	}
	// Alice occurs for every value of x; Theo only when t = 1.
	if !certain["('Alice')"] {
		t.Errorf("Alice should be certain: %v", res.Tuples)
	}
	if certain["('Theo')"] {
		t.Errorf("Theo should not be certain: %v", res.Tuples)
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	req := Request{Query: "project[1](Takes)"}

	res1, err := e.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if res1.CacheHit {
		t.Error("first execution must be a miss")
	}
	res2, err := e.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Error("second execution must be a hit")
	}
	if res2.PrepareDuration != 0 {
		t.Error("cache hit must not re-prepare")
	}
	s := e.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want hits=1 misses=1 entries=1", s)
	}
	if s.Executions != 2 || s.PrepareNanos == 0 {
		t.Errorf("stats = %+v, want executions=2 and non-zero prepare time", s)
	}
	// Different engine kinds compile distinct plans.
	if _, err := e.Execute(Request{Query: req.Query, Engine: "enum"}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 2 || s.Entries != 2 {
		t.Errorf("stats after enum = %+v, want misses=2 entries=2", s)
	}
}

// A put publishes the new table version before the engine invalidates the
// plans over the old one. A query that runs in that window compiles a plan
// at the new version; the invalidation must keep it, so the next execution
// hits instead of compiling the same plan again.
func TestPutInvalidationKeepsPlanAtNewVersion(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	req := Request{Query: "project[1](Takes)"}
	if _, err := e.Execute(req); err != nil {
		t.Fatal(err)
	}
	pt, err := parser.ParseTableString(takesScript)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Catalog().Put("Takes", pt.PCTable); err != nil {
		t.Fatal(err)
	}
	if res, err := e.Execute(req); err != nil || res.CacheHit {
		t.Fatalf("execution at the new version: hit=%v err=%v, want a fresh compile", res != nil && res.CacheHit, err)
	}
	e.invalidateReplaced("Takes")
	res, err := e.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("invalidation dropped the plan compiled at the new version")
	}
	if s := e.Stats(); s.Entries != 1 || s.Invalidations != 1 {
		t.Fatalf("stats = %+v, want the old plan invalidated and the new one kept", s)
	}
}

// Only auto plans run the selector: a circuit plan carries a zero
// Selection, an auto plan a filled one.
func TestSelectionOnlyForAutoPlans(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	for _, eng := range []string{"circuit", "auto"} {
		if _, err := e.Execute(Request{Query: "project[1](Takes)", Engine: eng}); err != nil {
			t.Fatal(err)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for el := e.lru.Front(); el != nil; el = el.Next() {
		p := el.Value.(*plan)
		switch p.kind {
		case KindCircuit:
			if p.sel != (Selection{}) {
				t.Errorf("circuit plan carries a selection: %+v", p.sel)
			}
		case KindAuto:
			if p.sel.Tuples == 0 || p.sel.Reason == "" {
				t.Errorf("auto plan has no selection: %+v", p.sel)
			}
		}
	}
}

// Replacing a catalog table must evict exactly the plans that read it: the
// dependent query recompiles against the new version (and reflects its
// contents), while plans over other tables keep hitting.
func TestTableReplaceInvalidatesDependentPlans(t *testing.T) {
	e := newEngine(t, Options{}, takesScript, labsScript)

	takesQ := Request{Query: "project[1](Takes)"}
	labsQ := Request{Query: "project[2](Labs)"}
	if _, err := e.Execute(takesQ); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(labsQ); err != nil {
		t.Fatal(err)
	}

	// Replace Takes: Theo's guard flips from 0.85 to certain.
	replacement := strings.Replace(takesScript, "{0:0.15, 1:0.85}", "{0:0.0, 1:1.0}", 1)
	pt, err := parser.ParseTableString(replacement)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PutTable(pt.Name, pt.PCTable); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Invalidations != 1 || s.Entries != 1 {
		t.Errorf("stats after replace = %+v, want invalidations=1 entries=1", s)
	}

	res, err := e.Execute(takesQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("dependent plan must recompile after its table was replaced")
	}
	for _, ta := range res.Tuples {
		if ta.Tuple.String() == "('Theo')" && math.Abs(ta.P-1) > 1e-12 {
			t.Errorf("P[Theo] = %g after replacement, want 1", ta.P)
		}
	}

	resLabs, err := e.Execute(labsQ)
	if err != nil {
		t.Fatal(err)
	}
	if !resLabs.CacheHit {
		t.Error("plan over an untouched table must still hit")
	}
}

func TestLRUBound(t *testing.T) {
	e := newEngine(t, Options{CacheSize: 2}, takesScript)
	for _, q := range []string{"project[1](Takes)", "project[2](Takes)", "project[1,2](Takes)"} {
		if _, err := e.Execute(Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want entries=2 evictions=1", s)
	}
	// The least recently used plan (the first query) was evicted.
	res, err := e.Execute(Request{Query: "project[1](Takes)"})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("evicted plan must recompile")
	}
}

func TestExecuteErrors(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	cases := []Request{
		{Query: "project[1](Takes)", Engine: "bogus"},
		{Query: "select[("},          // parse error
		{Query: "project[1](Nope)"},  // unknown table
		{Query: "project[5](Takes)"}, // arity violation
	}
	for i, req := range cases {
		if _, err := e.Execute(req); err == nil {
			t.Errorf("case %d (%+v): expected error", i, req)
		}
	}
	if s := e.Stats(); s.Errors != uint64(len(cases)) {
		t.Errorf("error counter = %d, want %d", s.Errors, len(cases))
	}
}

func TestExecuteRejectsDistributionFreeTable(t *testing.T) {
	e := newEngine(t, Options{}, "table Plain arity 1\nrow y\ndom y = {1, 2}\n")
	_, err := e.Execute(Request{Query: "project[1](Plain)"})
	if err == nil || !strings.Contains(err.Error(), "no variable distributions") {
		t.Fatalf("got %v, want distribution-free-table error", err)
	}
}

func TestMonteCarloDeterminism(t *testing.T) {
	e := newEngine(t, Options{Workers: 4}, takesScript)
	req := Request{Query: "project[1](Takes)", Engine: "mc", Samples: 5000, Seed: 9, Workers: 3}
	res1, err := e.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := e.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Tuples {
		a, b := res1.Tuples[i], res2.Tuples[i]
		if a.Tuple.Key() != b.Tuple.Key() || a.P != b.P || a.StdErr != b.StdErr {
			t.Errorf("mc estimates differ across runs: %v vs %v", a, b)
		}
	}
}

// A sampled estimate of 1 is not a certainty proof: only tuples whose
// lineage simplified to true may be flagged certain by the mc engine.
func TestMonteCarloCertainOnlyForTrueLineage(t *testing.T) {
	// Theo's guard has P[t=1] = 1, but the lineage "t = 1" is not the
	// constant true; Alice's row is unconditional.
	script := strings.Replace(takesScript, "{0:0.15, 1:0.85}", "{0:0.0, 1:1.0}", 1)
	e := newEngine(t, Options{}, script)
	res, err := e.Execute(Request{Query: "project[1](Takes)", Engine: "mc", Samples: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, ta := range res.Tuples {
		switch ta.Tuple.String() {
		case "('Alice')":
			if !ta.Certain {
				t.Errorf("Alice's lineage is true and must be certain: %+v", ta)
			}
		case "('Theo')":
			if ta.Certain {
				t.Errorf("Theo's certainty is only sampled and must not be flagged: %+v", ta)
			}
		}
	}
}

// Concurrent executes (same plan, distinct plans, all engines) interleaved
// with table replacements must be race-clean and never serve wrong answers
// for the snapshot a plan was compiled against.
func TestConcurrentPrepareExecute(t *testing.T) {
	e := newEngine(t, Options{CacheSize: 8, Workers: 4}, takesScript, labsScript)
	queries := []Request{
		{Query: "project[1](Takes)"},
		{Query: "project[1](Takes)", Engine: "enum"},
		{Query: "project[1](Takes)", Engine: "mc", Samples: 500},
		{Query: "project[2](Labs)"},
		{Query: "project[1,4](Takes join[$2 = $3] Labs)"},
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				req := queries[(w+i)%len(queries)]
				if _, err := e.Execute(req); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			pt, err := parser.ParseTableString(takesScript)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := e.PutTable(pt.Name, pt.PCTable); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	s := e.Stats()
	if s.Executions != 160 {
		t.Errorf("executions = %d, want 160", s.Executions)
	}
}

// Compiling a join caches its physical plan (rendered operator tree) and
// accumulates the per-operator counters; cache hits reuse the plan text and
// add nothing to the counters.
func TestPhysicalPlanCachedAndCounted(t *testing.T) {
	e := newEngine(t, Options{}, takesScript, labsScript)
	res, err := e.Execute(Request{Query: "project[1,4](Takes join[$2 = $3] Labs)"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan, "hash-join[$2=$1]") {
		t.Errorf("plan missing hash join:\n%s", res.Plan)
	}
	s := e.Stats()
	if s.Ops.HashJoins != 1 || s.Ops.NestedLoopJoins != 0 {
		t.Errorf("join strategy counters: %+v", s.Ops)
	}
	// Build side (Labs) is fully ground: the one ground probe row (Theo)
	// hashes, the two variable-keyed rows (Alice, Bob) scan the build side.
	if s.Ops.HashProbes != 1 {
		t.Errorf("hash probes = %d, want 1", s.Ops.HashProbes)
	}
	if s.Ops.ResidualHits != 4 {
		t.Errorf("residual hits = %d, want 4 (two variable probes x two build rows)", s.Ops.ResidualHits)
	}
	if s.Ops.RowsIn == 0 || s.Ops.RowsOut == 0 {
		t.Errorf("row counters empty: %+v", s.Ops)
	}

	res2, err := e.Execute(Request{Query: "project[1,4](Takes join[$2 = $3] Labs)"})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit || res2.Plan != res.Plan {
		t.Errorf("cache hit must reuse the compiled physical plan")
	}
	if s2 := e.Stats(); s2.Ops != s.Ops {
		t.Errorf("cache hit changed operator counters: %+v vs %+v", s2.Ops, s.Ops)
	}
}
