package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"uncertaindb/internal/catalog"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/pctable"
)

// Typed errors let callers (and the HTTP layer) classify failures without
// string matching.
func TestTypedErrors(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	cases := []struct {
		req  Request
		want error
	}{
		{Request{Query: "project[1](Takes)", Engine: "bogus"}, ErrBadQuery},
		{Request{Query: "select[("}, ErrBadQuery},
		{Request{Query: "project[5](Takes)"}, ErrBadQuery},
		{Request{Query: "project[1](Nope)"}, ErrUnknownTable},
	}
	for i, tc := range cases {
		_, err := e.Execute(tc.req)
		if !errors.Is(err, tc.want) {
			t.Errorf("case %d (%q): err = %v, want errors.Is(%v)", i, tc.req.Query, err, tc.want)
		}
	}
	// A table without distributions is a bad query, not an unknown table.
	e2 := newEngine(t, Options{}, "table Plain arity 1\nrow y\ndom y = {1, 2}\n")
	if _, err := e2.Execute(Request{Query: "project[1](Plain)"}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("distribution-free table: err = %v, want ErrBadQuery", err)
	}
}

// A batch runs every query against one snapshot: results all carry the same
// catalog version even when tables are replaced mid-batch, and per-item
// errors do not abort the rest.
func TestExecuteBatchOneSnapshot(t *testing.T) {
	e := newEngine(t, Options{}, takesScript, labsScript)
	reqs := []Request{
		{Query: "project[1](Takes)"},
		{Query: "select[("}, // bad query: reported in its slot only
		{Query: "project[2](Labs)"},
		{Query: "project[1](Takes)"}, // repeated: plan-cache hit within the batch
	}
	items, version := e.ExecuteBatch(reqs)
	if len(items) != len(reqs) {
		t.Fatalf("items = %d, want %d", len(items), len(reqs))
	}
	if items[1].Err == nil || !errors.Is(items[1].Err, ErrBadQuery) {
		t.Fatalf("item 1: err = %v, want ErrBadQuery", items[1].Err)
	}
	for _, i := range []int{0, 2, 3} {
		if items[i].Err != nil {
			t.Fatalf("item %d: %v", i, items[i].Err)
		}
		if items[i].Result.CatalogVersion != version {
			t.Errorf("item %d executed against catalog v%d, batch snapshot is v%d", i, items[i].Result.CatalogVersion, version)
		}
	}
	// A second batch of the same queries runs entirely off the plan cache.
	items2, _ := e.ExecuteBatch([]Request{reqs[0], reqs[2], reqs[3]})
	for i, item := range items2 {
		if item.Err != nil {
			t.Fatalf("second batch item %d: %v", i, item.Err)
		}
		if !item.Result.CacheHit {
			t.Errorf("second batch item %d missed the plan cache", i)
		}
	}
	// The snapshot version is reported even when every item fails.
	failed, version2 := e.ExecuteBatch([]Request{{Query: "project[1](Nope)"}})
	if failed[0].Err == nil || version2 != version {
		t.Errorf("all-error batch: err = %v, version = %d (want %d)", failed[0].Err, version2, version)
	}
}

// Replacing a table mid-stream must never let Execute serve a plan compiled
// against a different distribution than its reported catalog version: every
// observed marginal must be exactly the old or the new value, and once the
// writers stop the next Execute must see the final distribution. Run with
// -race (the CI test job does).
func TestPlanCacheInvalidationUnderConcurrentPut(t *testing.T) {
	// P[x='phys'] alternates between 0.3 (seed script) and 0.6.
	altered := strings.Replace(takesScript, "{'math':0.3, 'phys':0.3, 'chem':0.4}", "{'math':0.2, 'phys':0.6, 'chem':0.2}", 1)
	e := newEngine(t, Options{CacheSize: 4, Workers: 4}, takesScript)
	const query = "project[1](select[$2 = 'phys'](Takes))"

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := e.Execute(Request{Query: query})
				if err != nil {
					t.Error(err)
					return
				}
				for _, ta := range res.Tuples {
					if ta.Tuple.String() != "('Bob')" {
						continue
					}
					if math.Abs(ta.P-0.3) > 1e-12 && math.Abs(ta.P-0.6) > 1e-12 {
						t.Errorf("stale or torn marginal %.17g (catalog v%d): want exactly 0.3 or 0.6", ta.P, res.CatalogVersion)
					}
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		// Ensure a plan against the current version is cached, so the
		// following Put deterministically exercises precise invalidation.
		if _, err := e.Execute(Request{Query: query}); err != nil {
			t.Fatal(err)
		}
		script := takesScript
		if i%2 == 0 {
			script = altered
		}
		pt, err := parser.ParseTableString(script)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.PutParsed(pt); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// The last Put installed the seed distribution again (i=29 odd).
	res, err := e.Execute(Request{Query: query})
	if err != nil {
		t.Fatal(err)
	}
	for _, ta := range res.Tuples {
		if ta.Tuple.String() == "('Bob')" && math.Abs(ta.P-0.3) > 1e-12 {
			t.Errorf("after writers stopped: marginal %.17g, want 0.3 (stale plan served)", ta.P)
		}
	}
	if s := e.Stats(); s.Invalidations == 0 {
		t.Errorf("expected plan-cache invalidations under concurrent replacement, got stats %+v", s)
	}
}

// The engine always rewrites plans; rewriting must not change any marginal:
// every answer equals the unrewritten plan's, evaluated directly on the
// operator core over the same snapshot.
func TestRewritesDoNotChangeAnswers(t *testing.T) {
	queries := []string{
		"project[1](select[$2 = 'phys'](Takes))",
		"project[1,4](Takes join[$2 = $3] Labs)",
		"select[$1 != 'Bob'](Takes) minus select[$2 = 'math'](Takes)",
	}
	e := newEngine(t, Options{}, takesScript, labsScript)
	env, err := e.Catalog().Snapshot().Env([]string{"Takes", "Labs"})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		res, err := e.Execute(Request{Query: q})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		pq, err := parser.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		unrewritten, err := pctable.EvalQueryEnvWithOptions(pq, env, ctable.Options{Simplify: true})
		if err != nil {
			t.Fatalf("%s (rewrites off): %v", q, err)
		}
		want, err := unrewritten.TupleProbabilities()
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]float64)
		for _, ta := range res.Tuples {
			if ta.P > 0 {
				got[ta.Tuple.Key()] = ta.P
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d possible answers, unrewritten plan has %d", q, len(got), len(want))
		}
		for _, w := range want {
			if p, ok := got[w.Tuple.Key()]; !ok || math.Abs(p-w.P) > 1e-12 {
				t.Errorf("%s: P[%s] = %.17g (present %v), unrewritten %.17g", q, w.Tuple, p, ok, w.P)
			}
		}
	}
}

// The batch path amortizes snapshotting and cache lookups; this benchmark
// backs the EXPERIMENTS.md claim that batch beats N single calls.
func BenchmarkBatchVsSingle(b *testing.B) {
	cat, reqs := benchSetup(b)
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, r := range reqs {
				if _, err := cat.Execute(r); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			items, _ := cat.ExecuteBatch(reqs)
			for _, it := range items {
				if it.Err != nil {
					b.Fatal(it.Err)
				}
			}
		}
	})
}

func benchSetup(b *testing.B) (*Engine, []Request) {
	b.Helper()
	cat := catalog.New()
	eng := New(cat, Options{})
	for _, s := range []string{takesScript, labsScript} {
		if _, err := eng.LoadCatalogScript(strings.NewReader(s)); err != nil {
			b.Fatal(err)
		}
	}
	subjects := []string{"phys", "chem", "math", "bio"}
	reqs := make([]Request, 0, 16)
	for i := 0; i < 16; i++ {
		reqs = append(reqs, Request{Query: fmt.Sprintf("project[1](select[$2 = '%s'](Takes))", subjects[i%len(subjects)])})
	}
	// Warm the plan cache so both paths measure steady-state serving.
	for _, r := range reqs {
		if _, err := eng.Execute(r); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	return eng, reqs
}
