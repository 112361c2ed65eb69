package uncertain_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"uncertaindb/pkg/uncertain"
)

const takesScript = `table Takes arity 2
row 'Alice', x
row 'Bob',   x | x = 'phys' || x = 'chem'
row 'Theo',  'math' | t = 1
dist x = {'math':0.3, 'phys':0.3, 'chem':0.4}
dist t = {0:0.15, 1:0.85}
`

const plainScript = `table S arity 2
row 1, x
row 2, 3 | x != 1
dom x = {1, 2}
`

func TestDBQueryLifecycle(t *testing.T) {
	db := uncertain.MustOpen(uncertain.Config{})
	name, v1, err := db.PutTableScript(takesScript)
	if err != nil {
		t.Fatal(err)
	}
	if name != "Takes" || v1 == 0 {
		t.Fatalf("PutTableScript = (%q, %d)", name, v1)
	}
	version, infos := db.Tables()
	if version != v1 || len(infos) != 1 || infos[0].Name != "Takes" || !infos[0].Probabilistic {
		t.Fatalf("Tables() = (%d, %+v)", version, infos)
	}
	if _, text, ok := db.Table("Takes"); !ok || !strings.Contains(text, "Alice") {
		t.Fatalf("Table(Takes) = (%q, %v)", text, ok)
	}

	res, err := db.Query(uncertain.Request{Query: "project[1](select[$2 = 'phys'](Takes))"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"('Alice')": 0.3, "('Bob')": 0.3}
	if len(res.Tuples) != len(want) {
		t.Fatalf("tuples = %v", res.Tuples)
	}
	for _, ta := range res.Tuples {
		if w, ok := want[ta.Tuple.String()]; !ok || math.Abs(ta.P-w) > 1e-12 {
			t.Errorf("marginal %s = %g, want %g", ta.Tuple, ta.P, w)
		}
	}

	if ok, err := db.DropTable("Takes"); err != nil || !ok {
		t.Fatalf("DropTable = %v, %v, want true, nil", ok, err)
	}
	if _, err := db.Query(uncertain.Request{Query: "project[1](Takes)"}); !errors.Is(err, uncertain.ErrUnknownTable) {
		t.Fatalf("after drop: err = %v, want ErrUnknownTable", err)
	}
	if _, err := db.Query(uncertain.Request{Query: "select[("}); !errors.Is(err, uncertain.ErrBadQuery) {
		t.Fatalf("parse failure: err = %v, want ErrBadQuery", err)
	}
}

func TestDBQueryBatch(t *testing.T) {
	db := uncertain.MustOpen(uncertain.Config{})
	if _, _, err := db.PutTableScript(takesScript); err != nil {
		t.Fatal(err)
	}
	items, version := db.QueryBatch([]uncertain.Request{
		{Query: "project[1](Takes)"},
		{Query: "project[9](Takes)"}, // arity violation: per-item error
		{Query: "project[1](Takes)"},
	})
	if len(items) != 3 {
		t.Fatalf("items = %d", len(items))
	}
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("unexpected errors: %v, %v", items[0].Err, items[2].Err)
	}
	if !errors.Is(items[1].Err, uncertain.ErrBadQuery) {
		t.Fatalf("item 1 err = %v, want ErrBadQuery", items[1].Err)
	}
	if items[0].Result.CatalogVersion != version || items[2].Result.CatalogVersion != version {
		t.Error("batch items saw a different catalog version than the batch snapshot")
	}
	// A second batch of the same query runs off the plan cache.
	items2, _ := db.QueryBatch([]uncertain.Request{{Query: "project[1](Takes)"}})
	if items2[0].Err != nil || !items2[0].Result.CacheHit {
		t.Errorf("second batch should hit the plan cache: %+v", items2[0])
	}
	if s := db.Stats(); s.Executions == 0 {
		t.Errorf("stats not counting: %+v", s)
	}
}

func TestTableLevelPlain(t *testing.T) {
	tab, err := uncertain.ParseTable(plainScript)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Probabilistic() {
		t.Fatal("plain table misclassified")
	}
	answer, err := tab.Query("project[1](S)")
	if err != nil {
		t.Fatal(err)
	}
	worlds, err := answer.Worlds()
	if err != nil {
		t.Fatal(err)
	}
	// x=1: {(1)}; x=2: {(1), (2)}.
	if len(worlds) != 2 {
		t.Fatalf("worlds = %v", worlds)
	}
	certain, possible, err := answer.CertainPossible()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(certain, "(1)") || strings.Contains(certain, "(2)") {
		t.Errorf("certain = %s", certain)
	}
	if !strings.Contains(possible, "(2)") {
		t.Errorf("possible = %s", possible)
	}
}

func TestTableLevelMarginals(t *testing.T) {
	tab, err := uncertain.ParseTable(takesScript)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := tab.Query("project[1](select[$2 = 'phys'](Takes))")
	if err != nil {
		t.Fatal(err)
	}
	exact, err := answer.Marginals("circuit")
	if err != nil {
		t.Fatal(err)
	}
	enum, err := answer.Marginals("enum")
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != len(enum) || len(exact) == 0 {
		t.Fatalf("circuit %v vs enum %v", exact, enum)
	}
	est, err := answer.Estimate(20000, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if exact[i].Tuple.Key() != enum[i].Tuple.Key() || math.Abs(exact[i].P-enum[i].P) > 1e-12 {
			t.Errorf("marginal %d: %v vs %v", i, exact[i], enum[i])
		}
		for _, e := range est {
			if e.Tuple.Key() == exact[i].Tuple.Key() && math.Abs(e.P-exact[i].P) > 5*e.StdErr+2e-2 {
				t.Errorf("estimate %v too far from exact %v", e, exact[i])
			}
		}
	}
	// The default and the dtree alias are the circuit engine.
	for _, name := range []string{"", "dtree"} {
		alias, err := answer.Marginals(name)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(alias) != fmt.Sprint(exact) {
			t.Errorf("Marginals(%q) = %v, circuit %v", name, alias, exact)
		}
	}
	if _, err := answer.Marginals("bogus"); !errors.Is(err, uncertain.ErrBadQuery) {
		t.Errorf("unknown engine: err = %v, want ErrBadQuery", err)
	}
}
