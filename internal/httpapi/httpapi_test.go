package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
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

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	db, err := uncertain.Open(uncertain.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := httptest.NewServer(New(db))
	t.Cleanup(srv.Close)

	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/tables/Takes", strings.NewReader(takesScript))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("put table: %s: %s", resp.Status, body)
	}
	return srv
}

// postQuery posts a /v1/query body and returns the status code and decoded
// JSON object.
func postQuery(t *testing.T, srv *httptest.Server, body map[string]any) (int, map[string]json.RawMessage) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestQueryUnknownEngineIs400 is the contract for an invalid "engine": 400
// with a message enumerating every valid engine, auto included.
func TestQueryUnknownEngineIs400(t *testing.T) {
	srv := newTestServer(t)
	status, out := postQuery(t, srv, map[string]any{"query": "Takes", "engine": "quantum"})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", status)
	}
	var msg string
	if err := json.Unmarshal(out["error"], &msg); err != nil {
		t.Fatalf("no error message in %v", out)
	}
	for _, name := range []string{"auto", "circuit", "dtree", "enum", "mc"} {
		if !strings.Contains(msg, name) {
			t.Fatalf("error %q does not list engine %q", msg, name)
		}
	}
}

// TestQueryWorkersBeyondBoundIs400 is the contract for the Monte-Carlo
// "workers" field: at most the server's worker bound (GOMAXPROCS by
// default), otherwise 400 naming the bound before any shard is allocated.
func TestQueryWorkersBeyondBoundIs400(t *testing.T) {
	srv := newTestServer(t)
	bound := runtime.GOMAXPROCS(0)
	status, out := postQuery(t, srv, map[string]any{"query": "Takes", "engine": "mc", "samples": 1e9, "workers": 1e9})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%v)", status, out)
	}
	var msg string
	if err := json.Unmarshal(out["error"], &msg); err != nil {
		t.Fatalf("no error message in %v", out)
	}
	if !strings.Contains(msg, fmt.Sprintf("bound of %d", bound)) {
		t.Fatalf("error %q does not name the bound %d", msg, bound)
	}
	if status, out := postQuery(t, srv, map[string]any{"query": "Takes", "engine": "mc", "samples": 100, "workers": bound}); status != http.StatusOK {
		t.Fatalf("workers at the bound: status %d (%v), want 200", status, out)
	}
}

// TestQueryWhatIfDistributions: the "distributions" override changes the
// marginals, is flagged whatIf, and never pollutes the cached base answer.
func TestQueryWhatIfDistributions(t *testing.T) {
	srv := newTestServer(t)
	const query = "project[1](Takes)"

	tupleP := func(out map[string]json.RawMessage) map[string]float64 {
		var tuples []struct {
			Tuple []any   `json:"tuple"`
			P     float64 `json:"p"`
		}
		if err := json.Unmarshal(out["tuples"], &tuples); err != nil {
			t.Fatal(err)
		}
		ps := make(map[string]float64, len(tuples))
		for _, ta := range tuples {
			ps[ta.Tuple[0].(string)] = ta.P
		}
		return ps
	}

	status, base := postQuery(t, srv, map[string]any{"query": query, "engine": "circuit"})
	if status != http.StatusOK {
		t.Fatalf("base query: status %d: %s", status, base["error"])
	}
	baseP := tupleP(base)

	status, whatIf := postQuery(t, srv, map[string]any{
		"query":  query,
		"engine": "circuit",
		"distributions": map[string]map[string]float64{
			"t": {"0": 0.99, "1": 0.01},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("what-if query: status %d: %s", status, whatIf["error"])
	}
	if string(whatIf["whatIf"]) != "true" {
		t.Fatalf("whatIf flag not set: %s", whatIf["whatIf"])
	}
	// Theo appears only under t = 1, so its marginal must track the override.
	wiP := tupleP(whatIf)
	if math.Abs(baseP["Theo"]-0.85) > 1e-12 || math.Abs(wiP["Theo"]-0.01) > 1e-12 {
		t.Fatalf("P[Theo] base %g (want 0.85), what-if %g (want 0.01)", baseP["Theo"], wiP["Theo"])
	}

	// The base answer must come back unchanged — and from the plan cache.
	status, again := postQuery(t, srv, map[string]any{"query": query, "engine": "circuit"})
	if status != http.StatusOK {
		t.Fatalf("repeat base query: status %d", status)
	}
	if string(again["cacheHit"]) != "true" {
		t.Fatalf("repeat base query missed the plan cache: %s", again["cacheHit"])
	}
	if p := tupleP(again)["Theo"]; p != baseP["Theo"] {
		t.Fatalf("what-if polluted the cached marginals: %g != %g", p, baseP["Theo"])
	}
}

// TestQueryBadDistributionsIs400: malformed what-if overrides are client
// errors, not 500s.
func TestQueryBadDistributionsIs400(t *testing.T) {
	srv := newTestServer(t)
	for name, dists := range map[string]map[string]map[string]float64{
		"unknown variable": {"zzz": {"1": 1.0}},
		"widened support":  {"x": {"'math'": 0.5, "'bio'": 0.5}},
		"bad literal":      {"t": {"oops!": 1.0}},
	} {
		status, out := postQuery(t, srv, map[string]any{
			"query":         "project[1](Takes)",
			"engine":        "dtree",
			"distributions": dists,
		})
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", name, status, out["error"])
		}
	}
}

// TestQueryAutoReportsSelection: engine=auto answers carry the effective
// engine and the selector's inputs.
func TestQueryAutoReportsSelection(t *testing.T) {
	srv := newTestServer(t)
	status, out := postQuery(t, srv, map[string]any{"query": "project[1](Takes)", "engine": "auto"})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out["error"])
	}
	var effective string
	if err := json.Unmarshal(out["effective"], &effective); err != nil || effective != "circuit" {
		t.Fatalf("effective = %s, want \"circuit\"", out["effective"])
	}
	var sel struct {
		Tuples int    `json:"tuples"`
		Vars   int    `json:"vars"`
		Chosen string `json:"chosen"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(out["selection"], &sel); err != nil {
		t.Fatalf("no selection in auto response: %v", err)
	}
	if sel.Chosen != "circuit" || sel.Tuples == 0 || sel.Reason == "" {
		t.Fatalf("bad selection %+v", sel)
	}
}
