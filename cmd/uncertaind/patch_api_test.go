package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"uncertaindb/internal/httpapi"
	"uncertaindb/pkg/uncertain"
)

// A PUT or PATCH that gives a variable a distribution other than the one
// another table gives it is refused with 400 when it is written, so no later
// query fails on the pair; the catalog stays as it was.
func TestConflictingDistsRefused(t *testing.T) {
	srv, db := newTestServer(t)
	putTakes(t, srv)
	if status, body := doJSON(t, http.MethodPut, srv.URL+"/v1/tables/Labs", labsScript); status != http.StatusOK {
		t.Fatalf("PUT Labs: %d %s", status, body)
	}
	writes := []struct{ method, table, body string }{
		{http.MethodPut, "Other", "table Other arity 1\nrow x\ndist x = {'math':0.5, 'phys':0.5}\n"},
		{http.MethodPatch, "Labs", "upsert 'chem', t\ndist t = {0:0.5, 1:0.5}\n"},
	}
	for _, w := range writes {
		status, body := doJSON(t, w.method, srv.URL+"/v1/tables/"+w.table, w.body)
		if status != http.StatusBadRequest || !strings.Contains(string(body), "conflicting distributions") {
			t.Errorf("%s %s: %d %s, want 400 naming the conflict", w.method, w.table, status, body)
		}
	}
	if v := db.CatalogVersion(); v != 2 {
		t.Errorf("catalog version %d after refused writes, want 2", v)
	}
	postQuery(t, srv, `{"query": "project[1,4](Takes join[$2 = $3] Labs)"}`)
}

// PATCH /v1/tables/{name} applies a row-level mutation and the engine
// maintains dependent cached plans in place: the follow-up query is a cache
// hit that already reflects the patch, and /v1/stats counts the maintenance.
func TestPatchEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)

	cold := postPath(t, srv, "/v1/query", `{"query": "select[$2 = 'math'](Takes)"}`)
	if cold.CacheHit {
		t.Fatalf("first query must compile: %+v", cold)
	}

	status, body := doJSON(t, http.MethodPatch, srv.URL+"/v1/tables/Takes", "upsert 'Dana', 'math'\n")
	if status != http.StatusOK {
		t.Fatalf("PATCH /v1/tables/Takes: %d %s", status, body)
	}
	var patched struct {
		Name           string `json:"name"`
		CatalogVersion uint64 `json:"catalogVersion"`
	}
	if err := json.Unmarshal(body, &patched); err != nil {
		t.Fatal(err)
	}
	if patched.Name != "Takes" || patched.CatalogVersion != 2 {
		t.Fatalf("patch response = %+v, want Takes @ catalog version 2", patched)
	}

	warm := postPath(t, srv, "/v1/query", `{"query": "select[$2 = 'math'](Takes)"}`)
	if !warm.CacheHit {
		t.Errorf("query after patch must hit the maintained plan: %+v", warm)
	}
	if warm.CatalogVersion != 2 {
		t.Errorf("maintained result at catalog version %d, want 2", warm.CatalogVersion)
	}
	if !strings.Contains(warm.Answer, "Dana") {
		t.Errorf("maintained answer missing the patched row:\n%s", warm.Answer)
	}

	status, body = doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d %s", status, body)
	}
	var stats struct {
		Engine struct {
			Maintenance struct {
				PatchesApplied  uint64 `json:"patchesApplied"`
				PlansMaintained uint64 `json:"plansMaintained"`
				DeltaAppends    uint64 `json:"deltaAppends"`
			} `json:"maintenance"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("bad stats %s: %v", body, err)
	}
	m := stats.Engine.Maintenance
	if m.PatchesApplied != 1 || m.PlansMaintained != 1 || m.DeltaAppends != 1 {
		t.Errorf("maintenance stats = %+v, want 1 patch, 1 plan maintained via delta append", m)
	}

	// Error surface: unknown table is 404, a bad script is 400.
	if status, _ := doJSON(t, http.MethodPatch, srv.URL+"/v1/tables/Nope", "upsert 'x'\n"); status != http.StatusNotFound {
		t.Errorf("PATCH unknown table: status %d, want 404", status)
	}
	if status, _ := doJSON(t, http.MethodPatch, srv.URL+"/v1/tables/Takes", "replace 'x'\n"); status != http.StatusBadRequest {
		t.Errorf("PATCH bad directive: status %d, want 400", status)
	}
	if status, _ := doJSON(t, http.MethodPatch, srv.URL+"/v1/tables/Takes", "upsert 'only-one-cell'\n"); status != http.StatusBadRequest {
		t.Errorf("PATCH arity mismatch: status %d, want 400", status)
	}
}

// The change feed reports patches with kind "patch" and the canonical patch
// script, which is what followers re-apply.
func TestPatchChangeFeed(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)
	if status, body := doJSON(t, http.MethodPatch, srv.URL+"/v1/tables/Takes", "delete 'Theo', 'math' | t = 1\n"); status != http.StatusOK {
		t.Fatalf("PATCH: %d %s", status, body)
	}

	status, body := doJSON(t, http.MethodGet, srv.URL+"/v1/changes?from=1", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/changes: %d %s", status, body)
	}
	var resp changesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Changes) != 1 {
		t.Fatalf("changes = %d, want 1: %s", len(resp.Changes), body)
	}
	ch := resp.Changes[0]
	if ch.Kind != "patch" || ch.Version != 2 || ch.Name != "Takes" {
		t.Fatalf("change = %+v, want patch v2 on Takes", ch)
	}
	if len(ch.Patch) == 0 {
		t.Fatalf("patch change carries no patch script: %+v", ch)
	}
	if len(ch.Table) != 0 {
		t.Fatalf("patch change must not ship the whole table: %d table bytes", len(ch.Table))
	}
}

// POST /v1/subscribe streams NDJSON results: the initial answer immediately,
// then one line per relevant mutation, closing after maxUpdates. Mutations
// of unrelated tables push nothing.
func TestSubscribeEndpoint(t *testing.T) {
	srv, db := newTestServer(t)
	putTakes(t, srv)
	if _, _, err := db.PutTableScript("table Other arity 1\nrow 'z'\n"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/v1/subscribe", "application/json",
		strings.NewReader(`{"query": "select[$2 = 'math'](Takes)", "maxUpdates": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/subscribe: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(make([]byte, 0, 1<<20), 1<<20)

	readResult := func(label string) queryResponse {
		t.Helper()
		if !lines.Scan() {
			t.Fatalf("%s: stream ended early: %v", label, lines.Err())
		}
		var qr queryResponse
		if err := json.Unmarshal(lines.Bytes(), &qr); err != nil {
			t.Fatalf("%s: bad stream line %s: %v", label, lines.Bytes(), err)
		}
		assertAnswerIsTable(t, qr.Answer)
		return qr
	}

	initial := readResult("initial")
	if initial.CatalogVersion != 2 || strings.Contains(initial.Answer, "Dana") {
		t.Fatalf("initial result = %+v", initial)
	}

	// An unrelated mutation must not push; the relevant patch must. Both are
	// applied before reading so the test never races the coalescing loop:
	// whatever line arrives next has to be the post-patch answer.
	if _, _, err := db.PutTableScript("table Other arity 1\nrow 'y'\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.PatchTableScript("Takes", "upsert 'Dana', 'math'\n"); err != nil {
		t.Fatal(err)
	}
	update := readResult("update")
	if !strings.Contains(update.Answer, "Dana") {
		t.Fatalf("pushed update does not reflect the patch:\n%s", update.Answer)
	}
	if update.CatalogVersion != 4 {
		t.Errorf("update at catalog version %d, want 4", update.CatalogVersion)
	}
	if !update.CacheHit {
		t.Errorf("subscription re-execution must hit the maintained plan: %+v", update)
	}
	if lines.Scan() {
		t.Fatalf("stream must close after maxUpdates=2, got extra line %s", lines.Bytes())
	}

	// Bad subscribe requests fail before any streaming.
	if status, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/subscribe", `{"maxUpdates": 1}`); status != http.StatusBadRequest {
		t.Errorf("subscribe without query: status %d, want 400", status)
	}
	if status, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/subscribe", `{"query": "project[1](Nope)", "maxUpdates": 1}`); status != http.StatusNotFound {
		t.Errorf("subscribe on unknown table: status %d, want 404", status)
	}
}

// -max-subscriptions bounds concurrent streams: the excess subscriber is
// refused with 503 while a stream is held open, and admitted after it ends.
func TestSubscribeLimit(t *testing.T) {
	db := uncertain.MustOpen(uncertain.Config{})
	if _, _, err := db.PutTableScript(takesScript); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.NewWithOptions(db, httpapi.Options{MaxSubscriptions: 1}))
	defer srv.Close()

	held, err := http.Post(srv.URL+"/v1/subscribe", "application/json",
		strings.NewReader(`{"query": "project[1](Takes)", "maxUpdates": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	defer held.Body.Close()
	holder := bufio.NewScanner(held.Body)
	if !holder.Scan() {
		t.Fatalf("held stream produced no initial result: %v", holder.Err())
	}

	status, body := doJSON(t, http.MethodPost, srv.URL+"/v1/subscribe", `{"query": "project[1](Takes)", "maxUpdates": 1}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("second subscriber: status %d (%s), want 503", status, body)
	}

	// Release the slot (second update closes the held stream at maxUpdates)
	// and the next subscriber is admitted.
	if _, err := db.PatchTableScript("Takes", "upsert 'Dana', 'math'\n"); err != nil {
		t.Fatal(err)
	}
	for holder.Scan() {
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _ = doJSON(t, http.MethodPost, srv.URL+"/v1/subscribe", `{"query": "project[1](Takes)", "maxUpdates": 1}`)
		if status == http.StatusOK || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status != http.StatusOK {
		t.Fatalf("subscriber after release: status %d, want 200", status)
	}
}
