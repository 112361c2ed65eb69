package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"uncertaindb/internal/parser"
	"uncertaindb/pkg/uncertain"
)

// startDaemon launches run() with the given extra flags on an ephemeral port
// and returns the base URL plus a shutdown function that cancels the context
// (the SIGTERM path) and waits for a clean exit.
func startDaemon(t *testing.T, extra ...string) (base string, out *syncWriter, shutdown func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out = &syncWriter{}
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() { done <- run(ctx, args, out) }()
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never announced its address; output so far:\n%s", out.String())
		}
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	shutdown = func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v, want nil on graceful shutdown", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("daemon did not shut down within 5s")
		}
	}
	return base, out, shutdown
}

// Satellite: a SIGTERM'd server loses zero acknowledged mutations. Every
// PUT and DELETE acknowledged over HTTP before the signal must be present,
// at the same versions, after a restart over the same data directory.
func TestRunDurableSurvivesSigterm(t *testing.T) {
	dir := t.TempDir()
	base, _, shutdown := startDaemon(t, "-data-dir", dir)

	srvURL := base
	status, body := doJSON(t, http.MethodPut, srvURL+"/v1/tables/Takes", takesScript)
	if status != http.StatusOK {
		t.Fatalf("PUT Takes: %d %s", status, body)
	}
	// Replace it so the entry version moves past 1, and add a second table.
	if status, body = doJSON(t, http.MethodPut, srvURL+"/v1/tables/Takes", takesScript); status != http.StatusOK {
		t.Fatalf("re-PUT Takes: %d %s", status, body)
	}
	second := strings.Replace(takesScript, "table Takes", "table Enrolled", 1)
	if status, body = doJSON(t, http.MethodPut, srvURL+"/v1/tables/Enrolled", second); status != http.StatusOK {
		t.Fatalf("PUT Enrolled: %d %s", status, body)
	}
	if status, body = doJSON(t, http.MethodDelete, srvURL+"/v1/tables/Enrolled", ""); status != http.StatusOK {
		t.Fatalf("DELETE Enrolled: %d %s", status, body)
	}
	_, before := doJSON(t, http.MethodGet, srvURL+"/v1/tables", "")
	shutdown() // the SIGTERM path: context cancel → graceful drain → WAL flush

	base2, out2, shutdown2 := startDaemon(t, "-data-dir", dir)
	defer shutdown2()
	if !strings.Contains(out2.String(), "recovered "+dir+": catalog version 4, 1 tables") {
		t.Errorf("startup output missing the recovery banner:\n%s", out2.String())
	}
	status, after := doJSON(t, http.MethodGet, base2+"/v1/tables", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/tables after restart: %d %s", status, after)
	}
	if string(after) != string(before) {
		t.Fatalf("catalog changed across SIGTERM + restart:\n%s\nvs\n%s", after, before)
	}
	// The recovered catalog serves queries.
	status, resp := doJSON(t, http.MethodPost, base2+"/v1/query", `{"query": "project[1](Takes)"}`)
	if status != http.StatusOK {
		t.Fatalf("query after restart: %d %s", status, resp)
	}
}

// A table name travels in URLs, JSON bodies and log headers: one that is
// not UTF-8 is refused, and a UTF-8 name beyond ASCII survives a restart
// byte for byte.
func TestDurableTableNamesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	base, _, shutdown := startDaemon(t, "-data-dir", dir)
	raw := strings.Replace(takesScript, "table Takes", "table \xff", 1)
	if status, body := doJSON(t, http.MethodPut, base+"/v1/tables/%FF", raw); status != http.StatusBadRequest {
		t.Fatalf("PUT of a non-UTF-8 name: %d %s, want 400", status, body)
	}
	utf := strings.Replace(takesScript, "table Takes", "table Kurs€", 1)
	if status, body := doJSON(t, http.MethodPut, base+"/v1/tables/Kurs%E2%82%AC", utf); status != http.StatusOK {
		t.Fatalf("PUT Kurs€: %d %s", status, body)
	}
	_, before := doJSON(t, http.MethodGet, base+"/v1/tables", "")
	shutdown()

	base2, out2, shutdown2 := startDaemon(t, "-data-dir", dir)
	defer shutdown2()
	if !strings.Contains(out2.String(), "catalog version 1, 1 tables") {
		t.Errorf("startup output missing the recovery banner:\n%s", out2.String())
	}
	if _, after := doJSON(t, http.MethodGet, base2+"/v1/tables", ""); string(after) != string(before) {
		t.Fatalf("catalog changed across restart:\n%s\nvs\n%s", after, before)
	}
}

func getChanges(t *testing.T, url string) (int, changesResponse) {
	t.Helper()
	status, body := doJSON(t, http.MethodGet, url, "")
	var resp changesResponse
	if status == http.StatusOK {
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("bad changes response %s: %v", body, err)
		}
	}
	return status, resp
}

func TestChangesEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)
	if status, _ := doJSON(t, http.MethodDelete, srv.URL+"/v1/tables/Takes", ""); status != http.StatusOK {
		t.Fatal("DELETE failed")
	}
	putTakes(t, srv)

	status, resp := getChanges(t, srv.URL+"/v1/changes?from=0")
	if status != http.StatusOK || resp.CatalogVersion != 3 || len(resp.Changes) != 3 {
		t.Fatalf("GET /v1/changes?from=0 = %d %+v, want 3 changes at version 3", status, resp)
	}
	if resp.Changes[0].Kind != "put" || resp.Changes[1].Kind != "delete" || resp.Changes[2].Kind != "put" {
		t.Fatalf("change kinds = %+v, want put, delete, put", resp.Changes)
	}
	// The table payload is the table's canonical script: it parses back and
	// renders to the same bytes.
	if pt, err := parser.ParseTableString(resp.Changes[2].Table); err != nil || parser.Script(pt.Name, pt.PCTable) != resp.Changes[2].Table {
		t.Fatalf("change payload is not a canonical script (parse error %v):\n%s", err, resp.Changes[2].Table)
	}
	// Paging.
	status, resp = getChanges(t, srv.URL+"/v1/changes?from=0&limit=2")
	if status != http.StatusOK || len(resp.Changes) != 2 || resp.Changes[1].Version != 2 {
		t.Fatalf("limited page = %d %+v, want versions 1, 2", status, resp)
	}
	status, resp = getChanges(t, srv.URL+fmt.Sprintf("/v1/changes?from=%d", resp.Changes[1].Version))
	if status != http.StatusOK || len(resp.Changes) != 1 || resp.Changes[0].Version != 3 {
		t.Fatalf("second page = %d %+v, want just version 3", status, resp)
	}

	// Error classification: unparsable and from-the-future are 400.
	if status, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/changes?from=bogus", ""); status != http.StatusBadRequest {
		t.Errorf("from=bogus: status %d, want 400", status)
	}
	if status, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/changes?from=99", ""); status != http.StatusBadRequest {
		t.Errorf("from=99 (future): status %d, want 400", status)
	}

	// Long-poll: a concurrent PUT wakes a waiting GET.
	type result struct {
		status int
		resp   changesResponse
	}
	got := make(chan result, 1)
	go func() {
		status, resp := getChanges(t, srv.URL+"/v1/changes?from=3&wait_ms=5000")
		got <- result{status, resp}
	}()
	time.Sleep(20 * time.Millisecond)
	putTakes(t, srv)
	select {
	case r := <-got:
		if r.status != http.StatusOK || len(r.resp.Changes) != 1 || r.resp.Changes[0].Version != 4 {
			t.Fatalf("long-poll = %d %+v, want the v4 put", r.status, r.resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke up")
	}
}

// History compacted away answers 410 Gone: the replication protocol's
// re-sync signal.
func TestChangesEndpointGoneAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := uncertain.Open(uncertain.Config{DataDir: dir, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := db.PutTableScript(takesScript); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := uncertain.Open(uncertain.Config{DataDir: dir, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	srv := httptest.NewServer(newHandler(db2))
	t.Cleanup(srv.Close)

	if status, body := doJSON(t, http.MethodGet, srv.URL+"/v1/changes?from=0", ""); status != http.StatusGone {
		t.Fatalf("compacted from: status %d (%s), want 410 Gone", status, body)
	}
	if status, _ := getChanges(t, srv.URL+"/v1/changes?from=4"); status != http.StatusOK {
		t.Fatalf("head read after compaction: status %d, want 200", status)
	}
}
