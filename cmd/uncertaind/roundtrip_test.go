package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"uncertaindb/internal/wal"
	"uncertaindb/pkg/uncertain"
)

// quirksScript holds what a display rendering loses: a string with a quote,
// a null, a '|' inside a cell, nested negation, and a declared domain wider
// than its distribution's support. Its variables are its own: Takes gives x
// another distribution, and a catalog refuses that.
const quirksScript = `table Quirks arity 2
row "it's", w | !(w = 1 || w = 2) && y != -3
row null, 'a|b' | y = 0
dist w = {1: 0.25, 2: 0, 3: 0.75}
dist y = {-3: 0.5, 0: 0.5}
dom w = {1, 2, 3, 4}
`

// GET /v1/tables/{name} returns the table's canonical script, so a PUT of
// the GET body reproduces the table: every table's snapshot bytes (versions
// aside) and every query body (versions and timings aside) stay the same.
func TestGetPutRoundTrip(t *testing.T) {
	srv, db := newTestServer(t)
	scripts := map[string]string{"Takes": takesScript, "Labs": labsScript, "Quirks": quirksScript}
	for name, script := range scripts {
		if status, body := doJSON(t, http.MethodPut, srv.URL+"/v1/tables/"+name, script); status != http.StatusOK {
			t.Fatalf("PUT %s: %d %s", name, status, body)
		}
	}
	queries := []string{
		`{"query": "project[1](select[$2 = 'phys'](Takes))"}`,
		`{"query": "project[1,4](Takes join[$2 = $3] Labs)"}`,
		`{"query": "Quirks"}`,
		`{"query": "project[2](Quirks)", "engine": "enum"}`,
	}
	tablesBefore, bodiesBefore := tableStates(t, db), queryBodies(t, srv.URL, queries)

	texts := map[string]string{}
	for name := range scripts {
		texts[name] = getTableText(t, srv.URL, name)
		if status, body := doJSON(t, http.MethodPut, srv.URL+"/v1/tables/"+name, texts[name]); status != http.StatusOK {
			t.Fatalf("PUT of the GET body of %s: %d %s\n%s", name, status, body, texts[name])
		}
	}

	tablesAfter, bodiesAfter := tableStates(t, db), queryBodies(t, srv.URL, queries)
	for name, want := range tablesBefore {
		if !bytes.Equal(tablesAfter[name], want) {
			t.Errorf("%s: snapshot bytes changed across GET → PUT:\n%s", name, texts[name])
		}
		if again := getTableText(t, srv.URL, name); again != texts[name] {
			t.Errorf("%s: GET body changed across GET → PUT:\n%s\nvs\n%s", name, texts[name], again)
		}
	}
	for i := range queries {
		if !bytes.Equal(bodiesBefore[i], bodiesAfter[i]) {
			t.Errorf("query %s: body changed across GET → PUT:\n%s\nvs\n%s", queries[i], bodiesBefore[i], bodiesAfter[i])
		}
	}
}

func getTableText(t *testing.T, base, name string) string {
	t.Helper()
	status, body := doJSON(t, http.MethodGet, base+"/v1/tables/"+name, "")
	var resp struct {
		Text string `json:"text"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &resp) != nil {
		t.Fatalf("GET /v1/tables/%s: %d %s", name, status, body)
	}
	return resp.Text
}

// tableStates returns each table's canonical snapshot bytes, with the
// catalog and table versions zeroed.
func tableStates(t *testing.T, db *uncertain.DB) map[string][]byte {
	t.Helper()
	data, _, _ := db.SnapshotBytes()
	st, err := wal.DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, ts := range st.Tables {
		ts.Version = 0
		out[ts.Name] = wal.EncodeState(&wal.State{Tables: []wal.TableState{ts}})
	}
	return out
}

// queryBodies posts every query and returns the response bodies without
// their catalog version, cache flag and timings.
func queryBodies(t *testing.T, base string, queries []string) [][]byte {
	t.Helper()
	out := make([][]byte, len(queries))
	for i, q := range queries {
		status, body := doJSON(t, http.MethodPost, base+"/v1/query", q)
		var m map[string]any
		if status != http.StatusOK || json.Unmarshal(body, &m) != nil {
			t.Fatalf("POST /v1/query %s: %d %s", q, status, body)
		}
		for _, k := range []string{"catalogVersion", "cacheHit", "prepareMicros", "execMicros"} {
			delete(m, k)
		}
		out[i], _ = json.Marshal(m)
	}
	return out
}
