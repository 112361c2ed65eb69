package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/value"
	"uncertaindb/pkg/uncertain"
)

const takesScript = `table Takes arity 2
row 'Alice', x
row 'Bob',   x | x = 'phys' || x = 'chem'
row 'Theo',  'math' | t = 1
dist x = {'math':0.3, 'phys':0.3, 'chem':0.4}
dist t = {0:0.15, 1:0.85}
`

func newTestServer(t *testing.T) (*httptest.Server, *uncertain.DB) {
	t.Helper()
	db := uncertain.MustOpen(uncertain.Config{})
	srv := httptest.NewServer(newHandler(db))
	t.Cleanup(srv.Close)
	return srv, db
}

func doJSON(t *testing.T, method, url string, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func putTakes(t *testing.T, srv *httptest.Server) {
	t.Helper()
	status, body := doJSON(t, http.MethodPut, srv.URL+"/v1/tables/Takes", takesScript)
	if status != http.StatusOK {
		t.Fatalf("PUT /v1/tables/Takes: status %d: %s", status, body)
	}
}

func postQuery(t *testing.T, srv *httptest.Server, reqBody string) queryResponse {
	t.Helper()
	status, body := doJSON(t, http.MethodPost, srv.URL+"/v1/query", reqBody)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/query: status %d: %s", status, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("bad query response %s: %v", body, err)
	}
	assertAnswerIsTable(t, qr.Answer)
	return qr
}

// assertAnswerIsTable checks that a response's answer is what PUT reads: the
// script of a table named answer, with no false row, declaring exactly the
// variables its rows mention.
func assertAnswerIsTable(t *testing.T, answer string) {
	t.Helper()
	pt, err := parser.ParseTableString(answer)
	if err != nil || pt.Name != "answer" {
		t.Fatalf("answer is not the script of a table named answer (%v):\n%s", err, answer)
	}
	for _, r := range pt.PCTable.Table().Rows() {
		if _, ok := r.Cond.(condition.FalseCond); ok {
			t.Fatalf("answer writes a false row:\n%s", answer)
		}
	}
	var declared []condition.Variable
	pt.PCTable.EachDomain(func(x condition.Variable, _ *value.Domain) { declared = append(declared, x) })
	slices.Sort(declared)
	if mentioned := pt.PCTable.Vars(); !slices.Equal(declared, mentioned) {
		t.Fatalf("answer declares %v, its rows mention %v:\n%s", declared, mentioned, answer)
	}
}

// Acceptance: marginals over HTTP equal pctable.AnswerTupleProbabilities on
// the same input, and responses are deterministic.
func TestQueryMatchesDirectComputation(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)
	const queryText = "project[1](select[$2 = 'phys'](Takes))"

	pt, err := parser.ParseTableString(takesScript)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.ParseQuery(queryText)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pt.PCTable.AnswerTupleProbabilities(q)
	if err != nil {
		t.Fatal(err)
	}

	reqBody := fmt.Sprintf(`{"query": %q}`, queryText)
	qr := postQuery(t, srv, reqBody)
	if len(qr.Tuples) != len(direct) {
		t.Fatalf("%d answers over HTTP, want %d: %+v", len(qr.Tuples), len(direct), qr)
	}
	for i, ta := range qr.Tuples {
		if math.Abs(ta.P-direct[i].P) > 1e-12 {
			t.Errorf("answer %d: P = %g over HTTP, %g direct", i, ta.P, direct[i].P)
		}
	}

	// Determinism: answers are identical across repeated requests (only
	// cache/latency metadata may differ).
	qr2 := postQuery(t, srv, reqBody)
	a, _ := json.Marshal(qr.Tuples)
	b, _ := json.Marshal(qr2.Tuples)
	if !bytes.Equal(a, b) {
		t.Errorf("non-deterministic answers: %s vs %s", a, b)
	}
	if !qr2.CacheHit {
		t.Error("second identical query must hit the plan cache")
	}
}

func TestQueryCertainPossibleAnswers(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)
	qr := postQuery(t, srv, `{"query": "project[1](Takes)"}`)
	if len(qr.Possible) != 3 {
		t.Errorf("possible = %v, want 3 students", qr.Possible)
	}
	// Alice's row is unconditional (P = 1); Bob needs x ∈ {phys, chem}
	// (P = 0.7) and Theo needs t = 1 (P = 0.85), so only Alice is certain.
	if len(qr.Certain) != 1 || fmt.Sprint(qr.Certain[0]) != "[Alice]" {
		t.Errorf("certain = %v, want [[Alice]]", qr.Certain)
	}
}

func TestTableEndpoints(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)

	status, body := doJSON(t, http.MethodGet, srv.URL+"/v1/tables", "")
	if status != http.StatusOK || !strings.Contains(string(body), `"Takes"`) {
		t.Fatalf("GET /v1/tables: %d %s", status, body)
	}
	status, body = doJSON(t, http.MethodGet, srv.URL+"/v1/tables/Takes", "")
	if status != http.StatusOK || !strings.Contains(string(body), `"probabilistic":true`) {
		t.Fatalf("GET /v1/tables/Takes: %d %s", status, body)
	}
	if status, _ = doJSON(t, http.MethodGet, srv.URL+"/v1/tables/Nope", ""); status != http.StatusNotFound {
		t.Errorf("GET /v1/tables/Nope: status %d, want 404", status)
	}
	// Script name must match the URL.
	if status, _ = doJSON(t, http.MethodPut, srv.URL+"/v1/tables/Other", takesScript); status != http.StatusBadRequest {
		t.Errorf("PUT with mismatched name: status %d, want 400", status)
	}
	if status, _ = doJSON(t, http.MethodPut, srv.URL+"/v1/tables/Bad", "garbage"); status != http.StatusBadRequest {
		t.Errorf("PUT with bad script: status %d, want 400", status)
	}
	if status, _ = doJSON(t, http.MethodDelete, srv.URL+"/v1/tables/Takes", ""); status != http.StatusOK {
		t.Errorf("DELETE /v1/tables/Takes: status %d, want 200", status)
	}
	if status, _ = doJSON(t, http.MethodDelete, srv.URL+"/v1/tables/Takes", ""); status != http.StatusNotFound {
		t.Errorf("second DELETE: status %d, want 404", status)
	}
}

func TestQueryErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)
	cases := []string{
		`not json`,
		`{}`,                    // missing query
		`{"query": "select[("}`, // parse error
		`{"query": "project[1](Takes)", "engine": "bogus"}`,
		`{"query": "project[1](Takes)", "unknown": 1}`, // unknown field
	}
	for _, body := range cases {
		status, resp := doJSON(t, http.MethodPost, srv.URL+"/v1/query", body)
		if status != http.StatusBadRequest {
			t.Errorf("body %s: status %d (%s), want 400", body, status, resp)
		}
		if !strings.Contains(string(resp), `"error"`) {
			t.Errorf("body %s: response %s has no error field", body, resp)
		}
	}
	// A query over an unknown table is a 404, not a 400 (typed errors).
	status, resp := doJSON(t, http.MethodPost, srv.URL+"/v1/query", `{"query": "project[1](Nope)"}`)
	if status != http.StatusNotFound || !strings.Contains(string(resp), `"error"`) {
		t.Errorf("unknown table: status %d (%s), want 404 with error field", status, resp)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)
	postQuery(t, srv, `{"query": "project[1](Takes)"}`)
	postQuery(t, srv, `{"query": "project[1](Takes)"}`)

	status, body := doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d %s", status, body)
	}
	var stats statsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("bad stats %s: %v", body, err)
	}
	if stats.Engine.Hits != 1 || stats.Engine.Misses != 1 {
		t.Errorf("stats = %+v, want hits=1 misses=1", stats.Engine)
	}
	if stats.CatalogVersion != 1 || len(stats.Tables) != 1 {
		t.Errorf("stats = %+v, want catalogVersion=1 and one table", stats)
	}
}

// Acceptance: concurrent clients (queries racing with a table replacement)
// must be race-clean and receive only valid answers.
func TestConcurrentClients(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)
	queries := []string{
		`{"query": "project[1](Takes)"}`,
		`{"query": "project[2](Takes)"}`,
		`{"query": "project[1](select[$2 = 'phys'](Takes))"}`,
		`{"query": "project[1](Takes)", "engine": "mc", "samples": 500}`,
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				body := queries[(w+i)%len(queries)]
				status, resp := doJSON(t, http.MethodPost, srv.URL+"/v1/query", body)
				if status != http.StatusOK {
					t.Errorf("POST /v1/query %s: %d %s", body, status, resp)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			status, resp := doJSON(t, http.MethodPut, srv.URL+"/v1/tables/Takes", takesScript)
			if status != http.StatusOK {
				t.Errorf("PUT /v1/tables/Takes: %d %s", status, resp)
				return
			}
		}
	}()
	wg.Wait()
}

// syncWriter lets the test read run()'s output while the daemon goroutine
// writes to it.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

var listenRe = regexp.MustCompile(`listening on (http://[^\s]+)`)

// The full daemon lifecycle: load a catalog script at startup, serve
// requests on an ephemeral port, shut down gracefully on context cancel.
func TestRunLifecycle(t *testing.T) {
	path := t.TempDir() + "/catalog.tbl"
	if err := os.WriteFile(path, []byte(takesScript), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-load", path}, out) }()

	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output so far:\n%s", out.String())
		}
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !strings.Contains(out.String(), "loaded "+path) {
		t.Errorf("startup output missing catalog load line:\n%s", out.String())
	}

	resp, err := http.Get(base + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"Takes"`) {
		t.Fatalf("GET /v1/tables on the live daemon: %d %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not shut down within 5s")
	}
	if !strings.Contains(out.String(), "shut down") {
		t.Errorf("output missing shutdown line:\n%s", out.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	if err := run(ctx, []string{"-badflag"}, &buf); err == nil {
		t.Error("bad flag must error")
	}
	if err := run(ctx, []string{"-load", "/nonexistent/catalog.tbl", "-addr", "127.0.0.1:0"}, &buf); err == nil {
		t.Error("missing catalog script must error")
	}
	if err := run(ctx, []string{"-h"}, &buf); err != nil {
		t.Errorf("-h must not error, got %v", err)
	}
	if !strings.Contains(buf.String(), "Usage of uncertaind") {
		t.Errorf("-h output missing usage:\n%s", buf.String())
	}
}

// A client that sends part of a request header and then stalls is cut off
// once readHeaderTimeout has passed, instead of holding its connection (and
// a server goroutine) open for good.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	t.Parallel()
	base, _, shutdown := startDaemon(t)
	defer shutdown()
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /v1/tables HTTP/1.1\r\nHost: uncertaind\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 3*time.Second))
	_, err = io.Copy(io.Discard, conn)
	elapsed := time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection with a partial header still open after %v", elapsed)
	}
	if elapsed < readHeaderTimeout-time.Second {
		t.Fatalf("connection closed after %v, before the %v header timeout (err %v)", elapsed, readHeaderTimeout, err)
	}
}
