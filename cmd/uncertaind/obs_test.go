package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"uncertaindb/pkg/uncertain"
)

// parsePrometheus checks the text exposition format line by line — every
// sample belongs to a family announced by # HELP and # TYPE, label blocks
// are well-formed, values parse as floats — and returns the samples keyed by
// full series name (metric plus label block).
func parsePrometheus(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	helps := make(map[string]bool)
	types := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition output")
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("malformed HELP line: %q", line)
			}
			helps[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			types[parts[0]] = parts[1]
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		series, value := line[:sp], line[sp+1:]
		name := series
		if br := strings.IndexByte(series, '{'); br >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated label block: %q", line)
			}
			name = series[:br]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) && types[strings.TrimSuffix(name, suffix)] == "histogram" {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if !helps[base] || types[base] == "" {
			t.Fatalf("sample %q has no preceding HELP/TYPE for %q", line, base)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: value does not parse: %v", line, err)
		}
		samples[series] = v
	}
	return samples
}

func scrapeMetrics(t *testing.T, srv *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parsePrometheus(t, string(data))
}

// The /metrics surface is well-formed Prometheus text, covers the metric
// families the PR promises, and its counters are monotonic across scrapes
// with queries in between.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)

	query := `{"query": "project[1](Takes)"}`
	for i := 0; i < 3; i++ {
		if status, body := doJSON(t, http.MethodPost, srv.URL+"/v1/query", query); status != http.StatusOK {
			t.Fatalf("query = %d: %s", status, body)
		}
	}
	first := scrapeMetrics(t, srv)
	for _, want := range []string{
		`uncertaindb_queries_total`,
		`uncertaindb_query_duration_seconds_count{path="cold"}`,
		`uncertaindb_query_duration_seconds_count{path="warm"}`,
		`uncertaindb_query_duration_seconds_bucket{path="warm",le="+Inf"}`,
		`uncertaindb_plan_cache_hits_total`,
		`uncertaindb_plan_cache_misses_total`,
		`uncertaindb_plan_cache_entries`,
		`uncertaindb_exec_rows_total{dir="in"}`,
		`uncertaindb_exec_rows_total{dir="out"}`,
		`uncertaindb_exec_hash_probes_total`,
		`uncertaindb_probcalc_circuit_compiles_total`,
		`uncertaindb_catalog_version`,
		`uncertaindb_slow_queries_total`,
	} {
		if _, ok := first[want]; !ok {
			t.Errorf("metric %s missing from /metrics", want)
		}
	}
	if got := first[`uncertaindb_queries_total`]; got != 3 {
		t.Errorf("queries_total = %v, want 3", got)
	}
	if got := first[`uncertaindb_plan_cache_hits_total`]; got != 2 {
		t.Errorf("plan_cache_hits_total = %v, want 2", got)
	}
	if got := first[`uncertaindb_query_duration_seconds_count{path="warm"}`]; got != 2 {
		t.Errorf("warm histogram count = %v, want 2", got)
	}

	// Histogram buckets are cumulative (non-decreasing in le order) and the
	// +Inf bucket equals _count.
	warmInf := first[`uncertaindb_query_duration_seconds_bucket{path="warm",le="+Inf"}`]
	if warmInf != first[`uncertaindb_query_duration_seconds_count{path="warm"}`] {
		t.Errorf("+Inf bucket %v != count", warmInf)
	}

	for i := 0; i < 2; i++ {
		if status, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/query", query); status != http.StatusOK {
			t.Fatal("query failed")
		}
	}
	second := scrapeMetrics(t, srv)
	for _, counter := range []string{
		`uncertaindb_queries_total`,
		`uncertaindb_plan_cache_hits_total`,
		`uncertaindb_plan_cache_misses_total`,
		`uncertaindb_query_duration_seconds_count{path="warm"}`,
		`uncertaindb_query_duration_seconds_sum{path="warm"}`,
		`uncertaindb_catalog_snapshots_total`,
	} {
		if second[counter] < first[counter] {
			t.Errorf("%s went backwards: %v -> %v", counter, first[counter], second[counter])
		}
	}
	if second[`uncertaindb_queries_total`] != 5 {
		t.Errorf("queries_total after second batch = %v, want 5", second[`uncertaindb_queries_total`])
	}
}

// The probcalc circuit counters aggregate across plans into the engine
// stats: each fresh exact query compiles one circuit and adds to the totals,
// so /v1/stats and /metrics grow monotonically instead of losing the
// per-plan counters at teardown.
func TestStatsProbcalcMonotonic(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)

	probcalcStats := func() (compiles, nodes float64) {
		t.Helper()
		status, body := doJSON(t, http.MethodGet, srv.URL+"/v1/stats", "")
		if status != http.StatusOK {
			t.Fatalf("GET /v1/stats = %d", status)
		}
		var resp struct {
			Engine struct {
				Probcalc struct {
					CircuitCompiles float64 `json:"circuitCompiles"`
					CircuitNodes    float64 `json:"circuitNodes"`
				} `json:"probcalc"`
			} `json:"engine"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		p := resp.Engine.Probcalc
		return p.CircuitCompiles, p.CircuitNodes
	}

	var lastCompiles, lastNodes float64
	for i, query := range []string{
		`{"query": "project[1](Takes)"}`,
		`{"query": "select[$2 = 'phys'](Takes)", "engine": "dtree"}`,
		`{"query": "project[1](Takes) union project[1](select[$2 = 'chem'](Takes))", "engine": "circuit"}`,
	} {
		if status, body := doJSON(t, http.MethodPost, srv.URL+"/v1/query", query); status != http.StatusOK {
			t.Fatalf("query = %d: %s", status, body)
		}
		compiles, nodes := probcalcStats()
		if compiles != lastCompiles+1 || nodes <= lastNodes {
			t.Fatalf("query %d: circuit totals did not grow by one compile (%v/%v -> %v/%v)", i, lastCompiles, lastNodes, compiles, nodes)
		}
		lastCompiles, lastNodes = compiles, nodes
	}

	// The Prometheus bridge exposes the same families.
	metrics := scrapeMetrics(t, srv)
	for _, want := range []string{
		`uncertaindb_probcalc_circuit_compiles_total`,
		`uncertaindb_probcalc_circuit_nodes_total`,
		`uncertaindb_probcalc_circuit_shared_total`,
		`uncertaindb_engine_auto_selections_total{engine="circuit"}`,
		`uncertaindb_engine_auto_selections_total{engine="mc"}`,
	} {
		if _, ok := metrics[want]; !ok {
			t.Errorf("metric %s missing from /metrics", want)
		}
	}
	if metrics[`uncertaindb_probcalc_circuit_compiles_total`] != lastCompiles {
		t.Errorf("Prometheus circuit compiles %v, /v1/stats %v", metrics[`uncertaindb_probcalc_circuit_compiles_total`], lastCompiles)
	}
}

// With -no-obs (Config.DisableObservability) the endpoint reports 404.
func TestMetricsDisabled(t *testing.T) {
	db := uncertain.MustOpen(uncertain.Config{DisableObservability: true})
	srv := httptest.NewServer(newHandler(db))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics with observability off = %d, want 404", resp.StatusCode)
	}
}

// "analyze": true attaches the EXPLAIN ANALYZE plan tree and the span tree;
// the span tree reaches the uncertaind response with a non-empty root.
func TestQueryAnalyzeHTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	putTakes(t, srv)
	status, body := doJSON(t, http.MethodPost, srv.URL+"/v1/query",
		`{"query": "project[1](Takes)", "analyze": true}`)
	if status != http.StatusOK {
		t.Fatalf("analyze query = %d: %s", status, body)
	}
	var resp struct {
		Analyzed *uncertain.PlanNode `json:"analyzed"`
		Trace    *uncertain.Span     `json:"trace"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Analyzed == nil || resp.Analyzed.Op == "" {
		t.Fatalf("no analyzed plan in response: %s", body)
	}
	if resp.Analyzed.Rows == 0 {
		t.Errorf("analyzed root reports 0 rows")
	}
	if resp.Trace == nil || resp.Trace.Name != "query" {
		t.Fatalf("no span tree in response: %s", body)
	}
	names := map[string]bool{}
	for _, c := range resp.Trace.Children {
		names[c.Name] = true
	}
	for _, want := range []string{"snapshot", "parse", "compile", "marginals", "analyze"} {
		if !names[want] {
			t.Errorf("span tree missing %q child (have %v)", want, resp.Trace.Children)
		}
	}

	// A second analyzed request is a cache hit: its reconstructed warm trace
	// has no compile child but keeps the fixed phases.
	status, body = doJSON(t, http.MethodPost, srv.URL+"/v1/query",
		`{"query": "project[1](Takes)", "analyze": true}`)
	if status != http.StatusOK {
		t.Fatalf("second analyze query = %d", status)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	names = map[string]bool{}
	for _, c := range resp.Trace.Children {
		names[c.Name] = true
	}
	if names["compile"] {
		t.Errorf("warm trace has a compile child")
	}
	for _, want := range []string{"snapshot", "parse", "marginals", "analyze"} {
		if !names[want] {
			t.Errorf("warm span tree missing %q child", want)
		}
	}
}

// A query crossing the slow threshold lands in GET /v1/debug/slow with its
// full span tree, newest first.
func TestSlowQueryEndpoint(t *testing.T) {
	db := uncertain.MustOpen(uncertain.Config{SlowQueryMillis: 1})
	srv := httptest.NewServer(newHandler(db))
	t.Cleanup(srv.Close)
	putTakes(t, srv)

	// Monte-Carlo with a large sample count reliably takes >1ms.
	status, body := doJSON(t, http.MethodPost, srv.URL+"/v1/query",
		`{"query": "project[1](Takes)", "engine": "mc", "samples": 400000}`)
	if status != http.StatusOK {
		t.Fatalf("mc query = %d: %s", status, body)
	}

	status, body = doJSON(t, http.MethodGet, srv.URL+"/v1/debug/slow", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/debug/slow = %d", status)
	}
	var slow struct {
		ThresholdMillis int64                 `json:"thresholdMillis"`
		Total           uint64                `json:"total"`
		Queries         []uncertain.SlowQuery `json:"queries"`
	}
	if err := json.Unmarshal(body, &slow); err != nil {
		t.Fatal(err)
	}
	if slow.ThresholdMillis != 1 {
		t.Errorf("thresholdMillis = %d, want 1", slow.ThresholdMillis)
	}
	if slow.Total == 0 || len(slow.Queries) == 0 {
		t.Fatalf("no slow queries captured: %s", body)
	}
	q := slow.Queries[0]
	if q.Query != "project[1](Takes)" || q.Engine != "mc" {
		t.Errorf("captured query = %+v", q)
	}
	if q.DurationNanos < int64(1e6) {
		t.Errorf("captured duration %d < threshold", q.DurationNanos)
	}
	if q.Trace == nil || q.Trace.Name != "query" || len(q.Trace.Children) == 0 {
		t.Errorf("capture has no span tree: %+v", q.Trace)
	}
}
