// Package httpapi is the HTTP surface of an uncertain database: the /v1
// JSON API cmd/uncertaind serves, factored out so in-process tests and the
// replication harness can mount the exact production handler over
// httptest servers. It is a thin translation layer over the pkg/uncertain
// facade — no query or catalog logic lives here.
//
// Tables travel in one form: the canonical table script of internal/parser.
// PUT /v1/tables/{name} takes one, GET /v1/tables/{name} returns one in
// "text" (a PUT of it reproduces the table), and the replication protocol
// ships them:
//
//	GET /v1/snapshot     the catalog's canonical wal.EncodeState bytes (a
//	                     header plus the catalog script of every table), with
//	                     X-Catalog-Version and a whole-payload CRC in
//	                     X-Snapshot-Crc32 — what a follower bootstraps from
//	GET /v1/changes      the change feed followers tail: each put carries the
//	                     table's script, each patch the patch's script (410
//	                     Gone once the requested versions are compacted away)
//	GET /v1/replication  the follower's replication status (404 on a leader)
//
// On a follower (a DB opened with Config.Follow), mutations are refused
// with 403 Forbidden and a Location header pointing at the same path on the
// leader — clients retry the write there.
//
// Any node gives reads read-your-writes: POST /v1/query and /v1/query/batch
// wait for the X-Min-Catalog-Version (or ?min_catalog_version=) a write
// acknowledged (see awaitDemand), and stamp every answer with its catalog
// version in X-Catalog-Version.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"uncertaindb/internal/value"
	"uncertaindb/pkg/uncertain"
)

// Options tunes the handler. The zero value is a sensible default.
type Options struct {
	// MaxSubscriptions bounds concurrently served /v1/subscribe streams;
	// excess subscribers get 503. Zero selects 64.
	MaxSubscriptions int
}

// New builds the HTTP API over the facade: the /v1 surface and /metrics.
func New(db *uncertain.DB) http.Handler { return NewWithOptions(db, Options{}) }

// NewWithOptions is New with explicit tuning.
func NewWithOptions(db *uncertain.DB, opts Options) http.Handler {
	if opts.MaxSubscriptions <= 0 {
		opts.MaxSubscriptions = 64
	}
	subSem := make(chan struct{}, opts.MaxSubscriptions)
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/tables/{name}", func(w http.ResponseWriter, r *http.Request) {
		handlePutTable(db, w, r)
	})
	mux.HandleFunc("GET /v1/tables", func(w http.ResponseWriter, r *http.Request) {
		handleListTables(db, w)
	})
	mux.HandleFunc("GET /v1/tables/{name}", func(w http.ResponseWriter, r *http.Request) {
		handleGetTable(db, w, r)
	})
	mux.HandleFunc("DELETE /v1/tables/{name}", func(w http.ResponseWriter, r *http.Request) {
		handleDropTable(db, w, r)
	})
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		handleQuery(db, w, r)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		version, infos := db.Tables()
		names := make([]string, 0, len(infos))
		for _, info := range infos {
			names = append(names, info.Name)
		}
		writeJSON(w, http.StatusOK, StatsResponse{
			Engine:         db.Stats(),
			CatalogVersion: version,
			Tables:         names,
		})
	})
	mux.HandleFunc("PATCH /v1/tables/{name}", func(w http.ResponseWriter, r *http.Request) {
		handlePatchTable(db, w, r)
	})
	mux.HandleFunc("POST /v1/subscribe", func(w http.ResponseWriter, r *http.Request) {
		handleSubscribe(db, w, r, subSem)
	})
	mux.HandleFunc("POST /v1/query/batch", func(w http.ResponseWriter, r *http.Request) {
		handleQueryBatch(db, w, r)
	})
	mux.HandleFunc("GET /v1/changes", func(w http.ResponseWriter, r *http.Request) {
		handleChanges(db, w, r)
	})
	mux.HandleFunc("GET /v1/snapshot", func(w http.ResponseWriter, r *http.Request) {
		handleSnapshot(db, w)
	})
	mux.HandleFunc("GET /v1/replication", func(w http.ResponseWriter, r *http.Request) {
		handleReplication(db, w)
	})
	// Observability surface: Prometheus metrics (conventionally unversioned)
	// and the slow-query ring buffer.
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		handleMetrics(db, w)
	})
	mux.HandleFunc("GET /v1/debug/slow", func(w http.ResponseWriter, r *http.Request) {
		handleSlowQueries(db, w)
	})
	return mux
}

// redirectReadOnly refuses a mutation on a follower: 403 Forbidden with a
// Location header naming the same path on the leader. It reports whether it
// handled the request.
func redirectReadOnly(db *uncertain.DB, w http.ResponseWriter, r *http.Request) bool {
	if !db.ReadOnly() {
		return false
	}
	w.Header().Set("Location", strings.TrimRight(db.Leader(), "/")+r.URL.Path)
	writeError(w, http.StatusForbidden,
		fmt.Errorf("this node is a read-only follower; write to the leader at %s", db.Leader()))
	return true
}

// handleSnapshot serves GET /v1/snapshot: the catalog in its canonical
// snapshot encoding (wal.EncodeState), the exact bytes a follower bootstraps
// from. X-Catalog-Version carries the snapshot's version and
// X-Snapshot-Crc32 a CRC-32/IEEE over the whole payload (lower-case hex), so
// the receiver can verify integrity before decoding.
func handleSnapshot(db *uncertain.DB, w http.ResponseWriter) {
	data, version, crc := db.SnapshotBytes()
	w.Header().Set("Content-Type", "application/octet-stream")
	stampVersion(w, version)
	w.Header().Set("X-Snapshot-Crc32", fmt.Sprintf("%08x", crc))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	if _, err := w.Write(data); err != nil {
		log.Printf("httpapi: writing snapshot: %v", err)
	}
}

// handleReplication serves GET /v1/replication: the follower's replication
// status. A leader (not following anyone) answers 404.
func handleReplication(db *uncertain.DB, w http.ResponseWriter) {
	st, ok := db.Replication()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("this node is not a follower"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMetrics serves GET /metrics in the Prometheus text exposition format.
func handleMetrics(db *uncertain.DB, w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	ok, err := db.WriteMetrics(w)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("observability is disabled (-no-obs)"))
		return
	}
	if err != nil {
		log.Printf("httpapi: writing metrics: %v", err)
	}
}

// SlowResponse is the JSON shape of GET /v1/debug/slow.
type SlowResponse struct {
	// ThresholdMillis is the capture threshold; 0 means capture is disabled.
	ThresholdMillis int64 `json:"thresholdMillis"`
	// Total counts every capture since startup, including ones evicted from
	// the ring.
	Total uint64 `json:"total"`
	// Queries are the retained captures, most recent first, each with its
	// full span tree.
	Queries []uncertain.SlowQuery `json:"queries"`
}

// handleSlowQueries serves GET /v1/debug/slow: the retained slow-query
// captures with their span trees.
func handleSlowQueries(db *uncertain.DB, w http.ResponseWriter) {
	queries, total := db.SlowQueries()
	if queries == nil {
		queries = []uncertain.SlowQuery{}
	}
	writeJSON(w, http.StatusOK, SlowResponse{
		ThresholdMillis: db.SlowQueryThreshold().Milliseconds(),
		Total:           total,
		Queries:         queries,
	})
}

// ChangesResponse is the JSON body of GET /v1/changes, the page a
// follower's client decodes.
type ChangesResponse = uncertain.ChangesPage

// Change-feed request bounds: one response page and the longest admissible
// long-poll. The wait cap must stay below the server's shutdown drain
// timeout (5s in cmd/uncertaind): a long-poll pinned at 30s used to hold its
// handler goroutine past the drain, so graceful shutdown timed out whenever
// an idle feed consumer was connected.
const (
	maxChangesLimit = 1024
	maxChangesWait  = 4 * time.Second
)

// handleChanges serves GET /v1/changes?from=V[&limit=N][&wait_ms=M]: the
// catalog mutations with version > V, oldest first. A from that has been
// compacted away is 410 Gone — the consumer re-syncs from /v1/snapshot (or
// by listing the tables) and resumes from the returned catalog version.
func handleChanges(db *uncertain.DB, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := parseUintParam(q.Get("from"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad \"from\": %w", err))
		return
	}
	limit, err := parseUintParam(q.Get("limit"), maxChangesLimit)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad \"limit\": %w", err))
		return
	}
	if limit == 0 || limit > maxChangesLimit {
		limit = maxChangesLimit
	}
	waitMS, err := parseUintParam(q.Get("wait_ms"), 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad \"wait_ms\": %w", err))
		return
	}
	wait := time.Duration(waitMS) * time.Millisecond
	if wait > maxChangesWait {
		wait = maxChangesWait
	}
	changes, version, err := db.Changes(r.Context(), from, int(limit), wait)
	if err != nil {
		status := http.StatusInternalServerError
		switch {
		case errors.Is(err, uncertain.ErrCompacted):
			status = http.StatusGone
		case errors.Is(err, uncertain.ErrFutureVersion):
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, ChangesResponse{From: from, CatalogVersion: version, WaitMs: wait.Milliseconds(), Changes: changes})
}

// parseUintParam parses an optional unsigned query parameter.
func parseUintParam(s string, def uint64) (uint64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

// errStatus maps typed facade errors onto HTTP status codes.
func errStatus(err error) int {
	switch {
	case errors.Is(err, uncertain.ErrUnknownTable):
		return http.StatusNotFound
	case errors.Is(err, uncertain.ErrBadQuery):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// TableInfo is the JSON shape of one catalog table.
type TableInfo struct {
	Name          string `json:"name"`
	Arity         int    `json:"arity"`
	Rows          int    `json:"rows"`
	Variables     int    `json:"variables"`
	Probabilistic bool   `json:"probabilistic"`
	Version       uint64 `json:"version"`
}

type StatsResponse struct {
	Engine         uncertain.Stats `json:"engine"`
	CatalogVersion uint64          `json:"catalogVersion"`
	Tables         []string        `json:"tables"`
}

func tableInfoJSON(info uncertain.TableInfo) TableInfo {
	return TableInfo{
		Name:          info.Name,
		Arity:         info.Arity,
		Rows:          info.Rows,
		Variables:     info.Variables,
		Probabilistic: info.Probabilistic,
		Version:       info.Version,
	}
}

func handlePutTable(db *uncertain.DB, w http.ResponseWriter, r *http.Request) {
	if redirectReadOnly(db, w, r) {
		return
	}
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	tab, err := uncertain.ParseTable(string(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if tab.Name() != name {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("table script declares %q but the URL names %q", tab.Name(), name))
		return
	}
	version, err := db.PutTable(tab)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "catalogVersion": version})
}

// handlePatchTable serves PATCH /v1/tables/{name}: a patch script of
// delete/upsert/dist directives (see internal/parser) applied to the named
// table as one atomic row-level mutation. Cached plans reading the table are
// not invalidated: the next query reading one catches it up incrementally
// wherever the query shape allows. On a follower the request is refused with 403 and a Location
// header naming the leader — the router proxies PATCH there.
func handlePatchTable(db *uncertain.DB, w http.ResponseWriter, r *http.Request) {
	if redirectReadOnly(db, w, r) {
		return
	}
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	version, err := db.PatchTableScript(name, string(body))
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, uncertain.ErrUnknownTable) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "catalogVersion": version})
}

// subscribeRequest is the JSON body of POST /v1/subscribe: a query request
// plus the stream bound.
type subscribeRequest struct {
	queryRequest
	// MaxUpdates closes the stream after this many pushed results, the
	// initial one included. Zero selects 256.
	MaxUpdates int `json:"maxUpdates"`
}

// errSubscribeDone ends a subscription cleanly once MaxUpdates results have
// been pushed.
var errSubscribeDone = errors.New("httpapi: subscription update limit reached")

// handleSubscribe serves POST /v1/subscribe: a live query. The initial
// result is written immediately as one JSON line; each catalog mutation
// touching a table the query reads triggers a re-execution (incrementally
// maintained in the plan cache when the mutation was a patch) and another
// JSON line. The stream is newline-delimited JSON (application/x-ndjson),
// flushed per update, ending when the client disconnects or MaxUpdates is
// reached. Works on followers — their local feed fires as replicated
// mutations apply.
func handleSubscribe(db *uncertain.DB, w http.ResponseWriter, r *http.Request, sem chan struct{}) {
	select {
	case sem <- struct{}{}:
		defer func() { <-sem }()
	default:
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("subscription limit reached (%d concurrent streams)", cap(sem)))
		return
	}
	var req subscribeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing \"query\""))
		return
	}
	maxUpdates := req.MaxUpdates
	if maxUpdates <= 0 {
		maxUpdates = 256
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)
	pushed := 0
	err := db.Subscribe(r.Context(), req.request(), func(res *uncertain.Result) error {
		if pushed == 0 {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		if err := enc.Encode(resultJSON(res)); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		pushed++
		if pushed >= maxUpdates {
			return errSubscribeDone
		}
		return nil
	})
	if err != nil && !errors.Is(err, errSubscribeDone) && pushed == 0 {
		// Nothing streamed yet: a status line is still possible.
		writeError(w, errStatus(err), err)
	}
}

func handleDropTable(db *uncertain.DB, w http.ResponseWriter, r *http.Request) {
	if redirectReadOnly(db, w, r) {
		return
	}
	name := r.PathValue("name")
	ok, err := db.DropTable(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no table %q", name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": name, "catalogVersion": db.CatalogVersion()})
}

func handleListTables(db *uncertain.DB, w http.ResponseWriter) {
	version, infos := db.Tables()
	out := make([]TableInfo, 0, len(infos))
	for _, info := range infos {
		out = append(out, tableInfoJSON(info))
	}
	writeJSON(w, http.StatusOK, map[string]any{"catalogVersion": version, "tables": out})
}

// handleGetTable serves GET /v1/tables/{name}: the table's metadata and, in
// "text", its canonical script — a body PUT /v1/tables/{name} accepts.
func handleGetTable(db *uncertain.DB, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, script, ok := db.Table(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no table %q", name))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		TableInfo
		Text string `json:"text"`
	}{tableInfoJSON(info), script})
}

// queryRequest is the JSON body of POST /v1/query (and one element of a
// batch).
type queryRequest struct {
	Query   string `json:"query"`
	Engine  string `json:"engine"`
	Samples int    `json:"samples"`
	Seed    int64  `json:"seed"`
	Workers int    `json:"workers"`
	// Analyze attaches an EXPLAIN ANALYZE plan tree (per-operator wall time,
	// rows in/out, probe/residual counts) and the execution's span tree to
	// the response.
	Analyze bool `json:"analyze"`
	// Distributions overrides variable distributions for this query only
	// (what-if): variable name → {value literal → probability}. The
	// overrides must redistribute mass within each variable's declared
	// support; with the circuit engine the cached circuit is re-weighted
	// without re-decomposing.
	Distributions map[string]map[string]float64 `json:"distributions"`
}

func (q queryRequest) request() uncertain.Request {
	return uncertain.Request{Query: q.Query, Engine: q.Engine, Samples: q.Samples, Seed: q.Seed, Workers: q.Workers, Analyze: q.Analyze, Distributions: q.Distributions}
}

// QueryTuple is one answer tuple: the tuple as a JSON array of values plus
// its marginal probability.
type QueryTuple struct {
	Tuple   []any   `json:"tuple"`
	P       float64 `json:"p"`
	StdErr  float64 `json:"stderr,omitempty"`
	Certain bool    `json:"certain"`
}

type QueryResponse struct {
	Query  string `json:"query"`
	Engine string `json:"engine"`
	// Effective is the engine that computed the marginals — differs from
	// Engine only for engine=auto, where Selection explains the choice.
	Effective string `json:"effective"`
	// Selection is the auto-selector's lineage statistics and decision
	// (engine=auto only).
	Selection *uncertain.Selection `json:"selection,omitempty"`
	// WhatIf reports the marginals were computed under the request's
	// "distributions" overrides.
	WhatIf         bool     `json:"whatIf,omitempty"`
	CatalogVersion uint64   `json:"catalogVersion"`
	Tables         []string `json:"tables"`
	CacheHit       bool     `json:"cacheHit"`
	// Answer is a PUT body: the answer's table script, named answer.
	Answer        string       `json:"answer"`
	Plan          string       `json:"plan"`
	Tuples        []QueryTuple `json:"tuples"`
	Certain       [][]any      `json:"certain"`
	Possible      [][]any      `json:"possible"`
	PrepareMicros int64        `json:"prepareMicros"`
	ExecMicros    int64        `json:"execMicros"`
	// Analyzed is the EXPLAIN ANALYZE plan tree ("analyze": true only).
	Analyzed *uncertain.PlanNode `json:"analyzed,omitempty"`
	// Trace is the execution's span tree ("analyze": true with
	// observability enabled only).
	Trace *uncertain.Span `json:"trace,omitempty"`
}

func resultJSON(res *uncertain.Result) QueryResponse {
	resp := QueryResponse{
		Query:          res.Query,
		Engine:         string(res.Kind),
		Effective:      string(res.Effective),
		Selection:      res.Selection,
		WhatIf:         res.WhatIf,
		CatalogVersion: res.CatalogVersion,
		Tables:         res.Tables,
		CacheHit:       res.CacheHit,
		Answer:         res.Answer,
		Plan:           res.Plan,
		Tuples:         make([]QueryTuple, 0, len(res.Tuples)),
		Certain:        [][]any{},
		Possible:       [][]any{},
		PrepareMicros:  res.PrepareDuration.Microseconds(),
		ExecMicros:     res.ExecDuration.Microseconds(),
		Analyzed:       res.Analyzed,
		Trace:          res.Trace,
	}
	for _, ta := range res.Tuples {
		jt := tupleJSON(ta.Tuple)
		resp.Tuples = append(resp.Tuples, QueryTuple{Tuple: jt, P: ta.P, StdErr: ta.StdErr, Certain: ta.Certain})
		resp.Possible = append(resp.Possible, jt)
		if ta.Certain {
			resp.Certain = append(resp.Certain, jt)
		}
	}
	return resp
}

func handleQuery(db *uncertain.DB, w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing \"query\""))
		return
	}
	if !awaitDemand(db, w, r) {
		return
	}
	res, err := db.Query(req.request())
	if err != nil {
		writeError(w, errStatus(err), err)
		return
	}
	stampVersion(w, res.CatalogVersion)
	writeJSON(w, http.StatusOK, resultJSON(res))
}

// awaitDemand makes a read wait for its demanded catalog version, reporting
// whether the query may run. A malformed demand answers 400; a node still
// behind after uncertain.MaxFreshnessWait answers 409 with a Location at the
// leader when it is a follower, and 412 when it is the leader.
func awaitDemand(db *uncertain.DB, w http.ResponseWriter, r *http.Request) bool {
	s := r.Header.Get("X-Min-Catalog-Version")
	if qs := r.URL.Query().Get("min_catalog_version"); qs != "" {
		s = qs
	}
	demand, err := parseUintParam(s, 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad min catalog version: %w", err))
		return false
	}
	v, err := db.AwaitCatalogVersion(r.Context(), demand)
	if err == nil {
		return true
	}
	stampVersion(w, v)
	status := http.StatusPreconditionFailed
	if db.ReadOnly() {
		status = http.StatusConflict
		w.Header().Set("Location", strings.TrimRight(db.Leader(), "/")+r.URL.RequestURI())
	}
	writeError(w, status, err)
	return false
}

func stampVersion(w http.ResponseWriter, v uint64) {
	w.Header().Set("X-Catalog-Version", strconv.FormatUint(v, 10))
}

// batchRequest is the JSON body of POST /v1/query/batch.
type batchRequest struct {
	Queries []queryRequest `json:"queries"`
}

// BatchItem is one element of a batch response: either a query response or
// an error (never both).
type BatchItem struct {
	Error string `json:"error,omitempty"`
	*QueryResponse
}

type BatchResponse struct {
	CatalogVersion uint64      `json:"catalogVersion"`
	Results        []BatchItem `json:"results"`
}

// MaxBatchQueries bounds one batch request.
const MaxBatchQueries = 1024

func handleQueryBatch(db *uncertain.DB, w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing \"queries\""))
		return
	}
	if len(req.Queries) > MaxBatchQueries {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d queries exceeds the limit of %d", len(req.Queries), MaxBatchQueries))
		return
	}
	if !awaitDemand(db, w, r) {
		return
	}
	reqs := make([]uncertain.Request, len(req.Queries))
	for i, q := range req.Queries {
		reqs[i] = q.request()
	}
	items, version := db.QueryBatch(reqs)
	resp := BatchResponse{CatalogVersion: version, Results: make([]BatchItem, len(items))}
	for i, item := range items {
		if item.Err != nil {
			resp.Results[i] = BatchItem{Error: item.Err.Error()}
			continue
		}
		qr := resultJSON(item.Result)
		resp.Results[i] = BatchItem{QueryResponse: &qr}
	}
	stampVersion(w, version)
	writeJSON(w, http.StatusOK, resp)
}

// tupleJSON renders a tuple as a JSON array of native values.
func tupleJSON(t uncertain.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		switch v.Kind() {
		case value.KindInt:
			out[i] = v.AsInt()
		case value.KindString:
			out[i] = v.AsString()
		case value.KindBool:
			out[i] = v.AsBool()
		default:
			out[i] = nil
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		log.Printf("httpapi: encoding response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error()})
}
