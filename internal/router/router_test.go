package router_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uncertaindb/internal/httpapi"
	"uncertaindb/internal/router"
	"uncertaindb/pkg/uncertain"
)

// startRouter builds and starts a router over the given backends with a
// fast health loop, serving it over httptest.
func startRouter(t *testing.T, leader string, replicas []string) (*router.Router, *httptest.Server) {
	t.Helper()
	r, err := router.New(router.Options{
		Leader:         leader,
		Replicas:       replicas,
		HealthInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	r.Start()
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(func() {
		srv.Close()
		r.Close()
	})
	return r, srv
}

// waitHealthy blocks until want backends report healthy.
func waitHealthy(t *testing.T, r *router.Router, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		n := 0
		for _, b := range r.Backends() {
			if b.Healthy {
				n++
			}
		}
		if n == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("never reached %d healthy backends: %+v", want, r.Backends())
}

// routedQuery posts a query through the router, returning status, routing
// headers and the decoded body.
func routedQuery(t *testing.T, srv *httptest.Server, query string, minVersion string) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/query",
		strings.NewReader(fmt.Sprintf(`{"query": %q}`, query)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if minVersion != "" {
		req.Header.Set("X-Min-Catalog-Version", minVersion)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("routed query: %v", err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding routed response: %v", err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestRouterFanOutAndStamps routes queries across two live replicas and
// checks the response stamps: the serving backend and the catalog version
// the answer was computed at.
func TestRouterFanOutAndStamps(t *testing.T) {
	leaderDB, leaderSrv := startNode(t, uncertain.Config{})
	f1DB, f1Srv := startNode(t, uncertain.Config{Follow: leaderSrv.URL})
	f2DB, f2Srv := startNode(t, uncertain.Config{Follow: leaderSrv.URL})

	v := putScript(t, leaderDB, takesV1)
	waitVersion(t, f1DB, v)
	waitVersion(t, f2DB, v)

	rt, routerSrv := startRouter(t, leaderSrv.URL, []string{f1Srv.URL, f2Srv.URL})
	waitHealthy(t, rt, 2)

	replicaSet := map[string]bool{f1Srv.URL: true, f2Srv.URL: true}
	var served sync.Map
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, hdr, body := routedQuery(t, routerSrv, "project[1](Takes)", "")
			if status != http.StatusOK {
				t.Errorf("routed query: status %d: %v", status, body)
				return
			}
			by := hdr.Get("X-Served-By")
			if !replicaSet[by] {
				t.Errorf("X-Served-By %q is not a replica", by)
			}
			served.Store(by, true)
			if got := hdr.Get("X-Catalog-Version"); got != fmt.Sprint(v) {
				t.Errorf("X-Catalog-Version %q, want %d", got, v)
			}
		}()
	}
	wg.Wait()

	// Batch queries ride the same fan-out.
	resp, err := http.Post(routerSrv.URL+"/v1/query/batch", "application/json",
		strings.NewReader(`{"queries": [{"query": "project[1](Takes)"}, {"query": "project[2](Takes)"}]}`))
	if err != nil {
		t.Fatalf("batch through router: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch through router: status %d", resp.StatusCode)
	}
	if by := resp.Header.Get("X-Served-By"); !replicaSet[by] {
		t.Fatalf("batch X-Served-By %q is not a replica", by)
	}

	// Mutations and table reads proxy through to the leader unchanged.
	putResp, err := http.DefaultClient.Do(mustRequest(t, http.MethodPut, routerSrv.URL+"/v1/tables/Grades", gradesV1))
	if err != nil {
		t.Fatalf("PUT through router: %v", err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusOK {
		t.Fatalf("PUT through router: status %d", putResp.StatusCode)
	}
	if leaderDB.CatalogVersion() != v+1 {
		t.Fatalf("leader version %d after routed PUT, want %d", leaderDB.CatalogVersion(), v+1)
	}
}

func mustRequest(t *testing.T, method, url, body string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestRouterMinCatalogVersion pins a replica at an old version with a gated
// feed and checks the staleness contract: a client demanding a fresher
// catalog is never served the stale replica — the router falls through to
// the leader, and demands beyond even the leader fail loudly with 412.
func TestRouterMinCatalogVersion(t *testing.T) {
	leaderDB, leaderSrv := startNode(t, uncertain.Config{})
	g := &gate{}
	fDB, fSrv := startNode(t, uncertain.Config{
		Follow:       leaderSrv.URL,
		FollowClient: &http.Client{Transport: &gatedTransport{g: g}},
	})

	v1 := putScript(t, leaderDB, takesV1)
	waitVersion(t, fDB, v1)
	before, _ := fDB.Replication()

	// Deafen the replica, then advance the leader: the replica is healthy
	// but permanently one version behind for the rest of the test.
	g.set(true)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if st, _ := fDB.Replication(); st.Backoffs > before.Backoffs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never hit the gated transport")
		}
		time.Sleep(5 * time.Millisecond)
	}
	v2 := putScript(t, leaderDB, gradesV1)

	rt, routerSrv := startRouter(t, leaderSrv.URL, []string{fSrv.URL})
	waitHealthy(t, rt, 1)

	// No freshness demand: the stale replica serves, stamped with its true
	// (old) version — staleness is visible, never silent.
	status, hdr, _ := routedQuery(t, routerSrv, "project[1](Takes)", "")
	if status != http.StatusOK || hdr.Get("X-Served-By") != fSrv.URL {
		t.Fatalf("unpinned query: status %d served by %q", status, hdr.Get("X-Served-By"))
	}
	if hdr.Get("X-Catalog-Version") != fmt.Sprint(v1) {
		t.Fatalf("stale replica stamped %q, want %d", hdr.Get("X-Catalog-Version"), v1)
	}

	// Demand v2: the replica is behind, so the leader serves.
	status, hdr, _ = routedQuery(t, routerSrv, "project[1](Takes)", fmt.Sprint(v2))
	if status != http.StatusOK {
		t.Fatalf("min-version query: status %d", status)
	}
	if hdr.Get("X-Served-By") != "leader" {
		t.Fatalf("min-version query served by %q, want leader", hdr.Get("X-Served-By"))
	}
	if hdr.Get("X-Catalog-Version") != fmt.Sprint(v2) {
		t.Fatalf("leader fallthrough stamped %q, want %d", hdr.Get("X-Catalog-Version"), v2)
	}

	// Demand beyond the leader: unsatisfiable, 412.
	status, _, body := routedQuery(t, routerSrv, "project[1](Takes)", fmt.Sprint(v2+100))
	if status != http.StatusPreconditionFailed {
		t.Fatalf("impossible min version: status %d body %v, want 412", status, body)
	}

	// Malformed demand: 400.
	status, _, _ = routedQuery(t, routerSrv, "project[1](Takes)", "not-a-number")
	if status != http.StatusBadRequest {
		t.Fatalf("malformed min version: status %d, want 400", status)
	}

	// The query-parameter spelling works too.
	resp, err := http.Post(routerSrv.URL+"/v1/query?min_catalog_version="+fmt.Sprint(v2),
		"application/json", strings.NewReader(`{"query": "project[1](Takes)"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Served-By") != "leader" {
		t.Fatalf("query-param min version: status %d served by %q", resp.StatusCode, resp.Header.Get("X-Served-By"))
	}
}

// flaky wraps a handler with a kill switch: while down, every request is a
// 500 — the shape of a replica that is up but failing.
type flaky struct {
	h    http.Handler
	down atomic.Bool
}

func (f *flaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		http.Error(w, "injected failure", http.StatusInternalServerError)
		return
	}
	f.h.ServeHTTP(w, r)
}

// TestRouterEjectsAndReadmits fails one of two replicas, drives queries
// through the router (all must keep succeeding on the survivor), then heals
// the failed replica and watches the health loop readmit it.
func TestRouterEjectsAndReadmits(t *testing.T) {
	leaderDB, leaderSrv := startNode(t, uncertain.Config{})
	f1DB, _ := startNode(t, uncertain.Config{Follow: leaderSrv.URL})
	f2DB, _ := startNode(t, uncertain.Config{Follow: leaderSrv.URL})

	// Serve both followers through kill-switchable wrappers.
	fl1 := &flaky{h: httpapi.New(f1DB)}
	fl2 := &flaky{h: httpapi.New(f2DB)}
	srv1 := httptest.NewServer(fl1)
	srv2 := httptest.NewServer(fl2)
	t.Cleanup(func() { srv1.Close(); srv2.Close() })

	v := putScript(t, leaderDB, takesV1)
	waitVersion(t, f1DB, v)
	waitVersion(t, f2DB, v)

	rt, routerSrv := startRouter(t, leaderSrv.URL, []string{srv1.URL, srv2.URL})
	waitHealthy(t, rt, 2)

	fl1.down.Store(true)
	// Every query keeps succeeding: in-flight failures retry on the healthy
	// survivor, and the health loop ejects the failing backend.
	for i := 0; i < 10; i++ {
		status, hdr, body := routedQuery(t, routerSrv, "project[1](Takes)", "")
		if status != http.StatusOK {
			t.Fatalf("query %d during failure: status %d: %v", i, status, body)
		}
		if by := hdr.Get("X-Served-By"); by == srv1.URL {
			t.Fatalf("query %d served by the failing replica", i)
		}
	}
	waitHealthy(t, rt, 1)

	fl2.down.Store(true) // both replicas down: the leader carries the reads
	status, hdr, body := routedQuery(t, routerSrv, "project[1](Takes)", "")
	if status != http.StatusOK || hdr.Get("X-Served-By") != "leader" {
		t.Fatalf("query with all replicas down: status %d served by %q: %v", status, hdr.Get("X-Served-By"), body)
	}

	fl1.down.Store(false)
	fl2.down.Store(false)
	waitHealthy(t, rt, 2) // the health loop readmits both

	status, hdr, _ = routedQuery(t, routerSrv, "project[1](Takes)", "")
	if status != http.StatusOK || hdr.Get("X-Served-By") == "leader" {
		t.Fatalf("query after readmission: status %d served by %q, want a replica", status, hdr.Get("X-Served-By"))
	}

	// The router's status endpoint reflects the backend set.
	resp, err := http.Get(routerSrv.URL + "/v1/router")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var statusBody struct {
		Leader   string                 `json:"leader"`
		Backends []router.BackendStatus `json:"backends"`
	}
	if err := json.Unmarshal(raw, &statusBody); err != nil {
		t.Fatalf("decoding /v1/router: %v (%s)", err, raw)
	}
	if statusBody.Leader != leaderSrv.URL || len(statusBody.Backends) != 2 {
		t.Fatalf("router status: %+v", statusBody)
	}
	for _, b := range statusBody.Backends {
		if !b.Healthy || b.CatalogVersion != v {
			t.Fatalf("backend not healthy at v%d: %+v", v, b)
		}
	}
}
