package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uncertaindb/pkg/uncertain"
)

// feedGate is a follower's leader transport that holds change-feed requests
// while shut: the follower stays up and serving but applies nothing more.
// Opening the gate releases the held request at once.
type feedGate struct {
	mu     sync.Mutex
	opened chan struct{} // non-nil while shut; closed to release
	held   atomic.Int32  // change-feed requests waiting at the gate
}

func (g *feedGate) shut() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.opened == nil {
		g.opened = make(chan struct{})
	}
}

func (g *feedGate) open() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.opened != nil {
		close(g.opened)
		g.opened = nil
	}
}

func (g *feedGate) RoundTrip(r *http.Request) (*http.Response, error) {
	g.mu.Lock()
	opened := g.opened
	g.mu.Unlock()
	if opened != nil && strings.HasSuffix(r.URL.Path, "/v1/changes") {
		g.held.Add(1)
		defer g.held.Add(-1)
		select {
		case <-opened:
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

const gradesScript = `table Grades arity 2
row 'Alice', g
row 'Bob',   'B' | g = 'A'
dist g = {'A':0.5, 'B':0.5}
`

// demanded is one read sent with a freshness demand.
type demanded struct {
	status  int
	header  http.Header
	body    []byte
	elapsed time.Duration
}

// sendDemand posts a read to base+path with X-Min-Catalog-Version set to
// min ("" sends no demand).
func sendDemand(base, path, body, min string) (demanded, error) {
	req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
	if err != nil {
		return demanded{}, err
	}
	if min != "" {
		req.Header.Set("X-Min-Catalog-Version", min)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return demanded{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return demanded{resp.StatusCode, resp.Header, data, time.Since(start)}, err
}

func demandRead(t *testing.T, base, path, body, min string) demanded {
	t.Helper()
	d, err := sendDemand(base, path, body, min)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return d
}

// stampedVersion checks a 200 answer's X-Catalog-Version against the
// catalogVersion in its body and returns it.
func stampedVersion(t *testing.T, what string, d demanded) uint64 {
	t.Helper()
	if d.status != http.StatusOK {
		t.Fatalf("%s: status %d: %s", what, d.status, d.body)
	}
	var body struct {
		CatalogVersion uint64 `json:"catalogVersion"`
	}
	if err := json.Unmarshal(d.body, &body); err != nil {
		t.Fatalf("%s: %v (%s)", what, err, d.body)
	}
	if got := d.header.Get("X-Catalog-Version"); got != strconv.FormatUint(body.CatalogVersion, 10) {
		t.Fatalf("%s: X-Catalog-Version %q, body catalogVersion %d", what, got, body.CatalogVersion)
	}
	return body.CatalogVersion
}

// TestReadYourWritesAtNode checks that a node, with no router in front,
// enforces a read's X-Min-Catalog-Version: a follower whose change feed is
// held waits for the demanded version up to uncertain.MaxFreshnessWait and
// then answers 409 naming the leader; a leader asked for a version ahead of
// its own answers 412; a malformed demand answers 400; a demand already met
// answers at once; and every answer on both read endpoints stamps the
// version in its body as X-Catalog-Version.
func TestReadYourWritesAtNode(t *testing.T) {
	leader := uncertain.MustOpen(uncertain.Config{})
	leaderSrv := httptest.NewServer(newHandler(leader))
	t.Cleanup(leaderSrv.Close)
	gate := &feedGate{}
	follower, err := uncertain.Open(uncertain.Config{Follow: leaderSrv.URL, FollowClient: &http.Client{Transport: gate}})
	if err != nil {
		t.Fatal(err)
	}
	// arrived tells the test a request reached the follower.
	arrived := make(chan struct{}, 1)
	followerHandler := newHandler(follower)
	followerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		followerHandler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		gate.open()
		follower.Close()
		followerSrv.Close()
	})
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(15 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	put := func(script string) uint64 {
		t.Helper()
		_, v, err := leader.PutTableScript(script)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	v1 := put(takesScript)
	waitFor("the follower to apply the first put", func() bool { return follower.CatalogVersion() == v1 })

	// Shut the feed, push the follower's in-flight long-poll back with a
	// second put, and wait until its next change-feed request is held: from
	// then on it is stuck, and a third put leaves it behind the leader.
	gate.shut()
	put(gradesScript)
	waitFor("a change-feed request at the gate", func() bool { return gate.held.Load() == 1 })
	stuck := follower.CatalogVersion()
	ahead := put(takesScript)
	if ahead <= stuck {
		t.Fatalf("leader at %d is not ahead of the held follower at %d", ahead, stuck)
	}

	const query = `{"query": "project[1](Takes)"}`
	const batch = `{"queries": [{"query": "project[1](Takes)"}, {"query": "project[2](Grades)"}]}`
	endpoints := []struct{ path, body string }{{"/v1/query", query}, {"/v1/query/batch", batch}}
	stuckStr, aheadStr := strconv.FormatUint(stuck, 10), strconv.FormatUint(ahead, 10)

	// No demand, and a demand already met, answer at once at the
	// follower's version, on both endpoints.
	stampedVersion(t, "follower query without a demand", demandRead(t, followerSrv.URL, "/v1/query", query, ""))
	for _, ep := range endpoints {
		for _, min := range []string{"1", stuckStr} {
			d := demandRead(t, followerSrv.URL, ep.path, ep.body, min)
			if v := stampedVersion(t, "follower "+ep.path+" at min "+min, d); v != stuck {
				t.Fatalf("follower %s at min %s answered at %d, want %d", ep.path, min, v, stuck)
			}
			if d.elapsed >= uncertain.MaxFreshnessWait {
				t.Fatalf("follower %s at min %s took %s: a met demand must not wait", ep.path, min, d.elapsed)
			}
		}
		if v := stampedVersion(t, "leader "+ep.path, demandRead(t, leaderSrv.URL, ep.path, ep.body, aheadStr)); v != ahead {
			t.Fatalf("leader %s answered at %d, want %d", ep.path, v, ahead)
		}
	}

	// Held past the cap, the follower refuses with 409 naming the leader.
	const slack = 2 * time.Second
	for _, ep := range endpoints {
		d := demandRead(t, followerSrv.URL, ep.path, ep.body, aheadStr)
		if d.status != http.StatusConflict {
			t.Fatalf("held follower %s: status %d, want 409: %s", ep.path, d.status, d.body)
		}
		if loc := d.header.Get("Location"); loc != leaderSrv.URL+ep.path {
			t.Fatalf("held follower %s: Location %q, want %q", ep.path, loc, leaderSrv.URL+ep.path)
		}
		if got := d.header.Get("X-Catalog-Version"); got != stuckStr {
			t.Fatalf("held follower %s: X-Catalog-Version %q, want %s", ep.path, got, stuckStr)
		}
		if d.elapsed < uncertain.MaxFreshnessWait || d.elapsed > uncertain.MaxFreshnessWait+slack {
			t.Fatalf("held follower %s refused after %s, want %s plus at most %s", ep.path, d.elapsed, uncertain.MaxFreshnessWait, slack)
		}
	}

	// A leader asked for a version ahead of its own answers 412.
	for _, ep := range endpoints {
		if d := demandRead(t, leaderSrv.URL, ep.path, ep.body, strconv.FormatUint(ahead+1, 10)); d.status != http.StatusPreconditionFailed {
			t.Fatalf("leader %s past its version: status %d, want 412: %s", ep.path, d.status, d.body)
		}
	}

	// A malformed demand answers 400, in either spelling.
	for _, base := range []string{followerSrv.URL, leaderSrv.URL} {
		if d := demandRead(t, base, "/v1/query", query, "next"); d.status != http.StatusBadRequest {
			t.Fatalf("malformed header demand at %s: status %d, want 400", base, d.status)
		}
		if d := demandRead(t, base, "/v1/query?min_catalog_version=-1", query, ""); d.status != http.StatusBadRequest {
			t.Fatalf("malformed parameter demand at %s: status %d, want 400", base, d.status)
		}
	}

	// A demand the follower can meet once the feed opens answers 200 at or
	// above the demanded version: the read waits while the held request
	// goes through and the follower applies it.
	select {
	case <-arrived:
	default:
	}
	done := make(chan demanded, 1)
	go func() {
		d, err := sendDemand(followerSrv.URL, "/v1/query?min_catalog_version="+aheadStr, query, "")
		if err != nil {
			t.Error(err)
		}
		done <- d
	}()
	<-arrived
	gate.open()
	d := <-done
	if v := stampedVersion(t, "follower read across the gate opening", d); v < ahead {
		t.Fatalf("follower answered at %d after the gate opened, want at least %d", v, ahead)
	}
}
