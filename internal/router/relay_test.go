package router_test

import (
	"bytes"
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

// tap wraps a replica's handler: it keeps the bytes of the last query
// response the replica wrote, and while refusing it answers every query
// with the 409 of a replica behind the demanded catalog version.
type tap struct {
	h        http.Handler
	refusing atomic.Bool

	mu   sync.Mutex
	last []byte
}

type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

func (tp *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/query" {
		tp.h.ServeHTTP(w, r)
		return
	}
	if tp.refusing.Load() {
		http.Error(w, `{"error": "behind"}`, http.StatusConflict)
		return
	}
	tw := &teeWriter{ResponseWriter: w}
	tp.h.ServeHTTP(tw, r)
	tp.mu.Lock()
	tp.last = tw.buf.Bytes()
	tp.mu.Unlock()
}

// postRaw posts a query through base and returns the response with its
// body read.
func postRaw(t *testing.T, base, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestRouterRelaysUnread checks the router as a relay: a replica's 409
// sends the query on to the leader exactly once (two attempts), and a
// replica's answer reaches the client byte for byte as the replica wrote
// it, stamped by the node and the router.
func TestRouterRelaysUnread(t *testing.T) {
	leaderDB, leaderSrv := startNode(t, uncertain.Config{})
	fDB, _ := startNode(t, uncertain.Config{Follow: leaderSrv.URL})
	tp := &tap{h: httpapi.New(fDB)}
	fSrv := httptest.NewServer(tp)
	t.Cleanup(fSrv.Close)

	v := putScript(t, leaderDB, takesV1)
	waitVersion(t, fDB, v)
	rt, routerSrv := startRouter(t, leaderSrv.URL, []string{fSrv.URL})
	waitHealthy(t, rt, 1)

	const query = `{"query": "project[1](Takes)"}`
	tp.refusing.Store(true)
	resp, body := postRaw(t, routerSrv.URL, query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query refused by the replica: status %d: %s", resp.StatusCode, body)
	}
	if by, n := resp.Header.Get("X-Served-By"), resp.Header.Get("X-Router-Attempts"); by != "leader" || n != "2" {
		t.Fatalf("query refused by the replica: served by %q after %s attempts, want the leader after 2", by, n)
	}
	tp.refusing.Store(false)

	resp, body = postRaw(t, routerSrv.URL, query)
	if by, n := resp.Header.Get("X-Served-By"), resp.Header.Get("X-Router-Attempts"); by != fSrv.URL || n != "1" {
		t.Fatalf("routed query: served by %q after %s attempts, want the replica after 1", by, n)
	}
	tp.mu.Lock()
	wrote := tp.last
	tp.mu.Unlock()
	if !bytes.Equal(body, wrote) {
		t.Fatalf("routed body differs from what the replica wrote:\n got %s\nwant %s", body, wrote)
	}
	if got := resp.Header.Get("X-Catalog-Version"); got != fmt.Sprint(v) {
		t.Fatalf("routed query: X-Catalog-Version %q, want the replica's stamp %d", got, v)
	}
}

// TestRouterTimesOutHungReplica checks that the client's Timeout bounds a
// routed attempt: a replica that never answers a query is cut off and the
// leader serves it on the second attempt.
func TestRouterTimesOutHungReplica(t *testing.T) {
	leaderDB, leaderSrv := startNode(t, uncertain.Config{})
	fDB, _ := startNode(t, uncertain.Config{Follow: leaderSrv.URL})
	h := httpapi.New(fDB)
	release := make(chan struct{})
	fSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			<-release // hung until the test ends
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(fSrv.Close)
	t.Cleanup(func() { close(release) })
	v := putScript(t, leaderDB, takesV1)
	waitVersion(t, fDB, v)

	rt, err := router.New(router.Options{
		Leader:         leaderSrv.URL,
		Replicas:       []string{fSrv.URL},
		HealthInterval: 10 * time.Millisecond,
		Client:         &http.Client{Timeout: 200 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	routerSrv := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		routerSrv.Close()
		rt.Close()
	})
	waitHealthy(t, rt, 1)

	resp, body := postRaw(t, routerSrv.URL, `{"query": "project[1](Takes)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query to a hung replica: status %d: %s", resp.StatusCode, body)
	}
	if by, n := resp.Header.Get("X-Served-By"), resp.Header.Get("X-Router-Attempts"); by != "leader" || n != "2" {
		t.Fatalf("query to a hung replica: served by %q after %s attempts, want the leader after 2", by, n)
	}
}
