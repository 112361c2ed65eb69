package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"uncertaindb/internal/httpapi"
	"uncertaindb/pkg/uncertain"
)

const takesScript = `table Takes arity 2
row 'Alice', x
row 'Bob', 'physics'
dist x = {'math': 0.3, 'physics': 0.5, 'art': 0.2}
`

// syncWriter lets the test read run()'s output while the router goroutine
// is still writing to it.
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

// The full router lifecycle against a live in-process leader and follower:
// announce the listen address, fan a query out to the replica with routing
// stamps, serve the router's own status and metrics, shut down gracefully.
func TestRunLifecycle(t *testing.T) {
	leaderDB, err := uncertain.Open(uncertain.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leaderDB.Close() })
	leaderSrv := httptest.NewServer(httpapi.New(leaderDB))
	t.Cleanup(leaderSrv.Close)

	fDB, err := uncertain.Open(uncertain.Config{Follow: leaderSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fDB.Close() })
	fSrv := httptest.NewServer(httpapi.New(fDB))
	t.Cleanup(fSrv.Close)

	_, v, err := leaderDB.PutTableScript(takesScript)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for fDB.CatalogVersion() != v {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at version %d, want %d", fDB.CatalogVersion(), v)
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-leader", leaderSrv.URL,
			"-replica", fSrv.URL,
			"-health-interval", "10ms",
		}, out)
	}()

	var base string
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("router never announced its address; output so far:\n%s", out.String())
		}
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Queries fan out to the replica with routing stamps. The health loop
	// may not have admitted the replica yet, in which case the leader serves
	// the first few — wait for a replica-served answer.
	var resp *http.Response
	for {
		resp, err = http.Post(base+"/v1/query", "application/json",
			strings.NewReader(`{"query": "project[1](Takes)"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed query: status %d", resp.StatusCode)
		}
		if resp.Header.Get("X-Served-By") == fSrv.URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never served from the replica (last X-Served-By %q)", resp.Header.Get("X-Served-By"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := resp.Header.Get("X-Catalog-Version"); got != "1" {
		t.Fatalf("X-Catalog-Version %q, want 1", got)
	}

	// The status endpoint reports the backend; /metrics serves the router's
	// own registry (default -no-obs=false).
	stResp, err := http.Get(base + "/v1/router")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Leader string `json:"leader"`
	}
	if err := json.NewDecoder(stResp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	stResp.Body.Close()
	if status.Leader != leaderSrv.URL {
		t.Fatalf("/v1/router leader %q, want %q", status.Leader, leaderSrv.URL)
	}
	mResp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	if mResp.StatusCode != http.StatusOK || !strings.Contains(string(metrics), "uncertaindb_router_route_duration_seconds") {
		t.Fatalf("GET /metrics: %d\n%s", mResp.StatusCode, metrics)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v, want nil on graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("router did not shut down within 5s")
	}
	if !strings.Contains(out.String(), "shut down") {
		t.Errorf("missing shutdown line in output:\n%s", out.String())
	}
}

func TestRunFlagErrors(t *testing.T) {
	ctx := context.Background()
	var buf bytes.Buffer
	if err := run(ctx, []string{"-badflag"}, &buf); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(ctx, []string{"-replica", "http://127.0.0.1:1"}, &buf); err == nil || !strings.Contains(err.Error(), "-leader") {
		t.Errorf("missing -leader: err %v", err)
	}
	if err := run(ctx, []string{"-leader", "http://127.0.0.1:1"}, &buf); err == nil || !strings.Contains(err.Error(), "-replica") {
		t.Errorf("missing -replica: err %v", err)
	}
	if err := run(ctx, []string{"-h"}, &buf); err != nil {
		t.Errorf("-h: %v", err)
	}
	if !strings.Contains(buf.String(), "-leader") {
		t.Errorf("usage output missing flags:\n%s", buf.String())
	}
}

// A client that sends part of a request header and then stalls is cut off
// once readHeaderTimeout has passed, instead of holding its connection (and
// a router goroutine) open for good.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-leader", "http://127.0.0.1:1",
			"-replica", "http://127.0.0.1:1",
		}, out)
	}()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run returned %v, want nil on graceful shutdown", err)
		}
	}()
	var base string
	for deadline := time.Now().Add(5 * time.Second); base == ""; {
		if time.Now().After(deadline) {
			t.Fatalf("router never announced its address; output so far:\n%s", out.String())
		}
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/query HTTP/1.1\r\nHost: uncertainrouter\r\n"); err != nil {
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
