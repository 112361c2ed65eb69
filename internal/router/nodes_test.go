package router_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"uncertaindb/internal/httpapi"
	"uncertaindb/pkg/uncertain"
)

// The router's backends in these tests are real nodes: a leader and
// followers serving the production HTTP handler.

const takesV1 = `table Takes arity 2
row 'Alice', x
row 'Bob',   x | x = 'phys' || x = 'chem'
dist x = {'math':0.3, 'phys':0.3, 'chem':0.4}
`

const gradesV1 = `table Grades arity 2
row 'Alice', g
row 'Bob',   'B' | g = 'A'
dist g = {'A':0.5, 'B':0.5}
`

// startNode opens a DB and serves the production HTTP handler over it.
// Cleanups run LIFO, so start followers after the leader: they shut down
// first, while the leader they long-poll is still answering.
func startNode(t *testing.T, cfg uncertain.Config) (*uncertain.DB, *httptest.Server) {
	t.Helper()
	db, err := uncertain.Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	srv := httptest.NewServer(httpapi.New(db))
	t.Cleanup(func() {
		db.Close()
		srv.Close()
	})
	return db, srv
}

// waitVersion blocks until the db's catalog reaches exactly want.
func waitVersion(t *testing.T, db *uncertain.DB, want uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if db.CatalogVersion() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("catalog stuck at version %d, want %d", db.CatalogVersion(), want)
}

func putScript(t *testing.T, db *uncertain.DB, script string) uint64 {
	t.Helper()
	_, v, err := db.PutTableScript(script)
	if err != nil {
		t.Fatalf("put: %v", err)
	}
	return v
}

// gate blocks /v1/changes requests while closed, stalling a live follower
// without killing it, so it falls behind the leader.
type gate struct {
	mu      sync.Mutex
	blocked bool
}

func (g *gate) set(b bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.blocked = b
}

func (g *gate) isBlocked() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.blocked
}

type gatedTransport struct {
	g *gate
}

func (gt *gatedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/v1/changes") && gt.g.isBlocked() {
		return nil, fmt.Errorf("gated transport: changes blocked")
	}
	return http.DefaultTransport.RoundTrip(r)
}
