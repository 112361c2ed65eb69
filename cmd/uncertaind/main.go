// Command uncertaind is a resident query service over probabilistic
// c-tables: a catalog of named tables, an engine with a compiled-plan cache,
// and a versioned HTTP JSON API. It is a thin HTTP shell over the public
// pkg/uncertain facade; the handler itself lives in internal/httpapi.
//
// Usage:
//
//	uncertaind -addr 127.0.0.1:8080 -load catalog.tbl [-cache 128] [-workers 4]
//	uncertaind -addr 127.0.0.1:8081 -follow http://127.0.0.1:8080
//
// -workers (default GOMAXPROCS) sizes both bounds: how many queries execute
// concurrently, and the shared pool all executions draw their extra
// batch-engine morsel goroutines from (so load cannot multiply the
// per-query width). /v1/stats reports the engine.ops counters, which
// include the batch-driver work units (batches, morsels) next to the
// row/probe counters.
//
// Endpoints (stable, versioned surface):
//
//	PUT    /v1/tables/{name}   register or replace a table (body: table script)
//	PATCH  /v1/tables/{name}   row-level mutation (body: patch script of
//	                           delete/upsert/dist directives); cached plans
//	                           reading the table are incrementally maintained,
//	                           not invalidated, wherever the query shape allows
//	GET    /v1/tables          list catalog tables
//	GET    /v1/tables/{name}   one table's metadata and rendering
//	DELETE /v1/tables/{name}   drop a table
//	POST   /v1/query           {"query": "...", "engine": "dtree|enum|mc", ...}
//	POST   /v1/subscribe       live query: the body is a query request plus
//	                           "maxUpdates"; the response streams one JSON line
//	                           per result (initial + one per relevant catalog
//	                           mutation, re-served from the maintained plan
//	                           cache), bounded by -max-subscriptions
//	POST   /v1/query/batch     {"queries": [{...}, ...]} — N queries, one
//	                           catalog snapshot, per-item errors
//	GET    /v1/stats           engine cache and latency counters
//	GET    /v1/changes         catalog change feed: ?from=V records after
//	                           version V (&limit=, &wait_ms= long-poll, capped
//	                           below the shutdown drain; the response reports
//	                           the effective wait); 410 Gone once V is
//	                           compacted away
//	GET    /v1/snapshot        the catalog's canonical snapshot bytes with a
//	                           whole-payload CRC header — what a follower
//	                           bootstraps from
//	GET    /v1/replication     follower replication status (404 on a leader)
//	GET    /metrics            Prometheus text exposition: query latency
//	                           histograms (cold/warm), plan-cache, operator,
//	                           probcalc-memo, catalog, WAL and replication
//	                           counters
//	GET    /v1/debug/slow      slow-query ring buffer: executions at or above
//	                           -slow-query-ms with their full span trees
//
// With -follow the daemon is a read replica: it bootstraps its catalog from
// the leader's /v1/snapshot, tails /v1/changes applying every mutation at
// the leader's exact versions (re-bootstrapping when the leader compacts its
// feed past us), and refuses local mutations with 403 and a Location header
// pointing at the leader. Point a cmd/uncertainrouter at the replica set to
// fan queries out across them.
//
// -pprof additionally mounts net/http/pprof under /debug/pprof/ (off by
// default; profiling endpoints are opt-in). -slow-query-ms tunes the
// slow-query capture threshold (default 100; negative disables capture) and
// -no-obs turns the observability core off entirely.
//
// With -data-dir the catalog is durable: mutations are appended to a
// write-ahead log before they are acknowledged, compacted snapshots are
// written every -snapshot-every mutations, startup recovers the catalog
// (latest valid snapshot + valid log tail, torn final record discarded)
// byte-identically at the exact versions, and graceful shutdown fsyncs and
// closes the log — a SIGTERM'd server loses zero acknowledged mutations.
// -fsync additionally syncs after every mutation (machine-crash safety).
// -data-dir and -follow are mutually exclusive: the leader owns the durable
// history, a follower replicates it.
//
// The pre-versioning unversioned routes (/tables, /query, /stats) remain as
// deprecated aliases of the same handlers; responses on them carry a
// "Deprecation: true" header and a Link to the /v1 successor. New clients
// should use /v1 only.
//
// Errors are classified: a query referencing an unknown table is 404, a
// request that can never succeed (bad query text, unknown engine, table
// without distributions) is 400, anything else is 500.
//
// The daemon amortizes parsing, the closed algebra (Theorems 4 and 9) and
// lineage decomposition across requests: repeated queries hit the prepared
// plan cache, which is invalidated per table on replacement, and batches
// additionally share one catalog snapshot. It shuts down gracefully on
// SIGINT/SIGTERM.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on the default mux; served only with -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"uncertaindb/internal/httpapi"
	"uncertaindb/pkg/uncertain"
)

func main() {
	log.SetFlags(0)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// multiFlag collects repeated -load flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// run is the testable body of the daemon: it parses flags from args, serves
// until ctx is cancelled, then shuts down gracefully. The actual listen
// address is printed to out, so -addr :0 is usable in tests.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("uncertaind", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	cacheSize := fs.Int("cache", 128, "maximum number of cached prepared plans")
	workers := fs.Int("workers", 0, "maximum concurrently executing queries and per-query morsel parallelism (0 = GOMAXPROCS)")
	dataDir := fs.String("data-dir", "", "directory for the durable catalog (WAL + snapshots); empty = in-memory, lost on restart")
	snapshotEvery := fs.Int("snapshot-every", 64, "mutations between compacted catalog snapshots (-data-dir only; <0 disables compaction)")
	fsync := fs.Bool("fsync", false, "fsync the WAL after every mutation (-data-dir only; graceful shutdown always syncs)")
	follow := fs.String("follow", "", "leader base URL to replicate (e.g. http://127.0.0.1:8080); makes this node a read-only follower")
	slowQueryMS := fs.Int("slow-query-ms", 100, "slow-query capture threshold in milliseconds (queries at or above it record their span tree at /v1/debug/slow; <0 disables capture)")
	noObs := fs.Bool("no-obs", false, "disable the observability core (spans, /metrics, slow-query log)")
	pprofOn := fs.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
	maxSubs := fs.Int("max-subscriptions", 64, "maximum concurrently served /v1/subscribe streams (excess subscribers get 503)")
	var loads multiFlag
	fs.Var(&loads, "load", "catalog script to load at startup (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return fmt.Errorf("%w (run with -h for usage)", err)
	}
	if *follow != "" && len(loads) > 0 {
		return fmt.Errorf("uncertaind: -follow and -load are mutually exclusive (a follower's catalog comes from the leader)")
	}

	db, err := uncertain.Open(uncertain.Config{
		CacheSize:            *cacheSize,
		Workers:              *workers,
		DataDir:              *dataDir,
		SnapshotEvery:        *snapshotEvery,
		Fsync:                *fsync,
		DisableObservability: *noObs,
		SlowQueryMillis:      *slowQueryMS,
		Follow:               *follow,
	})
	if err != nil {
		return fmt.Errorf("uncertaind: opening: %w", err)
	}
	defer db.Close()
	if *dataDir != "" {
		version, infos := db.Tables()
		fmt.Fprintf(out, "recovered %s: catalog version %d, %d tables\n", *dataDir, version, len(infos))
	}
	if *follow != "" {
		version, infos := db.Tables()
		fmt.Fprintf(out, "following %s: bootstrapped at catalog version %d, %d tables\n", *follow, version, len(infos))
	}
	for _, path := range loads {
		names, err := db.LoadCatalogFile(path)
		if err != nil {
			return fmt.Errorf("uncertaind: loading %s: %w", path, err)
		}
		fmt.Fprintf(out, "loaded %s: tables %s\n", path, strings.Join(names, ", "))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	handler := httpapi.NewWithOptions(db, httpapi.Options{MaxSubscriptions: *maxSubs})
	if *pprofOn {
		// net/http/pprof registered itself on the default mux at import;
		// expose it only when asked.
		outer := http.NewServeMux()
		outer.Handle("/debug/pprof/", http.DefaultServeMux)
		outer.Handle("/", handler)
		handler = outer
		fmt.Fprintln(out, "pprof enabled at /debug/pprof/")
	}
	// Request contexts derive from srvCtx so long-lived /v1/subscribe streams
	// end when shutdown begins — otherwise an idle subscriber would hold its
	// handler goroutine past the drain timeout.
	srvCtx, srvCancel := context.WithCancel(context.Background())
	defer srvCancel()
	srv := &http.Server{Handler: handler, BaseContext: func(net.Listener) context.Context { return srvCtx }}
	fmt.Fprintf(out, "uncertaind listening on http://%s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	srvCancel()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	// Flush after the listener has drained: every mutation acknowledged over
	// HTTP is fsynced and the WAL is cleanly closed before the process says
	// goodbye, so a SIGTERM'd server recovers with zero lost mutations.
	if err := db.Close(); err != nil {
		return fmt.Errorf("uncertaind: closing data dir: %w", err)
	}
	fmt.Fprintln(out, "uncertaind: shut down")
	return nil
}

// newHandler builds the HTTP API over the facade; the implementation lives
// in internal/httpapi so in-process harnesses mount the production handler.
func newHandler(db *uncertain.DB) http.Handler { return httpapi.New(db) }

// Wire-type shims for this package's tests.
type (
	queryResponse   = httpapi.QueryResponse
	statsResponse   = httpapi.StatsResponse
	changesResponse = httpapi.ChangesResponse
)

const maxBatchQueries = httpapi.MaxBatchQueries
