// Command uncertainrouter is the fan-out query router of a replicated
// uncertaindb deployment: one leader uncertaind, N read replicas started
// with -follow, and this process in front of the readers.
//
// Usage:
//
//	uncertainrouter -addr 127.0.0.1:8090 \
//	    -leader http://127.0.0.1:8080 \
//	    -replica http://127.0.0.1:8081 -replica http://127.0.0.1:8082
//
// POST /v1/query and /v1/query/batch go to the healthy replica with the
// fewest outstanding requests, whose response streams back unread with
// X-Served-By and X-Router-Attempts added. The router relays and balances;
// the node judges freshness: it stamps X-Catalog-Version, waits briefly for
// a client's X-Min-Catalog-Version (or ?min_catalog_version=), and answers
// 409 when a follower is still behind or 412 when the demand is ahead of
// the leader. On a transport error, a 5xx or a 409 the router sends the
// query to the leader exactly once. Failing replicas are ejected after
// -fail-after consecutive errors and readmitted by the health loop (period
// -health-interval) once they answer /v1/stats again.
//
// Everything else — mutations, table reads, the change feed — is reverse-
// proxied to the leader unchanged. GET /v1/router reports backend health
// and each replica's catalog version at its last probe; GET /metrics serves
// the router's own counters (route latency, failovers, leader fallthroughs).
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
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"uncertaindb/internal/obs"
	"uncertaindb/internal/router"
)

func main() {
	log.SetFlags(0)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// multiFlag collects repeated -replica flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

// readHeaderTimeout cuts off a client that never finishes its headers. No
// read, write or idle timeout is set: those would cut proxied
// /v1/subscribe streams or race clients reusing kept-alive connections.
const readHeaderTimeout = 5 * time.Second

// run is the testable body of the router: parse flags, serve until ctx is
// cancelled, shut down gracefully. The listen address is printed to out so
// -addr :0 is usable in tests.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("uncertainrouter", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addr := fs.String("addr", "127.0.0.1:8090", "listen address (host:port; port 0 picks a free port)")
	leader := fs.String("leader", "", "leader uncertaind base URL (required)")
	healthInterval := fs.Duration("health-interval", time.Second, "replica health-check period")
	failAfter := fs.Int("fail-after", 1, "consecutive failures before a replica is ejected")
	noObs := fs.Bool("no-obs", false, "disable the router's /metrics registry")
	var replicas multiFlag
	fs.Var(&replicas, "replica", "replica uncertaind base URL (repeatable, at least one)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return fmt.Errorf("%w (run with -h for usage)", err)
	}
	if *leader == "" {
		return fmt.Errorf("uncertainrouter: -leader is required")
	}
	if len(replicas) == 0 {
		return fmt.Errorf("uncertainrouter: at least one -replica is required")
	}

	var ob *obs.Observer
	if !*noObs {
		ob = obs.NewObserver(0, 1)
	}
	rt, err := router.New(router.Options{
		Leader:         *leader,
		Replicas:       replicas,
		HealthInterval: *healthInterval,
		FailAfter:      *failAfter,
		Obs:            ob,
	})
	if err != nil {
		return fmt.Errorf("uncertainrouter: %w", err)
	}
	rt.Start()
	defer rt.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: rt.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	fmt.Fprintf(out, "uncertainrouter listening on http://%s (leader %s, %d replicas)\n",
		ln.Addr(), *leader, len(replicas))

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	fmt.Fprintln(out, "uncertainrouter: shut down")
	return nil
}
