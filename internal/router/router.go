// Package router fans /v1 query traffic out across read replicas and proxies
// everything else to the leader. It speaks only HTTP to the nodes, so it
// links none of the database.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uncertaindb/internal/obs"
)

// Options configures a Router.
type Options struct {
	// Leader is the leader's base URL. Mutations and non-query traffic proxy
	// to it, and it is the fallthrough when no replica can serve a query.
	Leader string
	// Replicas are the replica base URLs queries fan out across.
	Replicas []string
	// HealthInterval is the replica health-check period. Zero selects 1s.
	HealthInterval time.Duration
	// FailAfter ejects a replica after this many consecutive request or
	// health-check failures (readmitted on the next healthy check). Zero
	// selects 1: one failed proxy attempt sidelines the replica until a
	// health check readmits it.
	FailAfter int
	// Client runs the health checks; its Transport carries the proxied
	// traffic and its Timeout bounds each routed query attempt (nil for a
	// default client with a 30s timeout).
	Client *http.Client
	// Obs, when set, registers router metrics in its registry.
	Obs *obs.Observer
}

func (o Options) withDefaults() Options {
	if o.HealthInterval <= 0 {
		o.HealthInterval = time.Second
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 1
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return o
}

// backend is one routed replica: its reverse proxy, health state, the
// catalog version its last health probe reported (status only), and its
// in-flight request count (the least-outstanding balancing signal).
type backend struct {
	url         string
	proxy       *httputil.ReverseProxy
	healthy     atomic.Bool
	version     atomic.Uint64
	outstanding atomic.Int64
	fails       atomic.Int32

	requests *obs.Counter
}

// BackendStatus is the JSON shape of one backend in the router's status.
type BackendStatus struct {
	URL            string `json:"url"`
	Healthy        bool   `json:"healthy"`
	CatalogVersion uint64 `json:"catalogVersion"`
	Outstanding    int64  `json:"outstanding"`
}

// Router fans query traffic out across read replicas and proxies everything
// else to the leader. It relays and balances but never judges freshness: a
// query's X-Min-Catalog-Version travels to the node, which enforces it and
// stamps X-Catalog-Version. A replica's response streams back unread; a
// replica that fails or answers 409 (behind) hands the query to the leader.
type Router struct {
	opts     Options
	leader   *httputil.ReverseProxy
	backends []*backend

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	// Metrics (nil-safe without Obs).
	routeSeconds *obs.Histogram
	failovers    *obs.Counter
	leaderFalls  *obs.Counter
}

// hop is one routed query's state, carried in its request context under
// hopKey: the client's own context, the backends tried, and whether the
// last one failed or refused it with nothing written, so the leader serves
// next.
type hopKey struct{}

type hop struct {
	client   context.Context
	attempts int
	retry    bool
}

// buffers recycles the proxies' 32 KiB copy buffers, which ReverseProxy
// would otherwise allocate for every response it relays.
var buffers = bufferPool{sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}}

type bufferPool struct{ sync.Pool }

func (p *bufferPool) Get() []byte  { return *p.Pool.Get().(*[]byte) }
func (p *bufferPool) Put(b []byte) { p.Pool.Put(&b) }

// errStale marks a replica's 409: behind the query's demand, not failing.
var errStale = errors.New("replica is behind the demanded catalog version")

// New builds a router over a leader and a static replica set.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if opts.Leader == "" {
		return nil, fmt.Errorf("router: needs a leader URL")
	}
	leaderURL, err := url.Parse(opts.Leader)
	if err != nil {
		return nil, fmt.Errorf("router: bad leader URL %q: %w", opts.Leader, err)
	}
	r := &Router{
		opts:   opts,
		leader: httputil.NewSingleHostReverseProxy(leaderURL),
		stop:   make(chan struct{}),
	}
	r.leader.Transport = opts.Client.Transport
	r.leader.BufferPool = &buffers
	r.leader.ModifyResponse = func(res *http.Response) error {
		if h, ok := res.Request.Context().Value(hopKey{}).(*hop); ok {
			stamp(res, "leader", h.attempts)
		}
		return nil
	}
	r.leader.ErrorHandler = func(w http.ResponseWriter, req *http.Request, err error) {
		writeRouterError(w, http.StatusBadGateway, fmt.Errorf("leader unavailable: %w", err))
	}
	for _, u := range opts.Replicas {
		u = strings.TrimRight(u, "/")
		if u == "" {
			continue
		}
		b, err := r.newBackend(u)
		if err != nil {
			return nil, err
		}
		r.backends = append(r.backends, b)
	}
	if len(r.backends) == 0 {
		return nil, fmt.Errorf("router: needs at least one replica")
	}
	if ob := opts.Obs; ob != nil {
		r.routeSeconds = ob.Reg.Histogram("uncertaindb_router_route_duration_seconds", "",
			"End-to-end routed query duration (attempts included).", nil)
		r.failovers = ob.Reg.Counter("uncertaindb_router_failovers_total", "",
			"Queries sent on to the leader after a replica failed or answered 409.")
		r.leaderFalls = ob.Reg.Counter("uncertaindb_router_leader_fallthroughs_total", "",
			"Queries sent to the leader: no healthy replica, or a replica failed or answered 409.")
	}
	return r, nil
}

// newBackend builds a replica's proxy. A transport error, a 5xx or a 409
// writes nothing and hands the query to the leader; all but the 409 count
// toward ejecting the replica.
func (r *Router) newBackend(u string) (*backend, error) {
	target, err := url.Parse(u)
	if err != nil {
		return nil, fmt.Errorf("router: bad replica URL %q: %w", u, err)
	}
	b := &backend{url: u, proxy: httputil.NewSingleHostReverseProxy(target)}
	if ob := r.opts.Obs; ob != nil {
		b.requests = ob.Reg.Counter("uncertaindb_router_backend_requests_total",
			obs.Labels("backend", u), "Queries served by each backend.")
	}
	b.proxy.Transport = r.opts.Client.Transport
	b.proxy.BufferPool = &buffers
	b.proxy.ModifyResponse = func(res *http.Response) error {
		switch {
		case res.StatusCode >= 500:
			return fmt.Errorf("%s: HTTP %d", u, res.StatusCode)
		case res.StatusCode == http.StatusConflict:
			return errStale
		}
		b.requests.Inc()
		stamp(res, u, res.Request.Context().Value(hopKey{}).(*hop).attempts)
		return nil
	}
	b.proxy.ErrorHandler = func(w http.ResponseWriter, req *http.Request, err error) {
		h := req.Context().Value(hopKey{}).(*hop)
		if h.client.Err() != nil {
			return // the client went away; nobody waits for a retry
		}
		if !errors.Is(err, errStale) {
			r.fail(b)
		}
		r.failovers.Inc()
		h.retry = true
	}
	return b, nil
}

// stamp marks a relayed query response with who served it after how many
// attempts.
func stamp(res *http.Response, servedBy string, attempts int) {
	res.Header.Set("X-Served-By", servedBy)
	res.Header.Set("X-Router-Attempts", strconv.Itoa(attempts))
}

// Start launches the health-check loop; Close stops it.
func (r *Router) Start() {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.healthLoop()
	}()
}

// Close stops the health loop. Idempotent.
func (r *Router) Close() {
	r.once.Do(func() {
		close(r.stop)
		r.wg.Wait()
	})
}

// healthLoop probes every replica's /v1/stats on the configured interval:
// a success records the replica's catalog version for /v1/router and
// readmits it, a failure counts toward ejection.
func (r *Router) healthLoop() {
	r.checkAll() // probe immediately so Start doesn't race the first query
	ticker := time.NewTicker(r.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.checkAll()
		}
	}
}

func (r *Router) checkAll() {
	var wg sync.WaitGroup
	for _, b := range r.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			r.check(b)
		}(b)
	}
	wg.Wait()
}

func (r *Router) check(b *backend) {
	var st struct {
		CatalogVersion uint64 `json:"catalogVersion"`
	}
	resp, err := r.opts.Client.Get(b.url + "/v1/stats")
	if err == nil {
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st)
		resp.Body.Close()
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		r.fail(b)
		return
	}
	b.version.Store(st.CatalogVersion)
	b.fails.Store(0)
	b.healthy.Store(true)
}

// fail counts one failure against the backend, ejecting it at the
// threshold.
func (r *Router) fail(b *backend) {
	if int(b.fails.Add(1)) >= r.opts.FailAfter {
		b.healthy.Store(false)
	}
}

// Backends returns the current status of every backend, replicas first in
// configuration order.
func (r *Router) Backends() []BackendStatus {
	out := make([]BackendStatus, 0, len(r.backends))
	for _, b := range r.backends {
		out = append(out, BackendStatus{
			URL:            b.url,
			Healthy:        b.healthy.Load(),
			CatalogVersion: b.version.Load(),
			Outstanding:    b.outstanding.Load(),
		})
	}
	return out
}

// Handler returns the router's HTTP surface: /v1/query and /v1/query/batch
// fan out across replicas; /v1/router reports backend status; /metrics
// serves the router's own registry (when observability is configured);
// everything else — mutations, table reads, the change feed — proxies to
// the leader.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", r.route)
	mux.HandleFunc("POST /v1/query/batch", r.route)
	mux.HandleFunc("GET /v1/router", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"leader":   r.opts.Leader,
			"backends": r.Backends(),
		})
	})
	if r.opts.Obs != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			r.opts.Obs.Reg.WritePrometheus(w)
		})
	}
	mux.Handle("/", r.leader)
	return mux
}

// pick selects the healthy replica with the fewest outstanding requests;
// nil means none is healthy, and the leader serves.
func (r *Router) pick() *backend {
	var best *backend
	for _, cand := range r.backends {
		if !cand.healthy.Load() {
			continue
		}
		if best == nil || cand.outstanding.Load() < best.outstanding.Load() {
			best = cand
		}
	}
	return best
}

// route sends one query to the picked replica and, when that one hands it
// on, to the leader exactly once; the body is buffered for the second send.
func (r *Router) route(w http.ResponseWriter, req *http.Request) {
	t0 := time.Now()
	defer func() { r.routeSeconds.Observe(time.Since(t0)) }()
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 16<<20))
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, err)
		return
	}
	h := &hop{client: req.Context()}
	send := func(proxy *httputil.ReverseProxy) {
		ctx := context.WithValue(h.client, hopKey{}, h)
		if t := r.opts.Client.Timeout; t > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, t)
			defer cancel()
		}
		h.attempts++
		out := req.WithContext(ctx)
		out.Body = io.NopCloser(bytes.NewReader(body))
		proxy.ServeHTTP(w, out)
	}
	if b := r.pick(); b != nil {
		b.outstanding.Add(1)
		send(b.proxy)
		b.outstanding.Add(-1)
		if !h.retry {
			return
		}
	}
	r.leaderFalls.Inc()
	send(r.leader)
}

func writeRouterError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
}
