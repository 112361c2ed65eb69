// Package router fans /v1 query traffic out across read replicas and proxies
// everything else to the leader. It speaks only HTTP to the nodes, so it
// links none of the database.
package router

import (
	"bytes"
	"encoding/json"
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
	// Client is the HTTP transport (nil for a default with a 30s timeout).
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

// backend is one routed replica: its health state, advertised catalog
// version, and in-flight request count (the least-outstanding balancing
// signal).
type backend struct {
	url         string
	healthy     atomic.Bool
	version     atomic.Uint64 // last catalog version observed (health or response stamp)
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
// else to the leader. Responses are stamped with the serving backend and its
// catalog version; a client-supplied minimum catalog version is enforced by
// skipping stale replicas and, when necessary, falling through to the
// leader — a stale answer is never silently served.
type Router struct {
	opts     Options
	leader   *url.URL
	proxy    *httputil.ReverseProxy
	backends []*backend

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	// Metrics (nil-safe without Obs).
	routeSeconds *obs.Histogram
	failovers    *obs.Counter
	staleSkips   *obs.Counter
	leaderFalls  *obs.Counter
}

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
		leader: leaderURL,
		proxy:  httputil.NewSingleHostReverseProxy(leaderURL),
		stop:   make(chan struct{}),
	}
	r.proxy.Transport = opts.Client.Transport
	for _, u := range opts.Replicas {
		u = strings.TrimRight(u, "/")
		if u == "" {
			continue
		}
		b := &backend{url: u}
		if ob := opts.Obs; ob != nil {
			b.requests = ob.Reg.Counter("uncertaindb_router_backend_requests_total",
				obs.Labels("backend", u), "Queries served by each backend.")
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
			"Query attempts retried on another backend after a failure.")
		r.staleSkips = ob.Reg.Counter("uncertaindb_router_stale_skips_total", "",
			"Backends skipped or responses discarded for missing min_catalog_version.")
		r.leaderFalls = ob.Reg.Counter("uncertaindb_router_leader_fallthroughs_total", "",
			"Queries served by the leader because no replica qualified.")
	}
	return r, nil
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
// a success updates the advertised catalog version and readmits the
// backend, a failure counts toward ejection.
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
	resp, err := r.opts.Client.Get(b.url + "/v1/stats")
	if err != nil {
		r.fail(b)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		r.fail(b)
		return
	}
	var st struct {
		CatalogVersion uint64 `json:"catalogVersion"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		r.fail(b)
		return
	}
	b.observeVersion(st.CatalogVersion)
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

// observeVersion advances the backend's advertised catalog version
// monotonically (stamps can arrive out of order across goroutines).
func (b *backend) observeVersion(v uint64) {
	for {
		cur := b.version.Load()
		if v <= cur || b.version.CompareAndSwap(cur, v) {
			return
		}
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
	mux.Handle("/", r.proxy)
	return mux
}

// minVersionOf extracts the client's minimum catalog version: the
// X-Min-Catalog-Version header or the min_catalog_version query parameter
// (read-your-writes: clients pass the version a mutation acknowledged).
func minVersionOf(req *http.Request) (uint64, error) {
	s := req.Header.Get("X-Min-Catalog-Version")
	if qs := req.URL.Query().Get("min_catalog_version"); qs != "" {
		s = qs
	}
	if s == "" {
		return 0, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

// pick selects the healthy backend with an advertised version of at least
// minVer carrying the fewest outstanding requests. Backends tried this
// request are excluded; nil means none qualifies, and the caller falls
// through to the leader.
func (r *Router) pick(minVer uint64, tried map[*backend]bool) *backend {
	var best *backend
	for _, cand := range r.backends {
		if tried[cand] || !cand.healthy.Load() {
			continue
		}
		if cand.version.Load() < minVer {
			r.staleSkips.Inc()
			continue
		}
		if best == nil || cand.outstanding.Load() < best.outstanding.Load() {
			best = cand
		}
	}
	return best
}

// routed is the outcome of one backend attempt.
type routed struct {
	status  int
	header  http.Header
	body    []byte
	version uint64 // catalogVersion stamp parsed from the body (0 when absent)
}

// route serves one query request: read the body once, then attempt backends
// in least-outstanding order, retrying on failure and on stale responses,
// with the leader as the final fallthrough. The response is stamped with
// X-Served-By and X-Catalog-Version.
func (r *Router) route(w http.ResponseWriter, req *http.Request) {
	t0 := time.Now()
	defer func() { r.routeSeconds.Observe(time.Since(t0)) }()
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 16<<20))
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, err)
		return
	}
	minVer, err := minVersionOf(req)
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, fmt.Errorf("bad min catalog version: %w", err))
		return
	}

	tried := make(map[*backend]bool, len(r.backends))
	attempts := 0
	// Bounded retries: each replica at most once, then the leader.
	for attempts <= len(r.backends) {
		b := r.pick(minVer, tried)
		if b == nil {
			break
		}
		tried[b] = true
		attempts++
		b.outstanding.Add(1)
		res, err := r.attempt(b.url, req, body)
		b.outstanding.Add(-1)
		if err != nil {
			r.fail(b)
			r.failovers.Inc()
			continue
		}
		b.observeVersion(res.version)
		if res.version < minVer {
			// The replica advertised freshness it did not have (it may have
			// been reset by a resync). Never serve it silently; try a
			// fresher backend or the leader.
			r.staleSkips.Inc()
			continue
		}
		b.requests.Inc()
		writeRouted(w, res, b.url, attempts)
		return
	}

	// Leader fallthrough: the leader's catalog version is by definition the
	// newest, so min_catalog_version at most reflects a mutation the leader
	// acknowledged — it can always serve it.
	r.leaderFalls.Inc()
	res, err := r.attempt(strings.TrimRight(r.opts.Leader, "/"), req, body)
	if err != nil {
		writeRouterError(w, http.StatusBadGateway, fmt.Errorf("no backend available: %w", err))
		return
	}
	attempts++
	if res.status == http.StatusOK && res.version < minVer {
		writeRouterError(w, http.StatusPreconditionFailed,
			fmt.Errorf("min_catalog_version %d is ahead of the leader (version %d)", minVer, res.version))
		return
	}
	writeRouted(w, res, "leader", attempts)
}

// attempt posts the query to one backend and parses the catalogVersion
// stamp out of the response body. Non-2xx statuses below 500 are valid
// outcomes (the query itself was bad); 5xx and transport errors are backend
// failures.
func (r *Router) attempt(base string, req *http.Request, body []byte) (*routed, error) {
	out, err := http.NewRequestWithContext(req.Context(), http.MethodPost, base+req.URL.Path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	out.Header.Set("Content-Type", "application/json")
	resp, err := r.opts.Client.Do(out)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 500 {
		return nil, fmt.Errorf("%s: HTTP %d", base, resp.StatusCode)
	}
	res := &routed{status: resp.StatusCode, header: resp.Header, body: respBody}
	var stamp struct {
		CatalogVersion uint64 `json:"catalogVersion"`
	}
	if json.Unmarshal(respBody, &stamp) == nil {
		res.version = stamp.CatalogVersion
	}
	return res, nil
}

// writeRouted relays a backend response with the router's stamps.
func writeRouted(w http.ResponseWriter, res *routed, servedBy string, attempts int) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("X-Served-By", servedBy)
	w.Header().Set("X-Catalog-Version", strconv.FormatUint(res.version, 10))
	w.Header().Set("X-Router-Attempts", strconv.Itoa(attempts))
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func writeRouterError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": err.Error()})
}
