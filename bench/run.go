package main

// The measured run: set the workload's topology up (several times, for a
// steady setup_s), drive it for the window with tracing off, check every
// response, then run the workload's after-window checks.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// hitRule is what a workload requires of every response's cacheHit flag.
type hitRule int

const (
	hitAny hitRule = iota
	hitAlways
	hitNever
)

// spec is one workload: its topology, its timed operation and the
// background traffic on the second connection. The two connections of the
// load generator are either two closed-loop clients of the timed op, or one
// such client plus one open-loop background stream.
type spec struct {
	name       string
	why        string
	replicated bool    // durable leader + follower + router instead of one in-memory server
	timedPatch bool    // the timed op is PATCH /v1/tables/{t}; otherwise POST /v1/query
	clients    int     // closed-loop clients of the timed op
	bgRate     int     // open-loop background ops per second (the other kind of op); 0 = none
	hit        hitRule // required cacheHit of timed query responses
	whatIf     bool    // responses must report whatIf:true
	warmReps   int     // fixed-count warm-up: executions of each warm plan
}

var workloads = []spec{
	{name: "warm_read", clients: 2, hit: hitAlways, warmReps: 8,
		why: "16 queries cycling under a 128-plan cache: httpapi decode/encode and the plan-cache lookup do the work, exec and probcalc none"},
	{name: "cold_compile", clients: 2, hit: hitNever, warmReps: 1,
		why: "2048 distinct query texts cycling, so the plan cache never hits: parser, exec, pctable candidates and d-tree do the work"},
	{name: "whatif_marginals", clients: 2, hit: hitAlways, whatIf: true, warmReps: 4,
		why: "cached plans re-weighted by a per-request distributions override: probcalc does the work, exec none"},
	{name: "patch_stream", replicated: true, timedPatch: true, clients: 1, bgRate: 50, warmReps: 4,
		why: "1-row patches through the router to a durable leader with a follower: wal, catalog, maintenance and replication do the work"},
	{name: "read_under_patch", replicated: true, clients: 1, bgRate: 20, warmReps: 4,
		why: "read-your-writes queries through the router beside a 20/s patch stream: the same caches used the other way round"},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// patchTable is the table a workload's patch stream targets.
func (in *input) patchTable() string { return in.tables[0].name }

// topology is one running set of children.
type topology struct {
	leader, follower, router *child
	dataDir                  string
	target                   string // where timed ops go: the server, or the router
	baseVersion              uint64 // catalog version after the tables loaded
}

func (t *topology) children() []*child {
	out := []*child{t.leader}
	if t.follower != nil {
		out = append(out, t.follower, t.router)
	}
	return out
}

func (t *topology) stop() {
	for _, c := range t.children() {
		if c != nil {
			c.kill()
		}
	}
	if t.dataDir != "" {
		os.RemoveAll(t.dataDir)
	}
}

// start spawns the workload's topology, loads the catalog over HTTP and does
// the fixed-count warm-up. This is what setup_s times.
func (e *env) start(ctx context.Context, sp spec, in *input) (*topology, error) {
	c := newConn()
	defer c.close()
	t := &topology{}
	ok := false
	defer func() {
		if !ok {
			t.stop()
		}
	}()
	var err error
	if !sp.replicated {
		if t.leader, err = e.spawn("server", "uncertaind"); err != nil {
			return nil, err
		}
	} else {
		if t.dataDir, err = e.tempDir("data-"); err != nil {
			return nil, err
		}
		if t.leader, err = e.spawn("leader", "uncertaind", "-data-dir", t.dataDir, "-snapshot-every", "64"); err != nil {
			return nil, err
		}
	}
	if err := t.leader.waitReady(ctx, c.hc); err != nil {
		return nil, err
	}
	for _, tab := range in.tables {
		status, _, body, err := c.do(http.MethodPut, t.leader.url+"/v1/tables/"+tab.name, []byte(tab.script), 0)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, httpError("PUT "+tab.name, status, body)
		}
		if t.baseVersion, err = versionOf(body); err != nil {
			return nil, err
		}
	}
	t.target = t.leader.url
	if sp.replicated {
		if t.follower, err = e.spawn("follower", "uncertaind", "-follow", t.leader.url); err != nil {
			return nil, err
		}
		if err := t.follower.waitReady(ctx, c.hc); err != nil {
			return nil, err
		}
		if t.router, err = e.spawn("router", "uncertainrouter", "-leader", t.leader.url, "-replica", t.follower.url, "-health-interval", "100ms"); err != nil {
			return nil, err
		}
		t.target = t.router.url
		// The router is ready once its health loop has admitted the follower.
		probe := queryBody(in.plans[0])
		err := poll(ctx, func() (bool, error) {
			if !t.router.alive() {
				return false, errors.New("router exited during start-up (see bench/out/router.log)")
			}
			_, hdr, _, err := c.do(http.MethodPost, t.router.url+"/v1/query", probe, 0)
			return err == nil && hdr.Get("X-Served-By") == t.follower.url, nil
		})
		if err != nil {
			return nil, err
		}
	}
	// Warm-up: a fixed number of executions of each warm plan on every node
	// that will serve it. A stream longer than 64 bodies is warmed with its
	// tail, which a cold stream has long evicted when the window reaches it.
	warm := in.bodies
	if len(warm) > 64 {
		warm = warm[len(warm)-64:]
	}
	bases := []string{t.target}
	if sp.replicated {
		bases = append(bases, t.leader.url)
	}
	for _, base := range bases {
		for rep := 0; rep < sp.warmReps; rep++ {
			for _, b := range warm {
				status, _, body, err := c.do(http.MethodPost, base+"/v1/query", b, 0)
				if err != nil {
					return nil, err
				}
				if status != http.StatusOK {
					return nil, httpError("warm-up query", status, body)
				}
			}
		}
	}
	ok = true
	return t, nil
}

// versionOf extracts "catalogVersion":N from a response body.
func versionOf(body []byte) (uint64, error) {
	i := bytes.Index(body, versionKey)
	if i < 0 {
		return 0, fmt.Errorf("no catalogVersion in %q", truncate(body))
	}
	j := i + len(versionKey)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	return strconv.ParseUint(string(body[j:k]), 10, 64)
}

func truncate(b []byte) []byte {
	if len(b) > 120 {
		return b[:120]
	}
	return b
}

// checker verifies the responses of one run. Expected hashes of query bodies
// come from the in-process reference where it was consulted; elsewhere the
// first response is recorded and every later one must match it.
type checker struct {
	sp       spec
	in       *input
	top      *topology
	expected []atomic.Uint64 // normalized-body hash per request body index; 0 = not yet known
	acked    atomic.Int64    // patches acknowledged so far
	leaderOK atomic.Int64    // routed reads served by the leader (fallthrough)
	routed   atomic.Int64    // routed reads in total
	live     *liveSets
}

// queryOp is the timed query of the single-server workloads: body i of the
// stream, checked for status, cacheHit, whatIf and its normalized hash.
func (ck *checker) queryOp(c *conn, i int) error {
	idx := i % len(ck.in.bodies)
	status, _, body, err := c.do(http.MethodPost, ck.top.target+"/v1/query", ck.in.bodies[idx], 0)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return httpError("query", status, body)
	}
	switch ck.sp.hit {
	case hitAlways:
		if !bytes.Contains(body, cacheHitYes) {
			return fmt.Errorf("query %d: expected cacheHit:true", idx)
		}
	case hitNever:
		if !bytes.Contains(body, cacheHitNo) {
			return fmt.Errorf("query %d: expected cacheHit:false", idx)
		}
	}
	if ck.sp.whatIf && !bytes.Contains(body, whatIfYes) {
		return fmt.Errorf("query %d: expected whatIf:true", idx)
	}
	h := bodyHash(body)
	if !ck.expected[idx].CompareAndSwap(0, h) && ck.expected[idx].Load() != h {
		return fmt.Errorf("query %d: response body differs from the expected one", idx)
	}
	return nil
}

// patchOp sends the next patch of the stream through the router (its own
// count, not the driver's, numbers the patches, so several phases can share
// one stream). With a single writer the acknowledged catalog version is
// exactly base + i + 1.
func (ck *checker) patchOp(c *conn, _ int) error {
	i := int(ck.acked.Load())
	p := ck.in.patches[i%len(ck.in.patches)]
	status, _, body, err := c.do(http.MethodPatch, ck.top.target+"/v1/tables/"+ck.in.patchTable(), []byte(p.body), 0)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return httpError("patch", status, body)
	}
	v, err := versionOf(body)
	if err != nil {
		return err
	}
	if want := ck.top.baseVersion + uint64(i) + 1; v != want {
		return fmt.Errorf("patch %d acknowledged at catalog version %d, want %d", i, v, want)
	}
	ck.acked.Store(int64(i) + 1)
	return nil
}

// routedResponse is what the patch workloads decode of a query response.
type routedResponse struct {
	CatalogVersion uint64 `json:"catalogVersion"`
	Tuples         []struct {
		Tuple []any `json:"tuple"`
	} `json:"tuples"`
}

// readOp is a read-your-writes query through the router: plan i of the warm
// plans, with X-Min-Catalog-Version at the last acknowledged patch. The
// answer must be at least that fresh, and for the probe plans it must be
// exactly the patch rows alive at the version it reports.
func (ck *checker) readOp(c *conn, i int) error {
	idx := i % len(ck.in.bodies)
	minVer := ck.top.baseVersion + uint64(ck.acked.Load())
	status, hdr, body, err := c.do(http.MethodPost, ck.top.target+"/v1/query", ck.in.bodies[idx], minVer)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return httpError("routed query", status, body)
	}
	ck.routed.Add(1)
	if hdr.Get("X-Served-By") == "leader" {
		ck.leaderOK.Add(1)
	}
	if idx >= numProbePlans {
		v, err := strconv.ParseUint(hdr.Get("X-Catalog-Version"), 10, 64)
		if err != nil || v < minVer {
			return fmt.Errorf("routed query: X-Catalog-Version %q below the required %d", hdr.Get("X-Catalog-Version"), minVer)
		}
		return nil
	}
	var resp routedResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	if resp.CatalogVersion < minVer {
		return fmt.Errorf("routed query answered at version %d, below the required %d", resp.CatalogVersion, minVer)
	}
	want := ck.live.at(int(resp.CatalogVersion-ck.top.baseVersion), idx == 1)
	if len(resp.Tuples) != len(want) {
		return fmt.Errorf("probe plan %d at version %d: %d tuples, want %d", idx, resp.CatalogVersion, len(resp.Tuples), len(want))
	}
	got := make([]int, len(resp.Tuples))
	for k, t := range resp.Tuples {
		f, _ := t.Tuple[0].(float64)
		got[k] = int(f)
	}
	sort.Ints(got)
	for k := range got {
		if got[k] != want[k] {
			return fmt.Errorf("probe plan %d at version %d: row ids %v, want %v", idx, resp.CatalogVersion, got, want)
		}
	}
	return nil
}

// liveSets answers "which patch rows are alive after the first k patches",
// from checkpoints of the stream replayed at generation time.
type liveSets struct {
	ops         []patchOp
	every       int
	checkpoints [][]int // live ids after every*j patches, in upsert order
	cpatch      map[int]bool
}

func newLiveSets(ops []patchOp) *liveSets {
	ls := &liveSets{ops: ops, every: 256, cpatch: map[int]bool{}}
	var alive []int
	for k, op := range ops {
		if k%ls.every == 0 {
			ls.checkpoints = append(ls.checkpoints, append([]int(nil), alive...))
		}
		alive = applyPatchOp(alive, op)
		if strings.Contains(op.body, "'cpatch'") {
			ls.cpatch[op.id] = true
		}
	}
	return ls
}

func applyPatchOp(alive []int, op patchOp) []int {
	if !op.delete {
		return append(alive, op.id)
	}
	for i, id := range alive {
		if id == op.id {
			return append(alive[:i], alive[i+1:]...)
		}
	}
	return alive
}

// at returns the sorted ids alive after k patches (k counts from the start
// of the stream and wraps with it); cpatchOnly keeps the 'cpatch' rows.
func (ls *liveSets) at(k int, cpatchOnly bool) []int {
	if k < 0 {
		k = 0
	}
	// The stream is long enough that a run never wraps; at() clamps rather
	// than models a wrap.
	if k > len(ls.ops) {
		k = len(ls.ops)
	}
	j := k / ls.every
	if j >= len(ls.checkpoints) {
		j = len(ls.checkpoints) - 1
	}
	alive := append([]int(nil), ls.checkpoints[j]...)
	for i := j * ls.every; i < k; i++ {
		alive = applyPatchOp(alive, ls.ops[i])
	}
	out := alive[:0]
	for _, id := range alive {
		if !cpatchOnly || ls.cpatch[id] {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// ops returns the workload's timed operation and its background operation.
func (ck *checker) ops() (timed, background op) {
	switch {
	case ck.sp.timedPatch:
		return ck.patchOp, ck.readOp
	case ck.sp.replicated:
		return ck.readOp, ck.patchOp
	}
	return ck.queryOp, nil
}

// drive runs the workload's traffic for window: the timed op on sp.clients
// closed-loop connections, the background stream (if any) open-loop on the
// remaining one. Operations are numbered from first.
//
// cpu holds the children's summed CPU seconds at every slice boundary of the
// window, windowSlices+1 readings.
func (ck *checker) drive(window time.Duration, first int) (timed, bg *tally, cpu []float64) {
	timedOp, bgOp := ck.ops()
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(window))
	defer cancel()
	tallies := make([]*tally, ck.sp.clients)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i <= windowSlices; i++ {
			time.Sleep(time.Until(start.Add(window * time.Duration(i) / windowSlices)))
			cpu = append(cpu, cpuSeconds(ck.top.children()))
		}
	}()
	for k := range tallies {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := newConn()
			defer c.close()
			tallies[k] = closedLoop(ctx, start, c, first+k, ck.sp.clients, timedOp)
		}(k)
	}
	if ck.sp.bgRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn()
			defer c.close()
			bg = openLoop(ctx, start, c, ck.sp.bgRate, first, bgOp)
		}()
	}
	wg.Wait()
	timed = &tally{}
	for _, t := range tallies {
		timed.merge(t)
	}
	return timed, bg, cpu
}

// measured is the outcome of one measured run.
type measured struct {
	metrics   map[string]float64
	attempted int
	failed    int
	correct   bool
	notes     []string // why correct is false, and first failures
	detail    map[string]any
}

// engineStats is the part of GET /v1/stats the harness reads.
type engineStats struct {
	Engine struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"engine"`
}

func fetchJSON(c *conn, url string, into any) error {
	status, _, body, err := c.do(http.MethodGet, url, nil, 0)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return httpError("GET "+url, status, body)
	}
	return json.Unmarshal(body, into)
}

// setupReps is how many times a run sets the topology up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// referenceCount is how many leading bodies of the timed stream get their
// expected response from the in-process reference.
const referenceCount = 64

// prepare computes the expected hashes and runs the marginal oracle, all
// in-process and outside every timed interval.
func prepare(sp spec, in *input, seed int64) (*checker, int, error) {
	ck := &checker{sp: sp, in: in, expected: make([]atomic.Uint64, len(in.bodies))}
	oracleChecked := 0
	if sp.replicated {
		ck.live = newLiveSets(in.patches)
	}
	ref, err := newReference(in.tables)
	if err != nil {
		return nil, 0, err
	}
	// Patch workloads change their answers as they go; their reads are
	// checked against the patch stream instead (readOp).
	for i := 0; i < min(len(in.bodies), referenceCount) && !sp.replicated; i++ {
		status, body := ref.serve(http.MethodPost, "/v1/query", in.bodies[i])
		if status != http.StatusOK {
			return nil, 0, httpError("reference query", status, body)
		}
		ck.expected[i].Store(bodyHash(body))
	}
	plans := in.plans
	if len(plans) > 16 {
		plans = plans[:16]
	}
	if oracleChecked, err = oracleCheck(in.tables, plans, seed, 1); err != nil {
		return nil, 0, err
	}
	if oracleChecked == 0 {
		return nil, 0, errors.New("oracle: no answer tuple was small enough to enumerate")
	}
	return ck, oracleChecked, nil
}

// runMeasured executes one measured run of the workload.
func (e *env) runMeasured(sp spec, seed int64, window time.Duration, sz sizes, strict bool) (*measured, error) {
	in, err := genInput(sp.name, seed, sz)
	if err != nil {
		return nil, err
	}
	ck, oracleChecked, err := prepare(sp, in, seed)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var setups []float64
	var top *topology
	for rep := 0; rep < setupReps; rep++ {
		if top != nil {
			top.stop()
		}
		t0 := time.Now()
		if top, err = e.start(ctx, sp, in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer top.stop()
	ck.top = top

	m := &measured{metrics: map[string]float64{}, correct: true, detail: map[string]any{}}
	fail := func(format string, args ...any) {
		m.correct = false
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}

	admin := newConn()
	defer admin.close()
	var statsBefore, statsAfter engineStats
	if err := fetchJSON(admin, top.leader.url+"/v1/stats", &statsBefore); err != nil {
		return nil, err
	}
	all, bg, cpu := ck.drive(window, 0)
	rss := rssMiB(top.children())
	if err := fetchJSON(admin, top.leader.url+"/v1/stats", &statsAfter); err != nil {
		return nil, err
	}

	sum := summarize(all.samples, window)
	m.attempted, m.failed = all.attempted, all.failed
	if all.firstErr != nil {
		fail("timed op: %v", all.firstErr)
	}
	if bg != nil {
		m.attempted += bg.attempted
		m.failed += bg.failed
		if bg.firstErr != nil {
			fail("background op: %v", bg.firstErr)
		}
		m.detail["background_ops"] = len(bg.samples)
		lat := make([]time.Duration, len(bg.samples))
		for i, s := range bg.samples {
			lat[i] = s.dur
		}
		m.detail["background_p50_us"] = us(percentile(sortedDurs(lat), 0.5))
		m.detail["background_late_p99_us"] = us(percentile(sortedDurs(bg.late), 0.99))
	}
	if sum.n == 0 {
		return nil, fmt.Errorf("no timed operation succeeded: %v", all.firstErr)
	}
	if strict && sum.n < p99GroupSamples {
		fail("only %d timed samples: a p99 needs %d", sum.n, p99GroupSamples)
	}

	hits := statsAfter.Engine.Hits - statsBefore.Engine.Hits
	misses := statsAfter.Engine.Misses - statsBefore.Engine.Misses
	if hits+misses > 0 {
		ratio := float64(hits) / float64(hits+misses)
		m.detail["plan_cache_hit_ratio"] = ratio
		if sp.hit == hitNever && ratio > 0.01 {
			fail("cold workload hit the plan cache: ratio %.4f", ratio)
		}
	}
	if sp.replicated {
		if err := e.afterPatchWindow(ctx, ck, admin, m.detail); err != nil {
			fail("after-window check: %v", err)
		}
	}

	var cpuPerOp []float64
	for i, ops := range sum.perSlice {
		if ops > 0 {
			cpuPerOp = append(cpuPerOp, (cpu[i+1]-cpu[i])*1e6/float64(ops))
		}
	}
	m.metrics["setup_s"] = medianFloat(setups)
	m.metrics["ops_s"] = sum.opsPerSec
	m.metrics["p50_us"] = us(sum.p50)
	m.metrics["p99_us"] = us(sum.p99)
	m.metrics["cpu_us_per_op"] = medianFloat(cpuPerOp)
	m.metrics["rss_mb"] = rss
	m.detail["timed_ops"] = sum.n
	m.detail["timed_ops_per_slice"] = sum.perSlice
	m.detail["p99_groups"] = sum.p99Groups
	m.detail["setups_s"] = setups
	m.detail["oracle_tuples_checked"] = oracleChecked
	m.detail["input_hash"] = in.hash
	return m, nil
}

// replicationStatus is the part of the follower's GET /v1/replication read.
type replicationStatus struct {
	AppliedVersion uint64 `json:"appliedVersion"`
	Resyncs        uint64 `json:"resyncs"`
}

// afterPatchWindow is the durability and replication check of the patch
// workloads: wait for the follower to apply the last acknowledged patch,
// SIGKILL the leader, restart it on the same directory, and require that
// every acknowledged patch is there and that leader and follower answer the
// warm plans byte-identically.
func (e *env) afterPatchWindow(ctx context.Context, ck *checker, c *conn, detail map[string]any) error {
	top, in := ck.top, ck.in
	acked := int(ck.acked.Load())
	wantVersion := top.baseVersion + uint64(acked)
	var rs replicationStatus
	err := poll(ctx, func() (bool, error) {
		if err := fetchJSON(c, top.follower.url+"/v1/replication", &rs); err != nil {
			return false, err
		}
		return rs.AppliedVersion >= wantVersion, nil
	})
	if err != nil {
		return fmt.Errorf("follower never applied version %d: %w", wantVersion, err)
	}
	detail["acked_patches"] = acked
	detail["follower_resyncs"] = rs.Resyncs
	if rs.Resyncs > 1 { // the initial bootstrap counts as one
		return fmt.Errorf("follower re-synced %d times during the run", rs.Resyncs-1)
	}
	if ck.routed.Load() > 0 {
		detail["leader_fallthrough_ratio"] = float64(ck.leaderOK.Load()) / float64(ck.routed.Load())
	}
	followerBodies, err := planBodies(c, top.follower.url, in.bodies)
	if err != nil {
		return err
	}

	port := top.leader.port()
	top.leader.kill()
	if top.leader, err = e.spawnAt("leader", "uncertaind", port, "-data-dir", top.dataDir, "-snapshot-every", "64"); err != nil {
		return err
	}
	if err := top.leader.waitReady(ctx, c.hc); err != nil {
		return err
	}
	var tables struct {
		CatalogVersion uint64 `json:"catalogVersion"`
	}
	if err := fetchJSON(c, top.leader.url+"/v1/tables", &tables); err != nil {
		return err
	}
	if tables.CatalogVersion != wantVersion {
		return fmt.Errorf("restarted leader is at catalog version %d, %d patches were acknowledged up to version %d", tables.CatalogVersion, acked, wantVersion)
	}
	var tab struct {
		Rows int    `json:"rows"`
		Text string `json:"text"`
	}
	if err := fetchJSON(c, top.leader.url+"/v1/tables/"+in.patchTable(), &tab); err != nil {
		return err
	}
	live := ck.live.at(acked, false)
	for _, id := range live {
		if !strings.Contains(tab.Text, strconv.Itoa(id)+",") {
			return fmt.Errorf("acknowledged row %d is missing after the restart", id)
		}
	}
	detail["rows_after_restart"] = tab.Rows
	leaderBodies, err := planBodies(c, top.leader.url, in.bodies)
	if err != nil {
		return err
	}
	for i := range leaderBodies {
		if !bytes.Equal(leaderBodies[i], followerBodies[i]) {
			// Keep both bodies: the difference is the finding.
			os.WriteFile(filepath.Join(e.outDir, "mismatch-leader.json"), leaderBodies[i], 0o644)
			os.WriteFile(filepath.Join(e.outDir, "mismatch-follower.json"), followerBodies[i], 0o644)
			return fmt.Errorf("plan %d (%s): restarted leader and follower answers differ (bodies kept in bench/out/mismatch-*.json)", i, in.plans[i])
		}
	}
	return nil
}

// planBodies queries every body on one node and returns the normalized
// responses (catalog version kept: both nodes must be at the same one).
func planBodies(c *conn, base string, bodies [][]byte) ([][]byte, error) {
	out := make([][]byte, len(bodies))
	for i, b := range bodies {
		status, _, body, err := c.do(http.MethodPost, base+"/v1/query", b, 0)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, httpError("plan query", status, body)
		}
		out[i] = normalize(body)
	}
	return out, nil
}
