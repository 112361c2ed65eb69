package main

// The traced run: a deterministic, sequential replay of the workload's op
// stream with one client, each op recorded as a span tree, followed by the
// standalone layer probes. The program has no spans of its own yet, so below
// the socket every span is a probe: a separately timed call into the layer's
// public function on the same input, against in-process instances built from
// the same generated tables. A layer's self time is its probe minus its
// children's probes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// span is one node of an op's tree as written to bench/out/trace-<w>.json.
type span struct {
	OpID   int    `json:"op_id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Probe  bool   `json:"probe,omitempty"`
}

// tracer keeps spans in memory until the run ends, and every duration by
// name for the per-layer medians.
type tracer struct {
	epoch  time.Time
	spans  []span
	byName map[string][]time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), byName: map[string][]time.Duration{}} }

// add records a span that ended just now and lasted d.
func (t *tracer) add(op int, name, parent string, d time.Duration, probe bool) {
	end := time.Since(t.epoch)
	t.spans = append(t.spans, span{OpID: op, Name: name, Parent: parent, Start: int64(end - d), End: int64(end), Probe: probe})
	t.observe(name, d)
}

// observe records a duration that is a metric sample but not a tree node.
func (t *tracer) observe(name string, d time.Duration) {
	t.byName[name] = append(t.byName[name], d)
}

// p50 is the median duration recorded under name, in microseconds; 0 when
// the workload's ops never entered that layer.
func (t *tracer) p50(name string) float64 {
	return us(percentile(sortedDurs(t.byName[name]), 0.5))
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedCounts are the fixed op counts of a traced run, scaled with the
// window so the -short test stays short. They never depend on the seed.
type tracedCounts struct {
	queries, patches int           // ops per replay phase
	loaded           time.Duration // length of the loaded phase
	pairs            int           // repetitions of the paired standalone probes
}

// coldPlans is how many plans are decomposed for engine.cold_self_us.
const coldPlans = 4

func countsFor(window time.Duration) tracedCounts {
	scale := func(n int) int { return max(n*int(window/time.Second)/20, 4) }
	return tracedCounts{queries: scale(64), patches: scale(64), loaded: window / 8, pairs: scale(32)}
}

// runTraced executes one traced run of the workload and returns the
// per-layer metrics.
func (e *env) runTraced(sp spec, seed int64, window time.Duration, sz sizes) (*measured, error) {
	in, err := genInput(sp.name, seed, sz)
	if err != nil {
		return nil, err
	}
	n := countsFor(window)
	ck := &checker{sp: sp, in: in, expected: make([]atomic.Uint64, len(in.bodies))}
	if sp.replicated {
		ck.live = newLiveSets(in.patches)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	top, err := e.start(ctx, sp, in)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer top.stop()
	ck.top = top
	scratch, err := e.tempDir("lab-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	l, err := newLab(in.tables, scratch)
	if err != nil {
		return nil, err
	}
	defer l.close()

	m := &measured{metrics: map[string]float64{}, correct: true, detail: map[string]any{"input_hash": in.hash}}
	fail := func(format string, args ...any) {
		m.correct = false
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
	count := func(err error, what string) {
		m.attempted++
		if err != nil {
			m.failed++
			fail("%s: %v", what, err)
		}
	}

	// The plans the write-path probes keep warm, and — on every workload
	// whose ops hit the cache — the plans the query probes find warm.
	warmPlans := in.plans[:min(len(in.plans), 8)]
	if err := l.warmWritePath(warmPlans); err != nil {
		return nil, err
	}
	if sp.hit != hitNever {
		for _, q := range in.plans {
			for rep := 0; rep < 2; rep++ {
				if _, _, err := l.execute(queryReq{Query: q, Engine: "auto"}); err != nil {
					return nil, err
				}
				l.handle(queryBody(q))
			}
		}
	}

	c := newConn()
	defer c.close()
	nodes := top.children()[:1]
	if sp.replicated {
		nodes = top.children()[:2] // leader and follower both serve reads
	}
	before, err := cacheCounters(c, nodes)
	if err != nil {
		return nil, err
	}
	queryOp := ck.queryOp
	if sp.replicated {
		queryOp = ck.readOp
	}

	// The lab's write path is fast-forwarded through the patches phase A
	// sends, so that phase B probes the patches phase B sends; done first,
	// and its garbage collected, so neither replay phase shares the cores
	// with it.
	for j := 0; j < n.patches; j++ {
		if _, err := l.patch(in.patchTable(), in.patches[j].body); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	// Phase A: the replay prefix with no span recording, for the tracing
	// overhead: one query op and one patch op in turn, as in phase B.
	var untracedQuery, untracedPatch []time.Duration
	for i := 0; i < max(n.queries, n.patches); i++ {
		if i < n.queries {
			t0 := time.Now()
			err := queryOp(c, i)
			untracedQuery = append(untracedQuery, time.Since(t0))
			count(err, "untraced query")
		}
		if i < n.patches && sp.replicated {
			t0 := time.Now()
			err := ck.patchOp(c, 0)
			untracedPatch = append(untracedPatch, time.Since(t0))
			count(err, "untraced patch")
		}
	}

	// Phase B: the traced replay, one query op and one patch op in turn.
	// The socket round trips of all ops come first, back to back like the
	// untraced prefix; the in-process probes of each op follow, attached to
	// the same op ids, so that probing never idles the servers between ops.
	tr := newTracer()
	states := map[string]*planState{}
	var counts struct{ rowsIn, hashProbes, morsels, coldOps, memoHits, memoMisses, circuitNodes uint64 }
	var respBytes []time.Duration // body lengths, sorted like durations
	roundTrip := make([]time.Duration, n.queries)
	effectiveOf := make([]string, n.queries)
	for i := 0; i < max(n.queries, n.patches); i++ {
		if i < n.queries {
			t0 := time.Now()
			err := queryOp(c, n.queries+i)
			roundTrip[i] = time.Since(t0)
			count(err, "traced query")
			tr.add(2*i, "op", "", roundTrip[i], false)
			tr.add(2*i, "http.client", "op", roundTrip[i], false)
			tr.observe("http.client.query", roundTrip[i])
			effectiveOf[i] = effectiveEngine(c.buf.Bytes())
			respBytes = append(respBytes, time.Duration(c.buf.Len()))
		}
		if i < n.patches && sp.replicated {
			t0 := time.Now()
			err := ck.patchOp(c, 0)
			rt := time.Since(t0)
			count(err, "traced patch")
			tr.add(2*i+1, "op", "", rt, false)
			tr.add(2*i+1, "http.client", "op", rt, false)
			tr.observe("http.client.patch", rt)
		}
	}
	for i := 0; i < max(n.queries, n.patches); i++ {
		if i < n.queries {
			idx := (n.queries + i) % len(in.bodies)
			body := in.bodies[idx]
			opID, rt, effective := 2*i, roundTrip[i], effectiveOf[i]

			hd, status, _ := l.handle(body)
			if status != http.StatusOK {
				fail("in-process handler answered %d for body %d", status, idx)
			}
			tr.add(opID, "httpapi.handler", "op", hd, true)
			var req queryReq
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, err
			}
			ed, hit, err := l.execute(req)
			if err != nil {
				return nil, err
			}
			tr.add(opID, "engine.execute", "httpapi.handler", ed, true)
			tr.observe("httpapi.self", hd-ed)
			tr.observe("net.loopback", rt-hd)

			var qp queryProbe
			ps := states[req.Query]
			if !hit || (sp.whatIf && ps == nil) {
				// A cold execution passes through every layer; so does the
				// first sight of a plan whose what-ifs are to be probed.
				if qp, ps, err = l.components(req.Query); err != nil {
					return nil, err
				}
				states[req.Query] = ps
			}
			switch {
			case !hit:
				counts.coldOps++
				counts.rowsIn += qp.rowsIn
				counts.hashProbes += qp.hashProbes
				counts.morsels += qp.morsels
				tr.add(opID, "parser.parse", "engine.execute", qp.parse, true)
				tr.add(opID, "catalog.snapshot", "engine.execute", qp.snapshot, true)
				tr.add(opID, "exec.run", "engine.execute", qp.run, true)
				tr.add(opID, "exec.rewrite", "exec.run", qp.rewrite, true)
				tr.add(opID, "pctable.candidates", "engine.execute", qp.candidates, true)
			default:
				parse, snap, _, _, err := l.parseSnapshot(req.Query)
				if err != nil {
					return nil, err
				}
				tr.add(opID, "parser.parse", "engine.execute", parse, true)
				tr.add(opID, "catalog.snapshot", "engine.execute", snap, true)
				if sp.whatIf {
					if err := l.reweigh(ps, &qp); err != nil {
						return nil, err
					}
				}
			}
			if !hit || sp.whatIf {
				// Both probability engines are timed; only the one the
				// server reported as effective hangs in the op's tree.
				counts.memoHits += uint64(qp.memoHits)
				counts.memoMisses += uint64(qp.memoMisses)
				if effective == "circuit" {
					tr.observe("probcalc.dtree", qp.dtree)
					if !hit {
						tr.add(opID, "probcalc.circuit_compile", "engine.execute", qp.circuitCompile, true)
					}
					tr.add(opID, "probcalc.circuit_eval", "engine.execute", qp.circuitEval, true)
				} else {
					tr.add(opID, "probcalc.dtree", "engine.execute", qp.dtree, true)
					if !hit {
						tr.observe("probcalc.circuit_compile", qp.circuitCompile)
					}
					tr.observe("probcalc.circuit_eval", qp.circuitEval)
				}
			}
			if ps != nil {
				counts.circuitNodes = max(counts.circuitNodes, uint64(ps.circ.NumNodes()))
			}
		}
		if i < n.patches {
			opID := 2*i + 1
			script := in.patches[n.patches+i].body
			hd, status, body := l.handlePatch(in.patchTable(), script)
			if status != http.StatusOK {
				fail("in-process handler answered %d for a patch: %s", status, truncate(body))
			}
			tr.add(opID, "httpapi.handler.patch", "op", hd, true)
			pp, err := l.patch(in.patchTable(), script)
			if err != nil {
				return nil, err
			}
			tr.add(opID, "maintain.patch", "httpapi.handler.patch", pp.maintain, true)
			tr.add(opID, "catalog.patch_apply", "maintain.patch", pp.apply, true)
			tr.add(opID, "wal.append", "maintain.patch", pp.walAppend, true)
			tr.observe("wal.append_fsync", pp.walFsync)
		}
	}

	// Phase C: the workload's real traffic mix for a short loaded window. Its
	// p50 against the sum of the sequential layer self times is the share of
	// latency no layer accounts for: queueing for cores, locks and sockets.
	loaded, bg, _ := ck.drive(n.loaded, 2*n.queries)
	m.attempted += loaded.attempted
	m.failed += loaded.failed
	if loaded.firstErr != nil {
		fail("loaded phase: %v", loaded.firstErr)
	}
	var lateP99 float64
	if bg != nil {
		m.attempted += bg.attempted
		m.failed += bg.failed
		if bg.firstErr != nil {
			fail("loaded phase background: %v", bg.firstErr)
		}
		lateP99 = us(percentile(sortedDurs(bg.late), 0.99))
	}
	loadedP50 := us(summarize(loaded.samples, n.loaded).p50)
	after, err := cacheCounters(c, nodes)
	if err != nil {
		return nil, err
	}

	// Phase D: the replication layer, where there is one.
	rep, err := e.replicaProbes(ctx, ck, c, n)
	if err != nil {
		fail("replica probes: %v", err)
	}

	// Phase E: standalone probes of single layers on this run's inputs.
	sa, err := l.standalone(in, warmPlans, n, scratch)
	if err != nil {
		return nil, err
	}

	if err := tr.write(filepath.Join(e.outDir, "trace-"+sp.name+".json")); err != nil {
		return nil, err
	}

	// Self times of the timed op's tree, for the unattributed share: the
	// socket (round trip − handler), the handler (− the engine call inside
	// it), that call (− its children, never below 0) and the children.
	selfSum := func(roundTrip, handler, inner string, children ...string) (seq, sum float64) {
		var kids float64
		for _, c := range children {
			kids += tr.p50(c)
		}
		seq = tr.p50(roundTrip)
		return seq, (seq - tr.p50(handler)) + (tr.p50(handler) - tr.p50(inner)) + max(tr.p50(inner)-kids, 0) + kids
	}
	seqP50, layerSum := selfSum("http.client.query", "httpapi.handler", "engine.execute",
		"parser.parse", "catalog.snapshot", "exec.run", "pctable.candidates",
		"probcalc.dtree", "probcalc.circuit_compile", "probcalc.circuit_eval")
	if sp.timedPatch {
		seqP50, layerSum = selfSum("http.client.patch", "httpapi.handler.patch", "maintain.patch", "catalog.patch_apply", "wal.append")
	}
	untraced := untracedQuery
	if sp.timedPatch {
		untraced = untracedPatch
	}

	perCold := func(total uint64) float64 {
		if counts.coldOps == 0 {
			return 0
		}
		return float64(total) / float64(counts.coldOps)
	}
	sort.Slice(respBytes, func(i, j int) bool { return respBytes[i] < respBytes[j] })
	mm := m.metrics
	mm["httpapi.handler_us"] = tr.p50("httpapi.handler")
	mm["httpapi.self_us"] = tr.p50("httpapi.self")
	mm["httpapi.response_bytes"] = float64(percentile(respBytes, 0.5))
	mm["net.loopback_us"] = tr.p50("net.loopback")
	mm["engine.warm_execute_us"] = sa.warmExecute
	mm["engine.warm_allocs_per_op"] = sa.warmAllocs
	mm["engine.warm_bytes_per_op"] = sa.warmBytes
	mm["engine.parallel_scaling"] = sa.parallelScaling
	mm["engine.cold_self_us"] = sa.coldSelf
	mm["engine.plan_cache_hit_ratio"] = ratio(after.hits-before.hits, after.misses-before.misses)
	mm["parser.parse_us"] = tr.p50("parser.parse")
	mm["catalog.snapshot_us"] = tr.p50("catalog.snapshot")
	mm["catalog.patch_apply_us"] = tr.p50("catalog.patch_apply")
	mm["exec.rewrite_us"] = tr.p50("exec.rewrite")
	mm["exec.run_us"] = tr.p50("exec.run")
	mm["exec.worker_scaling"] = sa.workerScaling
	mm["exec.rows_in_per_op"] = perCold(counts.rowsIn)
	mm["exec.hash_probes_per_op"] = perCold(counts.hashProbes)
	mm["exec.morsels_per_op"] = perCold(counts.morsels)
	mm["pctable.candidates_us"] = tr.p50("pctable.candidates")
	mm["probcalc.dtree_us"] = tr.p50("probcalc.dtree")
	mm["probcalc.circuit_compile_us"] = tr.p50("probcalc.circuit_compile")
	mm["probcalc.circuit_eval_us"] = tr.p50("probcalc.circuit_eval")
	mm["probcalc.circuit_nodes"] = float64(counts.circuitNodes)
	mm["probcalc.memo_hit_ratio"] = ratio(counts.memoHits, counts.memoMisses)
	mm["wal.append_us"] = tr.p50("wal.append")
	mm["wal.append_fsync_us"] = tr.p50("wal.append_fsync")
	mm["wal.compact_us"] = sa.compact
	mm["wal.disk_bytes_per_user_byte"] = sa.walAmplification
	mm["wal.recover_us"] = sa.walRecover
	mm["maintain.patch_us"] = tr.p50("maintain.patch")
	mm["maintain.maintained_ratio"] = sa.maintainedRatio
	mm["maintain.marginals_reused_ratio"] = sa.marginalsReusedRatio
	mm["replica.router_hop_us"] = rep.routerHop
	mm["replica.leader_fallthrough_ratio"] = ratio(uint64(ck.leaderOK.Load()), uint64(ck.routed.Load()-ck.leaderOK.Load()))
	mm["replica.apply_lag_p50_us"] = rep.lagP50
	mm["replica.apply_lag_p99_us"] = rep.lagP99
	mm["replica.resyncs"] = rep.resyncs
	mm["obs.warm_overhead_ratio"] = sa.obsOverhead
	mm["loadgen.late_p99_us"] = lateP99
	mm["trace.overhead_ratio"] = seqP50 / us(percentile(sortedDurs(untraced), 0.5))
	mm["trace.unattributed_ratio"] = (loadedP50 - layerSum) / loadedP50
	m.detail["traced_query_ops"] = n.queries
	m.detail["traced_patch_ops"] = n.patches
	m.detail["loaded_p50_us"] = loadedP50
	m.detail["sequential_p50_us"] = seqP50
	m.detail["layer_self_sum_us"] = layerSum
	m.detail["cold_ops"] = counts.coldOps
	m.detail["gomaxprocs"] = runtime.GOMAXPROCS(0)
	return m, nil
}

// ratio is a / (a + b), 0 when both are 0.
func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// effectiveEngine extracts "effective":"..." from a query response.
func effectiveEngine(body []byte) string {
	key := []byte(`"effective":"`)
	i := bytes.Index(body, key)
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return string(rest[:j])
	}
	return ""
}

// cacheCount is the plan-cache hit and miss totals of a set of nodes.
type cacheCount struct{ hits, misses uint64 }

func cacheCounters(c *conn, nodes []*child) (cacheCount, error) {
	var total cacheCount
	for _, n := range nodes {
		var st engineStats
		if err := fetchJSON(c, n.url+"/v1/stats", &st); err != nil {
			return total, err
		}
		total.hits += st.Engine.Hits
		total.misses += st.Engine.Misses
	}
	return total, nil
}

// replicaResult is what phase D measures; all zero on a single server.
type replicaResult struct {
	routerHop, lagP50, lagP99, resyncs float64
}

// replicaProbes measures the router hop (the same warm query through the
// router and straight to the follower, in turn), the apply lag (patch
// acknowledged → follower reports it applied) and the follower's re-syncs.
func (e *env) replicaProbes(ctx context.Context, ck *checker, c *conn, n tracedCounts) (replicaResult, error) {
	var res replicaResult
	top := ck.top
	if top.follower == nil {
		return res, nil
	}
	body := ck.in.bodies[numProbePlans]
	var direct, routed []time.Duration
	for i := 0; i < n.pairs; i++ {
		for _, base := range []string{top.follower.url, top.router.url} {
			t0 := time.Now()
			status, _, resp, err := c.do(http.MethodPost, base+"/v1/query", body, 0)
			d := time.Since(t0)
			if err != nil {
				return res, err
			}
			if status != http.StatusOK {
				return res, httpError("router-hop query", status, resp)
			}
			if base == top.router.url {
				routed = append(routed, d)
			} else {
				direct = append(direct, d)
			}
		}
	}
	res.routerHop = us(percentile(sortedDurs(routed), 0.5) - percentile(sortedDurs(direct), 0.5))

	var lags []time.Duration
	var rs replicationStatus
	for i := 0; i < n.pairs; i++ {
		if err := ck.patchOp(c, 0); err != nil {
			return res, err
		}
		acked := time.Now()
		want := top.baseVersion + uint64(ck.acked.Load())
		err := poll(ctx, func() (bool, error) {
			if err := fetchJSON(c, top.follower.url+"/v1/replication", &rs); err != nil {
				return false, err
			}
			return rs.AppliedVersion >= want, nil
		})
		if err != nil {
			return res, err
		}
		lags = append(lags, time.Since(acked))
	}
	sorted := sortedDurs(lags)
	res.lagP50, res.lagP99 = us(percentile(sorted, 0.5)), us(percentile(sorted, 0.99))
	res.resyncs = float64(rs.Resyncs) - 1 // the initial bootstrap counts as one
	return res, nil
}

// standaloneResult is what phase E measures.
type standaloneResult struct {
	warmExecute, warmAllocs, warmBytes, parallelScaling float64
	coldSelf, workerScaling, obsOverhead                float64
	compact, walAmplification, walRecover               float64
	maintainedRatio, marginalsReusedRatio               float64
}

// standalone runs the probes that characterise one layer on this run's
// inputs whatever the workload's timed op is.
func (l *lab) standalone(in *input, warmPlans []string, n tracedCounts, scratch string) (standaloneResult, error) {
	var res standaloneResult
	reqs := make([]queryReq, 0, 16)
	for _, b := range in.bodies[:min(len(in.bodies), 16)] {
		var q queryReq
		if err := json.Unmarshal(b, &q); err != nil {
			return res, err
		}
		reqs = append(reqs, q)
	}
	// Warm execute: every request once to fill the cache, then timed.
	var warm []time.Duration
	for round := 0; round < 1+n.pairs/4; round++ {
		for _, q := range reqs {
			d, _, err := l.execute(q)
			if err != nil {
				return res, err
			}
			if round > 0 {
				warm = append(warm, d)
			}
		}
	}
	res.warmExecute = us(percentile(sortedDurs(warm), 0.5))
	var err error
	if res.warmAllocs, res.warmBytes, err = l.warmAllocs(reqs, 1+n.pairs/4); err != nil {
		return res, err
	}
	one := l.warmThroughput(reqs, 1, n.loaded/8)
	many := l.warmThroughput(reqs, runtime.GOMAXPROCS(0), n.loaded/8)
	res.parallelScaling = many / one

	// Observability overhead, ABBA-paired so drift cancels; each leg runs
	// long enough (about 20 ms) for the clock not to matter.
	legOps := min(max(int(20_000/max(res.warmExecute, 1)), 4*len(reqs)), 4096)
	var ratios []float64
	for i := 0; i < max(n.pairs/4, 2); i++ {
		var on, off time.Duration
		for _, withObs := range []bool{true, false, false, true} {
			d, err := l.obsPair(reqs, legOps, withObs)
			if err != nil {
				return res, err
			}
			if withObs {
				on += d
			} else {
				off += d
			}
		}
		ratios = append(ratios, float64(on)/float64(off))
	}
	res.obsOverhead = medianFloat(ratios)

	// Cold self time and worker scaling over the first plans of the stream.
	// Each side of a difference is the faster of two rounds, so that whoever
	// runs first on cold processor caches does not decide its sign.
	var coldSelf, scaling []float64
	for _, text := range in.plans[:min(len(in.plans), coldPlans)] {
		var total, parts, w1, wn time.Duration
		for round := 0; round < 2; round++ {
			t, err := l.coldExecute(queryReq{Query: text, Engine: "auto"})
			if err != nil {
				return res, err
			}
			qp, _, err := l.components(text)
			if err != nil {
				return res, err
			}
			p := qp.parse + qp.snapshot + qp.run + qp.candidates + min(qp.dtree, qp.circuitCompile+qp.circuitEval)
			a, err := l.runOnly(text, 1)
			if err != nil {
				return res, err
			}
			b, err := l.runOnly(text, runtime.GOMAXPROCS(0))
			if err != nil {
				return res, err
			}
			if round == 0 {
				total, parts, w1, wn = t, p, a, b
			}
			total, parts, w1, wn = min(total, t), min(parts, p), min(w1, a), min(wn, b)
		}
		coldSelf = append(coldSelf, us(total-parts))
		scaling = append(scaling, float64(w1)/float64(wn))
	}
	res.coldSelf, res.workerScaling = medianFloat(coldSelf), medianFloat(scaling)

	// Write path: compaction, amplification and recovery under the servers'
	// flush policy, over the patches the replay did not use.
	var compacts []time.Duration
	for i := 0; i < max(n.pairs/8, 2); i++ {
		if _, err := l.patch(in.patchTable(), in.patches[2*n.patches+i].body); err != nil {
			return res, err
		}
		d, err := l.compact()
		if err != nil {
			return res, err
		}
		compacts = append(compacts, d)
	}
	res.compact = us(percentile(sortedDurs(compacts), 0.5))
	scripts := make([]string, 4*n.patches)
	for i := range scripts {
		scripts[i] = in.patches[i].body
	}
	amp, rec, err := walAmplification(in.tables, in.patchTable(), scripts, filepath.Join(scratch, "wal-policy"))
	if err != nil {
		return res, err
	}
	res.walAmplification, res.walRecover = amp, us(rec)
	maintained, forced, reused, refreshed := l.maintenance()
	res.maintainedRatio, res.marginalsReusedRatio = ratio(maintained, forced), ratio(reused, refreshed)
	return res, nil
}
