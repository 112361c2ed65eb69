package main

// layers.go is the only file of the benchmark that imports uncertaindb's
// internal packages. Everything else drives the servers over HTTP. The
// functions here are the per-layer probes of the traced run (each a timed
// call into one layer's public function on the run's own inputs) and the
// in-process reference the measured run checks responses against.
//
// The API the benchmark pins — a refactor must keep these compiling:
//
//	parser.ParseQuery, parser.ParseCatalogString, parser.ParsePatchString
//	catalog.New, (*Catalog).Put / ApplyPatch / Snapshot / State, (*Snapshot).Env
//	exec.Rewrite, exec.OpStats, ra.InputNames, ra.ArityEnv
//	ctable.DefaultOptions, pctable.EvalQueryEnvWithOptions,
//	(*PCTable).PossibleTuples / Lineage, condition.Vars
//	probcalc.New, (*Evaluator).Probability / Stats, probcalc.CompileAnswer,
//	(*Circuit).EvalFloat / NumNodes, probcalc.EnumProbabilityRat
//	wal.Open, (*Store).Append / Compact / Close, wal.Record, wal.KindPatch
//	engine.New, (*Engine).Execute / PatchTable / Stats, engine.Request
//	httpapi.New, uncertain.Open, (*DB).PutTableScript / Query

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"uncertaindb/internal/catalog"
	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/engine"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/httpapi"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/wal"
	"uncertaindb/pkg/uncertain"
)

// queryReq is a POST /v1/query body as the probes need it.
type queryReq struct {
	Query         string                        `json:"query"`
	Engine        string                        `json:"engine"`
	Distributions map[string]map[string]float64 `json:"distributions,omitempty"`
}

func (q queryReq) engineRequest() engine.Request {
	return engine.Request{Query: q.Query, Engine: q.Engine, Distributions: q.Distributions}
}

// reference is an in-process server over the same generated tables: the
// production handler on a recorder, no socket. The measured run compares the
// children's responses to its bodies; the traced run times it.
type reference struct {
	db      *uncertain.DB
	handler http.Handler
}

func newReference(tables []table) (*reference, error) {
	db, err := uncertain.Open(uncertain.Config{})
	if err != nil {
		return nil, err
	}
	for _, t := range tables {
		if _, _, err := db.PutTableScript(t.script); err != nil {
			return nil, fmt.Errorf("reference: loading %s: %w", t.name, err)
		}
	}
	return &reference{db: db, handler: httpapi.New(db)}, nil
}

// serve runs one request through the handler and returns status and body.
func (r *reference) serve(method, path string, body []byte) (int, []byte) {
	_, status, resp := r.timed(method, path, body)
	return status, resp
}

// timed is serve with the handler's time on the recorder: decode, engine,
// encode, no socket.
func (r *reference) timed(method, path string, body []byte) (time.Duration, int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	r.handler.ServeHTTP(rec, req)
	return time.Since(t0), rec.Code, rec.Body.Bytes()
}

// oracleCheck compares the reference engine's marginals with brute-force
// world enumeration (probcalc.EnumProbabilityRat) on a seeded sample of the
// answer tuples of the given plans whose lineage is small enough to
// enumerate, and reports how many tuples it checked. A marginal off by more
// than 1e-9 is an error.
func oracleCheck(tables []table, plans []string, seed int64, samplePercent int) (int, error) {
	const maxOracleVars = 14
	parsed, err := parseTables(tables)
	if err != nil {
		return 0, err
	}
	env := make(pctable.Env, len(parsed))
	for _, pt := range parsed {
		env[pt.Name] = pt.PCTable
	}
	ref, err := newReference(tables)
	if err != nil {
		return 0, err
	}
	r := newRNG(seed, "oracle")
	checked := 0
	for _, text := range plans {
		res, err := ref.db.Query(uncertain.Request{Query: text, Engine: "auto"})
		if err != nil {
			return checked, fmt.Errorf("oracle: %s: %w", text, err)
		}
		got := make(map[string]float64, len(res.Tuples))
		for _, ta := range res.Tuples {
			got[ta.Tuple.String()] = ta.P
		}
		q, err := parser.ParseQuery(text)
		if err != nil {
			return checked, err
		}
		answer, err := pctable.EvalQueryEnvWithOptions(q, env, ctable.DefaultOptions)
		if err != nil {
			return checked, err
		}
		possible, err := answer.PossibleTuples()
		if err != nil {
			return checked, err
		}
		first := true
		for _, tp := range possible {
			// The first enumerable tuple of every plan is always checked, so
			// a small answer cannot slip through the 1 % draw unchecked.
			if r.intn(100) >= samplePercent && !first {
				continue
			}
			lineage := answer.Lineage(tp)
			if len(condition.Vars(lineage)) > maxOracleVars {
				continue
			}
			first = false
			want, err := probcalc.EnumProbabilityRat(lineage, answer)
			if err != nil {
				return checked, err
			}
			w, _ := want.Float64()
			if math.Abs(got[tp.String()]-w) > 1e-9 {
				return checked, fmt.Errorf("oracle: %s: tuple %s: engine says %.12f, world enumeration %.12f", text, tp, got[tp.String()], w)
			}
			checked++
		}
	}
	return checked, nil
}

func parseTables(tables []table) ([]*parser.ParsedTable, error) {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.script)
	}
	return parser.ParseCatalogString(b.String())
}

// lab holds the in-process instances the traced run probes. The query path
// and the write path have their own, so patches never disturb what the query
// probes find cached, and one probe's work never helps another.
type lab struct {
	ref *reference       // query handler probe (observability on, as in the server)
	cat *catalog.Catalog // under eng; never patched
	eng *engine.Engine   // Execute probes, zero options

	wref *reference       // PATCH handler probe
	weng *engine.Engine   // PatchTable probe: its own catalog, the warm plans cached
	bare *catalog.Catalog // catalog.patch_apply probe: no engine, no sink

	store *wal.Store // wal.append probe: compaction off
	fsync *wal.Store // wal.append_fsync probe
}

func newLab(tables []table, scratch string) (*lab, error) {
	parsed, err := parseTables(tables)
	if err != nil {
		return nil, err
	}
	wcat := catalog.New()
	l := &lab{cat: catalog.New(), bare: catalog.New()}
	for _, pt := range parsed {
		for _, cat := range []*catalog.Catalog{l.cat, wcat, l.bare} {
			if _, err := cat.Put(pt.Name, pt.PCTable); err != nil {
				return nil, err
			}
		}
	}
	l.eng, l.weng = engine.New(l.cat, engine.Options{}), engine.New(wcat, engine.Options{})
	if l.ref, err = newReference(tables); err != nil {
		return nil, err
	}
	if l.wref, err = newReference(tables); err != nil {
		return nil, err
	}
	if l.store, _, _, err = wal.Open(filepath.Join(scratch, "wal"), wal.Options{SnapshotEvery: -1}); err != nil {
		return nil, err
	}
	if l.fsync, _, _, err = wal.Open(filepath.Join(scratch, "wal-fsync"), wal.Options{SnapshotEvery: -1, Fsync: true}); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *lab) close() {
	l.store.Close()
	l.fsync.Close()
}

// handle times the production handler on one query body.
func (l *lab) handle(body []byte) (time.Duration, int, []byte) {
	return l.ref.timed(http.MethodPost, "/v1/query", body)
}

// warmWritePath caches the given plans where the write-path probes will
// maintain them.
func (l *lab) warmWritePath(plans []string) error {
	for _, q := range plans {
		for rep := 0; rep < 2; rep++ {
			if _, err := l.weng.Execute(engine.Request{Query: q, Engine: "auto"}); err != nil {
				return err
			}
			if status, body := l.wref.serve(http.MethodPost, "/v1/query", queryBody(q)); status != http.StatusOK {
				return httpError("warming the patch handler", status, body)
			}
		}
	}
	return nil
}

// handlePatch times the production handler on one PATCH body.
func (l *lab) handlePatch(tableName, script string) (time.Duration, int, []byte) {
	return l.wref.timed(http.MethodPatch, "/v1/tables/"+tableName, []byte(script))
}

// execute times Engine.Execute on the lab engine and reports the cache
// outcome.
func (l *lab) execute(q queryReq) (time.Duration, bool, error) {
	req := q.engineRequest()
	t0 := time.Now()
	res, err := l.eng.Execute(req)
	d := time.Since(t0)
	if err != nil {
		return d, false, err
	}
	return d, res.CacheHit, nil
}

// coldExecute times Execute on a fresh engine over the lab catalog, so the
// plan cache is empty whatever ran before.
func (l *lab) coldExecute(q queryReq) (time.Duration, error) {
	eng := engine.New(l.cat, engine.Options{})
	req := q.engineRequest()
	t0 := time.Now()
	_, err := eng.Execute(req)
	return time.Since(t0), err
}

// queryProbe is one query decomposed into separately timed calls of the
// layers a cold execution passes through, plus the counts made on the way.
type queryProbe struct {
	parse, snapshot, rewrite, run, candidates time.Duration
	dtree, circuitCompile, circuitEval        time.Duration
	rowsIn, hashProbes, morsels               uint64
	circuitNodes                              int
	memoHits, memoMisses                      int
}

// planState is what a compiled plan keeps between executions, as far as the
// probes need it: the answer table, its candidates' lineage, the circuit.
type planState struct {
	answer *pctable.PCTable
	conds  []condition.Condition
	circ   *probcalc.Circuit
}

// parseSnapshot times the two steps even a warm execution takes: parsing the
// query text (the plan-cache key needs the table names) and snapshotting the
// catalog.
func (l *lab) parseSnapshot(text string) (parse, snapshot time.Duration, q ra.Query, env pctable.Env, err error) {
	t0 := time.Now()
	q, err = parser.ParseQuery(text)
	parse = time.Since(t0)
	if err != nil {
		return
	}
	names := make([]string, 0, 2)
	for name := range ra.InputNames(q) {
		names = append(names, name)
	}
	sort.Strings(names)
	t0 = time.Now()
	env, err = l.cat.Snapshot().Env(names)
	snapshot = time.Since(t0)
	return
}

// components runs the cold path of one query layer by layer.
func (l *lab) components(text string) (queryProbe, *planState, error) {
	var p queryProbe
	var err error
	var q ra.Query
	var env pctable.Env
	if p.parse, p.snapshot, q, env, err = l.parseSnapshot(text); err != nil {
		return p, nil, err
	}
	arities := make(ra.ArityEnv, len(env))
	for name, t := range env {
		arities[name] = t.Arity()
	}
	t0 := time.Now()
	exec.Rewrite(q, arities)
	p.rewrite = time.Since(t0)

	var ops exec.OpStats
	opts := ctable.DefaultOptions
	opts.Stats = &ops
	t0 = time.Now()
	answer, err := pctable.EvalQueryEnvWithOptions(q, env, opts)
	p.run = time.Since(t0)
	if err != nil {
		return p, nil, err
	}
	p.rowsIn, p.hashProbes, p.morsels = ops.RowsIn, ops.HashProbes, ops.Morsels

	t0 = time.Now()
	possible, err := answer.PossibleTuples()
	if err != nil {
		return p, nil, err
	}
	ps := &planState{answer: answer, conds: make([]condition.Condition, 0, len(possible))}
	for _, tp := range possible {
		ps.conds = append(ps.conds, answer.Lineage(tp))
	}
	p.candidates = time.Since(t0)

	t0 = time.Now()
	ps.circ, err = probcalc.CompileAnswer(ps.conds, answer)
	p.circuitCompile = time.Since(t0)
	if err != nil {
		return p, nil, err
	}
	p.circuitNodes = ps.circ.NumNodes()
	err = l.reweigh(ps, &p)
	return p, ps, err
}

// reweigh times what a what-if execution recomputes on a cached plan: a
// fresh d-tree evaluation of every candidate, and one pass over the circuit.
func (l *lab) reweigh(ps *planState, p *queryProbe) error {
	t0 := time.Now()
	ev := probcalc.New(ps.answer)
	for _, c := range ps.conds {
		if _, err := ev.Probability(c); err != nil {
			return err
		}
	}
	p.dtree = time.Since(t0)
	st := ev.Stats()
	p.memoHits, p.memoMisses = st.MemoHits, st.MemoMisses
	t0 = time.Now()
	_, err := ps.circ.EvalFloat(ps.answer)
	p.circuitEval = time.Since(t0)
	return err
}

// runOnly times the operator core alone at a given worker count.
func (l *lab) runOnly(text string, workers int) (time.Duration, error) {
	_, _, q, env, err := l.parseSnapshot(text)
	if err != nil {
		return 0, err
	}
	opts := ctable.DefaultOptions
	opts.Workers = workers
	t0 := time.Now()
	_, err = pctable.EvalQueryEnvWithOptions(q, env, opts)
	return time.Since(t0), err
}

// patchProbe is one patch timed through the write-path layers.
type patchProbe struct {
	maintain, apply, walAppend, walFsync time.Duration
}

// patch applies one patch script to the write-path engine (maintaining its
// warm plans), to the bare catalog, and appends its record to both logs.
func (l *lab) patch(tableName, script string) (patchProbe, error) {
	var p patchProbe
	mk := func() (*wal.Patch, error) { return parser.ParsePatchString(script) }

	pt, err := mk()
	if err != nil {
		return p, err
	}
	t0 := time.Now()
	if _, err := l.weng.PatchTable(tableName, pt); err != nil {
		return p, err
	}
	p.maintain = time.Since(t0)

	if pt, err = mk(); err != nil {
		return p, err
	}
	t0 = time.Now()
	v, _, err := l.bare.ApplyPatch(tableName, pt)
	if err != nil {
		return p, err
	}
	p.apply = time.Since(t0)

	rec := &wal.Record{Kind: wal.KindPatch, Version: v, Name: tableName, Probabilistic: true, Patch: pt}
	t0 = time.Now()
	if err := l.store.Append(rec, l.bare.State); err != nil {
		return p, err
	}
	p.walAppend = time.Since(t0)
	t0 = time.Now()
	if err := l.fsync.Append(rec, l.bare.State); err != nil {
		return p, err
	}
	p.walFsync = time.Since(t0)
	return p, nil
}

// compact times one snapshot compaction of the bare catalog's state into
// the append probe's directory.
func (l *lab) compact() (time.Duration, error) {
	st := l.bare.State()
	t0 := time.Now()
	err := l.store.Compact(st)
	return time.Since(t0), err
}

// maintenance reports the write-path engine's maintenance counters: plans
// maintained, recompiles forced, marginals reused and refreshed.
func (l *lab) maintenance() (maintained, forced, reused, refreshed uint64) {
	m := l.weng.Stats().Maintenance
	forced = m.ForcedNonMonotone + m.ForcedTableReplaced + m.ForcedSelectionChanged + m.ForcedDistsChanged + m.ForcedError
	return m.PlansMaintained, forced, m.MarginalsReused, m.MarginalsRefreshed
}

// walAmplification replays the patch scripts through a store with the
// servers' flush policy (compaction every 64 records, fsync off) and returns
// the bytes this process wrote to storage per byte of patch script, then the
// time wal.Open needs to recover the directory it left.
func walAmplification(tables []table, tableName string, scripts []string, dir string) (perUserByte float64, recoverTime time.Duration, err error) {
	parsed, err := parseTables(tables)
	if err != nil {
		return 0, 0, err
	}
	cat := catalog.New()
	for _, pt := range parsed {
		if _, err := cat.Put(pt.Name, pt.PCTable); err != nil {
			return 0, 0, err
		}
	}
	store, _, _, err := wal.Open(dir, wal.Options{SnapshotEvery: 64})
	if err != nil {
		return 0, 0, err
	}
	if err := store.Compact(cat.State()); err != nil {
		return 0, 0, err
	}
	before, okBefore := storageBytesWritten(os.Getpid())
	dirBefore := dirSize(dir)
	userBytes := 0
	for _, s := range scripts {
		pt, err := parser.ParsePatchString(s)
		if err != nil {
			return 0, 0, err
		}
		v, _, err := cat.ApplyPatch(tableName, pt)
		if err != nil {
			return 0, 0, err
		}
		rec := &wal.Record{Kind: wal.KindPatch, Version: v, Name: tableName, Probabilistic: true, Patch: pt}
		if err := store.Append(rec, cat.State); err != nil {
			return 0, 0, err
		}
		userBytes += len(s)
	}
	if err := store.Close(); err != nil {
		return 0, 0, err
	}
	after, okAfter := storageBytesWritten(os.Getpid())
	written := float64(after - before)
	if !okBefore || !okAfter || written == 0 {
		// No /proc/<pid>/io here: fall back to what the directory grew by.
		written = float64(dirSize(dir) - dirBefore)
	}
	t0 := time.Now()
	reopened, _, _, err := wal.Open(dir, wal.Options{SnapshotEvery: 64})
	recoverTime = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	reopened.Close()
	return written / float64(userBytes), recoverTime, nil
}

// warmAllocs reports exact heap allocations and bytes per warm Execute.
func (l *lab) warmAllocs(reqs []queryReq, rounds int) (allocs, bytes float64, err error) {
	ereqs := make([]engine.Request, len(reqs))
	for i, q := range reqs {
		ereqs[i] = q.engineRequest()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		for _, req := range ereqs {
			if _, err := l.eng.Execute(req); err != nil {
				return 0, 0, err
			}
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(rounds * len(ereqs))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, nil
}

// warmThroughput runs warm Executes on the given number of goroutines for d
// and returns operations per second.
func (l *lab) warmThroughput(reqs []queryReq, goroutines int, d time.Duration) float64 {
	ereqs := make([]engine.Request, len(reqs))
	for i, q := range reqs {
		ereqs[i] = q.engineRequest()
	}
	var wg sync.WaitGroup
	counts := make([]int, goroutines)
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; time.Since(start) < d; i++ {
				l.eng.Execute(ereqs[i%len(ereqs)])
				counts[g]++
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	return float64(total) / time.Since(start).Seconds()
}

// obsPair times n warm executions with the observability core on (the
// facade, as the server runs it) and off (the bare engine).
func (l *lab) obsPair(reqs []queryReq, n int, on bool) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		q := reqs[i%len(reqs)]
		var err error
		if on {
			_, err = l.ref.db.Query(uncertain.Request{Query: q.Query, Engine: q.Engine, Distributions: q.Distributions})
		} else {
			_, err = l.eng.Execute(q.engineRequest())
		}
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}
