// Command benchreport regenerates the measured tables that EXPERIMENTS.md
// records: the Example 5 succinctness table (E6), the probabilistic
// query-answering comparison (E12), and size statistics for the
// completeness/completion constructions (E4, E5, E9, E11). Output is
// GitHub-flavoured markdown so it can be pasted into EXPERIMENTS.md.
//
// By default every section is printed; -only=e6,e12 selects a subset, which
// lets CI smoke-run one cheap section instead of the full suite.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"uncertaindb/internal/catalog"
	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/engine"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/httpapi"
	"uncertaindb/internal/models"
	"uncertaindb/internal/obs"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/replica"
	"uncertaindb/internal/value"
	"uncertaindb/internal/wal"
	"uncertaindb/internal/workload"
	"uncertaindb/pkg/uncertain"
)

// sections maps a section selector to the function that prints it. The
// constructions section covers E4, E5, E9 and E11 and answers to any of
// those names.
var sections = []struct {
	key     string
	aliases []string
	print   func(io.Writer)
}{
	{key: "e6", print: succinctness},
	{key: "e12", print: queryAnswering},
	{key: "e14", print: operatorCore},
	{key: "e15", print: hashJoin},
	{key: "e17", print: walOverhead},
	{key: "e18", print: obsOverhead},
	{key: "e19", print: replication},
	{key: "e20", print: circuitCompilation},
	{key: "e21", print: incrementalMaintenance},
	{key: "constructions", aliases: []string{"e4", "e5", "e9", "e11"}, print: constructions},
}

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable body of the command.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	only := fs.String("only", "", "comma-separated sections to print (e6, e12, e14, e15, e17, e18, e19, e20, e21, constructions/e4/e5/e9/e11); empty means all")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return fmt.Errorf("%w (run with -h for usage)", err)
	}
	selected, err := selectSections(*only)
	if err != nil {
		return err
	}
	for _, s := range sections {
		if selected[s.key] {
			s.print(out)
		}
	}
	return nil
}

// selectSections resolves the -only value to the set of section keys.
func selectSections(only string) (map[string]bool, error) {
	selected := make(map[string]bool, len(sections))
	if strings.TrimSpace(only) == "" {
		for _, s := range sections {
			selected[s.key] = true
		}
		return selected, nil
	}
	byName := make(map[string]string)
	for _, s := range sections {
		byName[s.key] = s.key
		for _, a := range s.aliases {
			byName[a] = s.key
		}
	}
	for _, name := range strings.Split(only, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		if name == "" {
			continue
		}
		key, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("benchreport: unknown section %q (known: %s)", name, strings.Join(knownSections(byName), ", "))
		}
		selected[key] = true
	}
	if len(selected) == 0 {
		// A non-empty -only whose entries are all blank (e.g. -only=",")
		// used to run nothing and exit 0 — in CI that reads as a silently
		// passing smoke. Refuse it instead.
		return nil, fmt.Errorf("benchreport: -only=%q selects no sections (known: %s)", only, strings.Join(knownSections(byName), ", "))
	}
	return selected, nil
}

// knownSections lists every accepted section name, sorted.
func knownSections(byName map[string]string) []string {
	known := make([]string, 0, len(byName))
	for n := range byName {
		known = append(known, n)
	}
	sort.Strings(known)
	return known
}

// succinctness prints the E6 table: 1-row finite c-table vs equivalent
// boolean c-table (n^m rows).
func succinctness(out io.Writer) {
	fmt.Fprintln(out, "## E6 — Example 5 succinctness (c-table vs boolean c-table)")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| m (columns) | n (domain) | c-table rows | boolean c-table rows | worlds |")
	fmt.Fprintln(out, "|---|---|---|---|---|")
	for _, cfg := range []struct{ m, n int }{{2, 2}, {2, 4}, {3, 3}, {4, 2}, {3, 4}} {
		tab := ctable.New(cfg.m)
		terms := make([]condition.Term, cfg.m)
		for i := 0; i < cfg.m; i++ {
			name := fmt.Sprintf("x%d", i+1)
			terms[i] = condition.Var(name)
			tab.SetDomain(name, value.IntRange(1, int64(cfg.n)))
		}
		tab.AddRow(terms, nil)
		expanded, err := ctable.ExpandToBooleanCTable(tab)
		if err != nil {
			panic(err)
		}
		worlds := tab.MustMod().Size()
		fmt.Fprintf(out, "| %d | %d | %d | %d | %d |\n", cfg.m, cfg.n, tab.NumRows(), expanded.NumRows(), worlds)
	}
	fmt.Fprintln(out)
}

// queryAnswering prints the E12 comparison: lineage-based exact marginals
// (d-tree decomposed and brute-force enumerated) vs naïve world enumeration
// vs Monte-Carlo, on the scaled courses workload.
func queryAnswering(out io.Writer) {
	fmt.Fprintln(out, "## E12 — probabilistic query answering (marginal of one answer tuple)")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| students | variables | worlds | lineage d-tree | lineage enum | world enumeration | Monte-Carlo (n=1000) |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|")
	query := workload.ProjectionQuery(0)
	target := value.NewTuple(value.Str("student0"))
	for _, students := range []int{6, 9, 12} {
		tab := workload.Courses(students, 3, 17)
		answer, err := tab.EvalQuery(query)
		if err != nil {
			panic(err)
		}

		start := time.Now()
		if _, err := answer.TupleProbability(target); err != nil {
			panic(err)
		}
		dtreeTime := time.Since(start)

		start = time.Now()
		if _, err := answer.TupleProbabilityEnum(target); err != nil {
			panic(err)
		}
		lineageTime := time.Since(start)

		start = time.Now()
		dist, err := tab.Mod()
		if err != nil {
			panic(err)
		}
		img, err := dist.Map(query)
		if err != nil {
			panic(err)
		}
		img.TupleProbability(target)
		worldTime := time.Since(start)

		sampler, err := pctable.NewSampler(answer, 1)
		if err != nil {
			panic(err)
		}
		start = time.Now()
		if _, _, err := sampler.EstimateTupleProbability(target, 1000); err != nil {
			panic(err)
		}
		mcTime := time.Since(start)

		fmt.Fprintf(out, "| %d | %d | %d | %s | %s | %s | %s |\n",
			students, len(tab.Vars()), dist.NumWorlds(), dtreeTime, lineageTime, worldTime, mcTime)
	}
	fmt.Fprintln(out)
}

// operatorCore prints the E14 comparison: the frozen eager evaluator vs the
// unified operator core, without and with plan rewriting, on a selective
// self-join over the courses workload (the bench_test.go E14 query).
func operatorCore(out io.Writer) {
	fmt.Fprintln(out, "## E14 — eager evaluation vs unified operator core (selective self-join)")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| students | eager | operator core | core + rewrites | rewrite speedup |")
	fmt.Fprintln(out, "|---|---|---|---|---|")
	course := func(c int) value.Value { return value.Str(fmt.Sprintf("course%d", c)) }
	query := ra.Project([]int{0, 3},
		ra.Select(ra.AndOf(
			ra.Eq(ra.Col(1), ra.Const(course(0))),
			ra.Eq(ra.Col(3), ra.Const(course(1)))),
			ra.Cross(ra.Rel("V"), ra.Rel("V"))))
	for _, students := range []int{10, 20, 40} {
		tab := workload.Courses(students, 3, 17).Table()
		env := ctable.Env{"V": tab}
		measure := func(run func() (*ctable.CTable, error)) time.Duration {
			start := time.Now()
			if _, err := run(); err != nil {
				panic(err)
			}
			return time.Since(start)
		}
		eager := measure(func() (*ctable.CTable, error) {
			return ctable.EvalQueryEnvEager(query, env, ctable.Options{Simplify: true})
		})
		core := measure(func() (*ctable.CTable, error) {
			return ctable.EvalQueryEnvWithOptions(query, env, ctable.Options{Simplify: true, Rewrite: false})
		})
		rewritten := measure(func() (*ctable.CTable, error) {
			return ctable.EvalQueryEnvWithOptions(query, env, ctable.Options{Simplify: true, Rewrite: true})
		})
		fmt.Fprintf(out, "| %d | %s | %s | %s | %.1f× |\n",
			students, eager, core, rewritten, float64(eager)/float64(rewritten))
	}
	fmt.Fprintln(out)
}

// hashJoin prints the E15 comparison: a maximally selective equi-join
// (every key matches one row per side, plus a band of variable-keyed rows)
// through the frozen eager evaluator, the operator core with the hash path
// off (nested-loop), and the symbolic hash join, with the hash run's
// probe/residual counters.
func hashJoin(out io.Writer) {
	fmt.Fprintln(out, "## E15 — symbolic hash join vs nested loop vs eager (selective equi-join)")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| rows/side | eager | nested loop | hash join | hash vs nested loop | probes | residual pairs |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|")
	for _, rows := range []int{256, 1024} {
		env, query := workload.EquiJoin(rows, 8)
		measure := func(run func() (*ctable.CTable, error)) time.Duration {
			start := time.Now()
			if _, err := run(); err != nil {
				panic(err)
			}
			return time.Since(start)
		}
		eager := measure(func() (*ctable.CTable, error) {
			return ctable.EvalQueryEnvEager(query, env, ctable.Options{Simplify: true})
		})
		loop := measure(func() (*ctable.CTable, error) {
			return ctable.EvalQueryEnvWithOptions(query, env, ctable.Options{Simplify: true, Rewrite: true, NoHash: true})
		})
		var stats exec.OpStats
		hash := measure(func() (*ctable.CTable, error) {
			return ctable.EvalQueryEnvWithOptions(query, env, ctable.Options{Simplify: true, Rewrite: true, Stats: &stats})
		})
		fmt.Fprintf(out, "| %d | %s | %s | %s | %.1f× | %d | %d |\n",
			rows, eager, loop, hash, float64(loop)/float64(hash), stats.HashProbes, stats.ResidualHits)
	}
	fmt.Fprintln(out)
}

// walOverhead prints the E17 comparison: what the durable catalog adds to
// one acknowledged PutTable — in-memory vs WAL append vs WAL append with
// per-mutation fsync — plus the time to recover the catalog from the
// resulting data directory. Each put registers the same moderately sized
// pc-table script, so the delta between rows is pure durability cost.
func walOverhead(out io.Writer) {
	fmt.Fprintln(out, "## E17 — WAL append overhead on the PutTable path")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| catalog | per put | vs in-memory | recovery (reopen) |")
	fmt.Fprintln(out, "|---|---|---|---|")
	const (
		puts   = 200
		script = "table Takes arity 2\n" +
			"row 'Alice', x\n" +
			"row 'Bob',   x | x = 'phys' || x = 'chem'\n" +
			"row 'Theo',  'math' | t = 1\n" +
			"dist x = {'math':0.3, 'phys':0.3, 'chem':0.4}\n" +
			"dist t = {0:0.15, 1:0.85}\n"
	)
	measure := func(cfg uncertain.Config) (perPut, recovery time.Duration) {
		db, err := uncertain.Open(cfg)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		for i := 0; i < puts; i++ {
			if _, _, err := db.PutTableScript(script); err != nil {
				panic(err)
			}
		}
		perPut = time.Since(start) / puts
		if err := db.Close(); err != nil {
			panic(err)
		}
		if cfg.DataDir != "" {
			start = time.Now()
			db2, err := uncertain.Open(cfg)
			if err != nil {
				panic(err)
			}
			recovery = time.Since(start)
			db2.Close()
		}
		return perPut, recovery
	}
	base, _ := measure(uncertain.Config{})
	fmt.Fprintf(out, "| in-memory | %s | 1.0× | — |\n", base)
	for _, row := range []struct {
		label string
		fsync bool
	}{{"WAL", false}, {"WAL + fsync", true}} {
		dir, err := os.MkdirTemp("", "uncertaindb-e17-")
		if err != nil {
			panic(err)
		}
		per, rec := measure(uncertain.Config{DataDir: dir, Fsync: row.fsync})
		os.RemoveAll(dir)
		fmt.Fprintf(out, "| %s | %s | %.1f× | %s |\n", row.label, per, float64(per)/float64(base), rec)
	}
	fmt.Fprintln(out)
}

// obsOverhead prints the E18 table: the cost of the observability core
// (spans, histograms, slow-query check) on the warm serving path — the
// cache-hit execution E13 measures at a few microseconds. The PR gate is
// <3% overhead with observability on.
func obsOverhead(out io.Writer) {
	fmt.Fprintln(out, "## E18 — observability overhead on the warm query path")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| observability | warm query | overhead |")
	fmt.Fprintln(out, "|---|---|---|")
	const queryText = "project[1](select[$2 != 'course0'](Courses))"
	newEng := func(ob *obs.Observer) *engine.Engine {
		eng := engine.New(catalog.New(), engine.Options{Obs: ob})
		if _, err := eng.PutTable("Courses", workload.Courses(12, 3, 17)); err != nil {
			panic(err)
		}
		return eng
	}
	run := func(eng *engine.Engine, n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := eng.Execute(engine.Request{Query: queryText}); err != nil {
				panic(err)
			}
		}
		return time.Since(start) / time.Duration(n)
	}
	// Pair each off chunk with an adjacent on chunk and take the median of
	// the per-pair deltas: scheduler and frequency noise drifts over
	// seconds, so it hits both halves of a pair equally and cancels in the
	// difference, while the median discards the pairs a descheduling or GC
	// landed in. The baseline is the per-config minimum (the undisturbed
	// warm path).
	engOff, engOn := newEng(nil), newEng(obs.NewObserver(100*time.Millisecond, 128))
	run(engOff, 2000) // warm plan caches, trace pool and branch predictors
	run(engOn, 2000)
	const reps, iters = 150, 500
	deltas := make([]time.Duration, 0, reps)
	base := time.Duration(1<<63 - 1)
	var on time.Duration
	for rep := 0; rep < reps; rep++ {
		// ABBA ordering inside the pair cancels order effects (cache
		// warm-up against the other engine's working set) on top of the
		// drift the pairing already cancels.
		off1 := run(engOff, iters)
		on1 := run(engOn, iters)
		on2 := run(engOn, iters)
		off2 := run(engOff, iters)
		deltas = append(deltas, (on1+on2-off1-off2)/2)
		if off1 < base {
			base = off1
		}
		if off2 < base {
			base = off2
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i] < deltas[j] })
	delta := deltas[len(deltas)/2]
	on = base + delta
	fmt.Fprintf(out, "| off | %s | — |\n", base)
	fmt.Fprintf(out, "| on (spans + histograms + slow-query check) | %s | %+.1f%% |\n",
		on, float64(delta)/float64(base)*100)
	fmt.Fprintln(out)
}

// constructions prints size statistics for the constructive theorems.
func constructions(out io.Writer) {
	fmt.Fprintln(out, "## E4/E5/E9/E11 — construction sizes")
	fmt.Fprintln(out)
	fmt.Fprintln(out, "| construction | input size | output size |")
	fmt.Fprintln(out, "|---|---|---|")

	// E4: Theorem 1 query size (number of operators ~ rows).
	tab := workload.RandomCTable(workload.CTableSpec{Rows: 32, Arity: 3, NumVars: 6, DomainSize: 4, PVarCell: 0.5, PCondAtom: 0.6, Seed: 11})
	q, k, err := ctable.RADefinabilityQuery(tab)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "| Theorem 1: c-table → SPJU query over Z_%d | %d rows | %d chars, ops {%s} |\n",
		k, tab.NumRows(), len(q.String()), ra.DescribeOperators(q))

	// E5: Theorem 3 boolean c-table size.
	db := workload.RandomIDatabase(16, 4, 2, 8, 7)
	bt, err := ctable.BooleanCTableFromIDatabase(db)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "| Theorem 3: finite i-database → boolean c-table | %d worlds | %d rows, %d boolean vars |\n",
		db.Size(), bt.NumRows(), len(bt.Vars()))

	// E9: or-set PJ completion table sizes.
	res, err := models.CompletionOrSetPJ(db)
	if err != nil {
		panic(err)
	}
	sWorlds := res.Tables["S"].Size() * res.Tables["T"].Size()
	fmt.Fprintf(out, "| Theorem 6(1): finite i-database → or-set tables + PJ | %d worlds | %d table-world pairs |\n",
		db.Size(), sWorlds)

	// E11: Theorem 8 boolean pc-table size.
	pq := workload.RandomPQTable(8, 2, 10, 5)
	pdb, err := pq.Mod()
	if err != nil {
		panic(err)
	}
	pct, err := pctable.BooleanPCTableFromPDatabase(pdb)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "| Theorem 8: p-database → boolean pc-table | %d worlds | %d rows, %d boolean vars |\n",
		pdb.NumWorlds(), pct.Table().NumRows(), len(pct.Vars()))
	fmt.Fprintln(out)
}

// replication prints the E19 tables: how far a read replica runs behind the
// leader (acknowledged PutTable until the change is visible on the
// follower), and what the query router adds in front of a replica on the
// warm query path. The wall-clock percentiles are cross-checked against the
// follower's own /metrics lag histogram and the router's routed-query
// counter, so the numbers EXPERIMENTS.md records trace back to the same
// observability surface an operator sees.
func replication(out io.Writer) {
	fmt.Fprintln(out, "## E19 — replication lag and router fan-out overhead")
	fmt.Fprintln(out)
	const script = "table Takes arity 2\n" +
		"row 'Alice', x\n" +
		"row 'Bob',   x | x = 'phys' || x = 'chem'\n" +
		"dist x = {'math':0.3, 'phys':0.3, 'chem':0.4}\n"

	leaderDB, err := uncertain.Open(uncertain.Config{})
	if err != nil {
		panic(err)
	}
	defer leaderDB.Close()
	leaderSrv := httptest.NewServer(httpapi.New(leaderDB))
	defer leaderSrv.Close()
	fDB, err := uncertain.Open(uncertain.Config{Follow: leaderSrv.URL})
	if err != nil {
		panic(err)
	}
	defer fDB.Close()
	fSrv := httptest.NewServer(httpapi.New(fDB))
	defer fSrv.Close()

	// Lag: time each acknowledged put on the leader until the follower's
	// catalog reaches that version.
	const putsE19 = 200
	lags := make([]time.Duration, 0, putsE19)
	for i := 0; i < putsE19; i++ {
		start := time.Now()
		_, v, err := leaderDB.PutTableScript(script)
		if err != nil {
			panic(err)
		}
		for fDB.CatalogVersion() < v {
			time.Sleep(50 * time.Microsecond)
		}
		lags = append(lags, time.Since(start))
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	fMetrics := scrapeMetrics(fSrv.URL + "/metrics")
	applied, _ := metricValue(fMetrics, "uncertaindb_replication_applied_changes_total")
	p99Bound, okBound := histogramQuantileBound(fMetrics, "uncertaindb_replication_lag_seconds", 0.99)
	fmt.Fprintln(out, "| replication | value |")
	fmt.Fprintln(out, "|---|---|")
	fmt.Fprintf(out, "| lag p50 (PutTable → follower-visible) | %s |\n", lags[len(lags)/2])
	fmt.Fprintf(out, "| lag p99 | %s |\n", lags[len(lags)*99/100])
	if okBound {
		fmt.Fprintf(out, "| lag p99 bound (follower /metrics histogram) | ≤ %s |\n", time.Duration(p99Bound*float64(time.Second)))
	}
	fmt.Fprintf(out, "| changes applied (follower /metrics) | %.0f |\n", applied)
	fmt.Fprintln(out)

	// Router overhead: the same warm query served by the replica directly
	// vs through the router (health-checked fan-out, stamping, relaying).
	router, err := replica.NewRouter(replica.RouterOptions{
		Leader:         leaderSrv.URL,
		Replicas:       []string{fSrv.URL},
		HealthInterval: 20 * time.Millisecond,
		Obs:            obs.NewObserver(0, 1),
	})
	if err != nil {
		panic(err)
	}
	router.Start()
	defer router.Close()
	routerSrv := httptest.NewServer(router.Handler())
	defer routerSrv.Close()
	for { // wait for the health loop to admit the replica
		resp, err := http.Post(routerSrv.URL+"/v1/query", "application/json",
			strings.NewReader(`{"query": "project[1](Takes)"}`))
		if err != nil {
			panic(err)
		}
		served := resp.Header.Get("X-Served-By")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if served == fSrv.URL {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	queryVia := func(base string, n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			resp, err := http.Post(base+"/v1/query", "application/json",
				strings.NewReader(`{"query": "project[1](Takes)"}`))
			if err != nil {
				panic(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				panic(fmt.Sprintf("E19 query via %s: HTTP %d", base, resp.StatusCode))
			}
		}
		return time.Since(start) / time.Duration(n)
	}
	queryVia(fSrv.URL, 200) // warm both paths: plan caches, connections
	queryVia(routerSrv.URL, 200)
	const itersE19 = 500
	direct := queryVia(fSrv.URL, itersE19)
	routed := queryVia(routerSrv.URL, itersE19)
	rMetrics := scrapeMetrics(routerSrv.URL + "/metrics")
	routedCount, _ := metricValue(rMetrics, "uncertaindb_router_route_duration_seconds_count")
	fmt.Fprintln(out, "| query path | warm query | QPS | overhead |")
	fmt.Fprintln(out, "|---|---|---|---|")
	fmt.Fprintf(out, "| direct to replica | %s | %.0f | — |\n", direct, float64(time.Second)/float64(direct))
	fmt.Fprintf(out, "| through router | %s | %.0f | %+.1f%% |\n",
		routed, float64(time.Second)/float64(routed), float64(routed-direct)/float64(direct)*100)
	fmt.Fprintf(out, "\n(router /metrics: %.0f routed queries)\n", routedCount)
	fmt.Fprintln(out)
}

// circuitCompilation prints the E20 tables: shared-circuit marginal
// throughput vs the per-tuple d-tree path on a high-sharing answer, what-if
// re-evaluation vs recomputing from scratch, bit-identity of the exact twin,
// and the auto-selector against the best fixed engine on a mixed workload.
func circuitCompilation(out io.Writer) {
	fmt.Fprintln(out, "## E20 — shared lineage compilation (circuit) vs per-tuple decomposition")
	fmt.Fprintln(out)

	mustBern := func(p float64) *prob.Space {
		s, err := prob.Bernoulli(p)
		if err != nil {
			panic(err)
		}
		return s
	}
	// buildAnswer models a high-sharing answer: groups×perGroup tuples whose
	// lineages conjoin a private guard with a per-group block of `pairs`
	// (aᵢ ∧ bᵢ) disjuncts — every tuple in a group shares the same block
	// subcircuit, which is where cross-tuple compilation wins.
	buildAnswer := func(groups, perGroup, pairs int) ([]condition.Condition, probcalc.MapDists) {
		dists := make(probcalc.MapDists)
		conds := make([]condition.Condition, 0, groups*perGroup)
		for g := 0; g < groups; g++ {
			disj := make([]condition.Condition, pairs)
			for i := 0; i < pairs; i++ {
				a, b := fmt.Sprintf("a%d_%d", g, i), fmt.Sprintf("b%d_%d", g, i)
				dists[condition.Variable(a)] = mustBern(0.5)
				dists[condition.Variable(b)] = mustBern(0.4)
				disj[i] = condition.And(condition.IsTrueVar(a), condition.IsTrueVar(b))
			}
			block := condition.Or(disj...)
			for t := 0; t < perGroup; t++ {
				u := fmt.Sprintf("u%d_%d", g, t)
				dists[condition.Variable(u)] = mustBern(0.9)
				conds = append(conds, condition.And(condition.IsTrueVar(u), block))
			}
		}
		return conds, dists
	}

	// Throughput: 10k-tuple answer, 100 groups of 100 tuples over 8-pair
	// (16-variable) shared blocks.
	conds, dists := buildAnswer(100, 100, 8)
	start := time.Now()
	ev := probcalc.New(dists)
	perTupleP := make([]float64, len(conds))
	for i, c := range conds {
		p, err := ev.Probability(c)
		if err != nil {
			panic(err)
		}
		perTupleP[i] = p
	}
	perTuple := time.Since(start)

	start = time.Now()
	circ, err := probcalc.CompileAnswer(conds, dists)
	if err != nil {
		panic(err)
	}
	compile := time.Since(start)
	start = time.Now()
	circuitP, err := circ.EvalFloat(dists)
	if err != nil {
		panic(err)
	}
	eval := time.Since(start)
	shared := compile + eval
	for i := range conds {
		if math.Abs(circuitP[i]-perTupleP[i]) > 1e-9 {
			panic(fmt.Sprintf("E20: circuit marginal %d = %g, per-tuple %g", i, circuitP[i], perTupleP[i]))
		}
	}
	n := float64(len(conds))
	perSec := func(d time.Duration) float64 { return n / d.Seconds() }
	fmt.Fprintf(out, "10k-tuple answer, 100 shared 16-variable blocks (%d circuit nodes, %d compile-memo hits):\n\n",
		circ.NumNodes(), circ.Stats().SharedHits)
	fmt.Fprintln(out, "| marginal path | time | marginals/sec | speedup |")
	fmt.Fprintln(out, "|---|---|---|---|")
	fmt.Fprintf(out, "| per-tuple d-tree (shared memo) | %s | %.0f | — |\n", perTuple, perSec(perTuple))
	fmt.Fprintf(out, "| shared circuit (compile %s + eval %s) | %s | %.0f | %.1f× |\n",
		compile, eval, shared, perSec(shared), float64(perTuple)/float64(shared))
	fmt.Fprintln(out)

	// What-if: redistribute mass on every group's first block variable and
	// re-evaluate — the retained circuit only re-weights, the per-tuple path
	// recomputes from scratch.
	over := make(probcalc.MapDists, len(dists))
	for x, s := range dists {
		over[x] = s
	}
	for g := 0; g < 100; g++ {
		over[condition.Variable(fmt.Sprintf("a%d_0", g))] = mustBern(0.8)
	}
	start = time.Now()
	whatIfP, err := circ.EvalFloat(over)
	if err != nil {
		panic(err)
	}
	reEval := time.Since(start)
	start = time.Now()
	fresh := probcalc.New(over)
	for i, c := range conds {
		p, err := fresh.Probability(c)
		if err != nil {
			panic(err)
		}
		if math.Abs(whatIfP[i]-p) > 1e-9 {
			panic(fmt.Sprintf("E20: what-if marginal %d = %g, fresh %g", i, whatIfP[i], p))
		}
	}
	recompute := time.Since(start)
	fmt.Fprintln(out, "| what-if re-evaluation (same answer, overridden dists) | time | speedup |")
	fmt.Fprintln(out, "|---|---|---|")
	fmt.Fprintf(out, "| recompute per-tuple d-tree from scratch | %s | — |\n", recompute)
	fmt.Fprintf(out, "| re-weight retained circuit | %s | %.0f× |\n", reEval, float64(recompute)/float64(reEval))
	fmt.Fprintln(out)

	// Exact twin, at an enumeration-feasible scale: every circuit marginal
	// bit-identical (as big.Rat) to the exact d-tree and to enumeration.
	vconds, vdists := buildAnswer(8, 4, 4)
	vcirc, err := probcalc.CompileAnswer(vconds, vdists)
	if err != nil {
		panic(err)
	}
	rats, err := vcirc.EvalRat(vdists)
	if err != nil {
		panic(err)
	}
	exact := probcalc.NewExact(vdists)
	for i, c := range vconds {
		dt, err := exact.ProbabilityRat(c)
		if err != nil {
			panic(err)
		}
		en, err := probcalc.EnumProbabilityRat(c, vdists)
		if err != nil {
			panic(err)
		}
		if rats[i].Cmp(dt) != 0 || rats[i].Cmp(en) != 0 {
			panic(fmt.Sprintf("E20: marginal %d not bit-identical: circuit %s, dtree %s, enum %s", i, rats[i], dt, en))
		}
	}
	fmt.Fprintf(out, "Exact twin: %d marginals bit-identical (big.Rat) across circuit, d-tree and enumeration.\n\n", len(vconds))

	// engine=auto vs the best fixed engine on a mixed workload: small
	// answers (d-tree territory) interleaved with high-sharing scans
	// (circuit territory). Cold executions on fresh engines; best of 3.
	sharedTable := pctable.NewWithArity(1)
	var disj []condition.Condition
	for i := 0; i < 8; i++ {
		a, b := fmt.Sprintf("sa%d", i), fmt.Sprintf("sb%d", i)
		sharedTable.SetBoolDist(a, 0.5).SetBoolDist(b, 0.4)
		disj = append(disj, condition.And(condition.IsTrueVar(a), condition.IsTrueVar(b)))
	}
	block := condition.Or(disj...)
	for i := 0; i < 64; i++ {
		u := fmt.Sprintf("su%d", i)
		sharedTable.SetBoolDist(u, 0.9)
		sharedTable.AddConstRow(value.NewTuple(value.Str(fmt.Sprintf("r%03d", i))),
			condition.And(condition.IsTrueVar(u), block))
	}
	mixed := []string{
		"project[1](select[$2 != 'course0'](Courses))",
		"project[1](select[$2 = 'course1'](Courses))",
		"select[$2 != 'course2'](Courses)",
		"Shared",
		"select[$1 != 'zzz'](Shared)",
		"project[1](Shared)",
	}
	coldTotal := func(kind string) time.Duration {
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			eng := engine.New(catalog.New(), engine.Options{})
			if _, err := eng.PutTable("Courses", workload.Courses(12, 3, 17)); err != nil {
				panic(err)
			}
			if _, err := eng.PutTable("Shared", sharedTable); err != nil {
				panic(err)
			}
			var total time.Duration
			for _, q := range mixed {
				res, err := eng.Execute(engine.Request{Query: q, Engine: kind})
				if err != nil {
					panic(err)
				}
				total += res.ExecDuration
			}
			if total < best {
				best = total
			}
		}
		return best
	}
	dtreeTotal := coldTotal("dtree")
	circuitTotal := coldTotal("circuit")
	autoTotal := coldTotal("auto")
	bestFixed := dtreeTotal
	if circuitTotal < bestFixed {
		bestFixed = circuitTotal
	}
	fmt.Fprintln(out, "| mixed workload (6 cold queries) | Σ exec | vs best fixed |")
	fmt.Fprintln(out, "|---|---|---|")
	fmt.Fprintf(out, "| engine=dtree | %s | %.2f× |\n", dtreeTotal, float64(dtreeTotal)/float64(bestFixed))
	fmt.Fprintf(out, "| engine=circuit | %s | %.2f× |\n", circuitTotal, float64(circuitTotal)/float64(bestFixed))
	fmt.Fprintf(out, "| engine=auto | %s | %.2f× |\n", autoTotal, float64(autoTotal)/float64(bestFixed))
	fmt.Fprintln(out)
}

// scrapeMetrics fetches a Prometheus text exposition page.
func scrapeMetrics(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		panic(err)
	}
	return string(body)
}

// metricValue returns the value of an unlabelled sample in a Prometheus
// text page.
func metricValue(page, name string) (float64, bool) {
	for _, line := range strings.Split(page, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// histogramQuantileBound reads a histogram's buckets out of a Prometheus
// text page and returns the smallest upper bound covering quantile q.
func histogramQuantileBound(page, name string, q float64) (float64, bool) {
	type bucket struct {
		le  float64
		cum float64
	}
	var buckets []bucket
	prefix := name + "_bucket{le=\""
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := strings.TrimPrefix(line, prefix)
		end := strings.Index(rest, "\"}")
		if end < 0 {
			continue
		}
		le := math.Inf(1)
		if rest[:end] != "+Inf" {
			v, err := strconv.ParseFloat(rest[:end], 64)
			if err != nil {
				continue
			}
			le = v
		}
		cum, err := strconv.ParseFloat(strings.TrimSpace(rest[end+2:]), 64)
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{le, cum})
	}
	if len(buckets) == 0 {
		return 0, false
	}
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, false
	}
	for _, b := range buckets {
		if b.cum >= q*total {
			return b.le, !math.IsInf(b.le, 1)
		}
	}
	return 0, false
}

// incrementalMaintenance measures E21: the latency of keeping a cached
// answer current through a 1-row patch of a 10k-row table — delta-apply
// (PatchTable maintaining the plan in place, then a warm cache-hit
// execution) — against a full from-scratch recompile of the same query over
// the same catalog, plus the recompile-avoided ratio the maintenance
// counters report. The patches alternate between rows that match the cached
// query's predicate and rows that do not, so both the
// new-candidate-marginal path and the pure-append path are in the sample.
func incrementalMaintenance(out io.Writer) {
	fmt.Fprintln(out, "## E21 — incremental view maintenance vs full recompile")
	fmt.Fprintln(out)

	const (
		baseRows = 10_000
		groups   = 50
		patches  = 40
	)
	tab := ctable.New(2)
	for i := 0; i < baseRows; i++ {
		tab.AddRow([]condition.Term{
			condition.Const(value.Str(fmt.Sprintf("s%05d", i))),
			condition.Const(value.Str(fmt.Sprintf("g%02d", i%groups))),
		}, condition.True())
	}
	// A probabilistic sliver keeps the marginal engines engaged: every 500th
	// row's group is the shared variable v.
	tab.SetDomain("v", value.NewDomain(value.Str("g00"), value.Str("g01")))
	for i := 0; i < baseRows; i += 500 {
		tab.AddRow([]condition.Term{
			condition.Const(value.Str(fmt.Sprintf("p%05d", i))),
			condition.Var("v"),
		}, condition.True())
	}
	pc, err := pctable.UniformPCTable(tab)
	if err != nil {
		panic(err)
	}

	opts := engine.Options{}
	maintainedEng := engine.New(catalog.New(), opts)
	if _, err := maintainedEng.PutTable("T", pc); err != nil {
		panic(err)
	}
	req := engine.Request{Query: "project[1](select[$2 = 'g07'](T))"}
	if _, err := maintainedEng.Execute(req); err != nil {
		panic(err)
	}

	deltaLat := make([]time.Duration, 0, patches)
	recompileLat := make([]time.Duration, 0, patches)
	for i := 0; i < patches; i++ {
		group := "g33"
		if i%2 == 0 {
			group = "g07" // matches the cached predicate: new answer tuple
		}
		p := &wal.Patch{Upserts: []wal.PatchRow{{Terms: []condition.Term{
			condition.Const(value.Str(fmt.Sprintf("n%05d", i))),
			condition.Const(value.Str(group)),
		}}}}

		start := time.Now()
		if _, err := maintainedEng.PatchTable("T", p); err != nil {
			panic(err)
		}
		res, err := maintainedEng.Execute(req)
		if err != nil {
			panic(err)
		}
		deltaLat = append(deltaLat, time.Since(start))
		if !res.CacheHit {
			panic("maintained execution missed the plan cache")
		}

		// Full recompile over the identical catalog: a fresh engine pays
		// parse + rewrite + compile + marginals from scratch.
		start = time.Now()
		if _, err := engine.New(maintainedEng.Catalog(), opts).Execute(req); err != nil {
			panic(err)
		}
		recompileLat = append(recompileLat, time.Since(start))
	}
	sort.Slice(deltaLat, func(i, j int) bool { return deltaLat[i] < deltaLat[j] })
	sort.Slice(recompileLat, func(i, j int) bool { return recompileLat[i] < recompileLat[j] })
	deltaP50, deltaP99 := deltaLat[len(deltaLat)/2], deltaLat[len(deltaLat)*99/100]
	recompileP50, recompileP99 := recompileLat[len(recompileLat)/2], recompileLat[len(recompileLat)*99/100]

	st := maintainedEng.Stats().Maintenance
	forced := st.ForcedNonMonotone + st.ForcedTableReplaced + st.ForcedSelectionChanged + st.ForcedDistsChanged + st.ForcedError
	avoided := float64(st.PlansMaintained) / float64(st.PlansMaintained+forced)

	fmt.Fprintf(out, "%d-row table, %d 1-row patches, query %s:\n\n", baseRows, patches, req.Query)
	fmt.Fprintln(out, "| path | p50 | p99 |")
	fmt.Fprintln(out, "|---|---|---|")
	fmt.Fprintf(out, "| delta apply + warm re-query (maintained plan) | %s | %s |\n", deltaP50, deltaP99)
	fmt.Fprintf(out, "| full recompile (fresh engine, same catalog) | %s | %s |\n", recompileP50, recompileP99)
	fmt.Fprintf(out, "| recompile/delta p50 speedup | %.1f× | |\n", float64(recompileP50)/float64(deltaP50))
	fmt.Fprintln(out)
	fmt.Fprintf(out, "maintenance counters: %d patches, %d plans maintained (%d delta appends, %d re-evaluations), %d forced recompiles → recompile-avoided ratio %.3f\n",
		st.PatchesApplied, st.PlansMaintained, st.DeltaAppends, st.Reevaluations, forced, avoided)
	fmt.Fprintln(out)
	if ratio := float64(recompileP50) / float64(deltaP50); ratio < 10 {
		fmt.Fprintf(out, "WARNING: delta-apply p50 is only %.1f× faster than recompile (target ≥10×)\n\n", ratio)
	}
}
