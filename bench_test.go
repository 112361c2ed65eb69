// Package uncertaindb contains the benchmark harness that regenerates the
// measured side of every experiment in EXPERIMENTS.md (E4–E12). The paper is
// theoretical and publishes no performance numbers; these benches quantify
// its qualitative claims — succinctness of c-tables vs boolean c-tables
// (Example 5), cost of the closure-based query answering vs naïve possible
// world enumeration (Theorems 4 and 9), the cost of the completeness and
// completion constructions (Theorems 1, 3, 5–8), and ablations of central
// design choices (condition simplification, exact-vs-decomposed-vs-sampled
// probability computation).
package uncertaindb

import (
	"fmt"
	"testing"
	"time"

	"uncertaindb/internal/catalog"
	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/engine"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/incomplete"
	"uncertaindb/internal/models"
	"uncertaindb/internal/obs"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
	"uncertaindb/internal/workload"
)

// E4 — Theorem 1: cost and size of the RA-definability construction
// (c-table → SPJU query over Z_k) as the table grows.
func BenchmarkRADefinabilityConstruction(b *testing.B) {
	for _, rows := range []int{4, 16, 64, 256} {
		spec := workload.CTableSpec{Rows: rows, Arity: 3, NumVars: 6, DomainSize: 4, PVarCell: 0.5, PCondAtom: 0.6, Seed: 11}
		tab := workload.RandomCTable(spec)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ctable.RADefinabilityQuery(tab); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E5 — Theorem 3: cost of building a boolean c-table from a finite
// incomplete database as the number of worlds grows.
func BenchmarkTheorem3Construction(b *testing.B) {
	for _, worlds := range []int{4, 16, 64} {
		db := workload.RandomIDatabase(worlds, 4, 2, 8, 7)
		b.Run(fmt.Sprintf("worlds=%d", worlds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ctable.BooleanCTableFromIDatabase(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E6 — Example 5: succinctness gap between a finite c-table with m variable
// columns over a domain of size n (1 row) and the equivalent boolean
// c-table (n^m rows). The boolean row count is reported as a metric.
func BenchmarkExample5Succinctness(b *testing.B) {
	for _, cfg := range []struct{ m, n int }{{2, 2}, {2, 4}, {3, 3}, {4, 2}, {3, 4}} {
		b.Run(fmt.Sprintf("m=%d/n=%d", cfg.m, cfg.n), func(b *testing.B) {
			tab := ctable.New(cfg.m)
			terms := make([]condition.Term, cfg.m)
			for i := 0; i < cfg.m; i++ {
				name := fmt.Sprintf("x%d", i+1)
				terms[i] = condition.Var(name)
				tab.SetDomain(name, value.IntRange(1, int64(cfg.n)))
			}
			tab.AddRow(terms, nil)
			var boolRows int
			for i := 0; i < b.N; i++ {
				expanded, err := ctable.ExpandToBooleanCTable(tab)
				if err != nil {
					b.Fatal(err)
				}
				boolRows = expanded.NumRows()
			}
			b.ReportMetric(float64(tab.NumRows()), "ctable-rows")
			b.ReportMetric(float64(boolRows), "boolean-rows")
		})
	}
}

// E7 — Theorem 4: cost of the c-table algebra q̄ (symbolic evaluation) vs
// evaluating q in every possible world, as the number of variables (and
// hence worlds) grows.
func BenchmarkCTableAlgebra(b *testing.B) {
	query := ra.Project([]int{0, 2},
		ra.Select(ra.Ne(ra.Col(1), ra.ConstInt(1)),
			ra.Join(ra.Rel("R"), ra.Rel("R"), ra.Eq(ra.Col(0), ra.Col(3)))))
	for _, vars := range []int{2, 4, 6, 8} {
		spec := workload.CTableSpec{Rows: 8, Arity: 3, NumVars: vars, DomainSize: 3, PVarCell: 0.5, PCondAtom: 0.5, Seed: 3}
		tab := workload.RandomCTable(spec)
		b.Run(fmt.Sprintf("symbolic/vars=%d", vars), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ctable.EvalQuery(query, tab); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("worlds/vars=%d", vars), func(b *testing.B) {
			worlds := tab.MustMod()
			b.ReportMetric(float64(worlds.Size()), "worlds")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := incomplete.Map(query, worlds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E9 — Theorems 5–7: cost of the algebraic-completion constructions on
// random finite incomplete databases.
func BenchmarkCompletionConstructions(b *testing.B) {
	db := workload.RandomIDatabase(6, 3, 2, 5, 21)
	b.Run("orset-PJ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := models.CompletionOrSetPJ(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("finite-vtable-S+P", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := models.CompletionFiniteVTableSPlusP(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rsets-PJ", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := models.CompletionRSetsPJ(db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("xor-equiv-S+PJ", func(b *testing.B) {
		small := workload.RandomIDatabase(3, 2, 1, 5, 22)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := models.CompletionXorEquivSPlusPJ(small); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("theorem7-RA", func(b *testing.B) {
		src := workload.RandomIDatabase(8, 2, 1, 9, 23)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := models.GeneralCompletionRA(db, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E11 — Theorem 8: cost of encoding a probabilistic database as a boolean
// pc-table as the number of worlds grows.
func BenchmarkTheorem8Construction(b *testing.B) {
	for _, tuples := range []int{4, 6, 8} {
		pq := workload.RandomPQTable(tuples, 2, 10, 5)
		db, err := pq.Mod()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("worlds=%d", db.NumWorlds()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pctable.BooleanPCTableFromPDatabase(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E12 — Theorem 9 and Section 7: probabilistic query answering. Compares
// (a) lineage-based exact marginals computed by the d-tree decomposition
// engine, (b) the same marginals by brute-force enumeration of the lineage
// variables, (c) naïve possible-world enumeration, and (d) Monte-Carlo
// estimation (sequential and parallel), on growing courses workloads.
func BenchmarkProbabilisticQueryAnswering(b *testing.B) {
	query := workload.ProjectionQuery(0)
	target := value.NewTuple(value.Str("student0"))
	for _, students := range []int{6, 9, 12} {
		tab := workload.Courses(students, 3, 17)
		// (a) Closure + lineage, decomposed: the d-tree engine splits the
		// lineage condition instead of enumerating its valuations.
		b.Run(fmt.Sprintf("lineage-dtree/students=%d", students), func(b *testing.B) {
			answer, err := tab.EvalQuery(query)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := answer.TupleProbability(target); err != nil {
					b.Fatal(err)
				}
			}
		})
		// (b) Closure + lineage, enumerated: exponential in the number of
		// lineage variables.
		b.Run(fmt.Sprintf("lineage-enum/students=%d", students), func(b *testing.B) {
			answer, err := tab.EvalQuery(query)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := answer.TupleProbabilityEnum(target); err != nil {
					b.Fatal(err)
				}
			}
		})
		// (b) Naïve: enumerate every possible world of the input, map it
		// through the query, and read the marginal off the image.
		b.Run(fmt.Sprintf("worlds/students=%d", students), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dist, err := tab.Mod()
				if err != nil {
					b.Fatal(err)
				}
				img, err := dist.Map(query)
				if err != nil {
					b.Fatal(err)
				}
				img.TupleProbability(target)
			}
		})
		// (d) Monte-Carlo estimation of the same marginal, sequential and
		// sharded across a worker pool.
		b.Run(fmt.Sprintf("montecarlo1k/students=%d", students), func(b *testing.B) {
			answer, err := tab.EvalQuery(query)
			if err != nil {
				b.Fatal(err)
			}
			sampler, err := pctable.NewSampler(answer, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sampler.EstimateTupleProbability(target, 1000); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("montecarlo10k-par4/students=%d", students), func(b *testing.B) {
			answer, err := tab.EvalQuery(query)
			if err != nil {
				b.Fatal(err)
			}
			sampler, err := pctable.NewSampler(answer, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sampler.EstimateTupleProbabilityParallel(target, 10000, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E12b — the exact-engine crossover, the tentpole measurement of the
// probcalc subsystem: exact condition probability on lineage-style
// disjunctions with up to 20 variables, comparing brute-force enumeration
// (2^vars valuations), d-tree decomposition, and parallel Monte-Carlo. Two
// condition shapes are measured: "indep" (variable-disjoint conjunction
// pairs, decomposed by independence splits) and "chain" (adjacent disjuncts
// share a variable, forcing Shannon expansion with memoization).
func BenchmarkExactEngineCrossover(b *testing.B) {
	shapes := []struct {
		name  string
		build func(vars int) condition.Condition
	}{
		{"indep", func(vars int) condition.Condition {
			var disj []condition.Condition
			for i := 0; i+1 < vars; i += 2 {
				x, y := fmt.Sprintf("b%d", i), fmt.Sprintf("b%d", i+1)
				disj = append(disj, condition.And(condition.IsTrueVar(x), condition.IsTrueVar(y)))
			}
			return condition.Or(disj...)
		}},
		{"chain", func(vars int) condition.Condition {
			var disj []condition.Condition
			for i := 0; i+1 < vars; i++ {
				x, y := fmt.Sprintf("b%d", i), fmt.Sprintf("b%d", i+1)
				disj = append(disj, condition.And(condition.IsTrueVar(x), condition.IsTrueVar(y)))
			}
			return condition.Or(disj...)
		}},
	}
	for _, shape := range shapes {
		for _, vars := range []int{8, 16, 20} {
			tab := pctable.NewWithArity(1)
			for i := 0; i < vars; i++ {
				tab.SetBoolDist(fmt.Sprintf("b%d", i), 0.3)
			}
			cond := shape.build(vars)
			tab.AddConstRow(value.Ints(1), cond)
			b.Run(fmt.Sprintf("%s/enum/vars=%d", shape.name, vars), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := tab.ConditionProbabilityEnum(cond); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/dtree/vars=%d", shape.name, vars), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := tab.ConditionProbability(cond); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/montecarlo10k-par4/vars=%d", shape.name, vars), func(b *testing.B) {
				sampler, err := pctable.NewSampler(tab, 3)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := sampler.EstimateConditionProbabilityParallel(cond, 10000, 4); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// E13 — serving throughput: the uncertaind engine (catalog + compiled-plan
// cache) on the courses workload. "cold" forces a plan compilation on every
// request (two queries alternating through a size-1 cache); "warm" re-issues
// one query against a primed cache, so each request is a cache hit returning
// memoized marginals; "warm-parallel" adds concurrent clients on the shared
// engine (run with -race to exercise the concurrency claims). The prepared
// plan amortizes parsing, the closed algebra and lineage decomposition, so
// warm must be orders of magnitude faster than cold.
func BenchmarkServing(b *testing.B) {
	const queryText = "project[1](select[$2 != 'course0'](Courses))"
	newServingEngine := func(b *testing.B, cacheSize int) *engine.Engine {
		eng := engine.New(catalog.New(), engine.Options{CacheSize: cacheSize})
		if _, err := eng.PutTable("Courses", workload.Courses(12, 3, 17)); err != nil {
			b.Fatal(err)
		}
		return eng
	}
	reportQPS := func(b *testing.B) {
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(b.N)/s, "qps")
		}
	}
	b.Run("cold", func(b *testing.B) {
		eng := newServingEngine(b, 1)
		queries := []string{queryText, "project[2](Courses)"}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(engine.Request{Query: queries[i%2]}); err != nil {
				b.Fatal(err)
			}
		}
		reportQPS(b)
		if s := eng.Stats(); s.Hits != 0 {
			b.Fatalf("cold run recorded %d cache hits", s.Hits)
		}
	})
	b.Run("warm", func(b *testing.B) {
		eng := newServingEngine(b, 0)
		if _, err := eng.Execute(engine.Request{Query: queryText}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(engine.Request{Query: queryText}); err != nil {
				b.Fatal(err)
			}
		}
		reportQPS(b)
		if s := eng.Stats(); s.Hits != uint64(b.N) {
			b.Fatalf("warm run recorded %d cache hits, want %d", s.Hits, b.N)
		}
	})
	b.Run("warm-parallel", func(b *testing.B) {
		eng := newServingEngine(b, 0)
		if _, err := eng.Execute(engine.Request{Query: queryText}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := eng.Execute(engine.Request{Query: queryText}); err != nil {
					b.Error(err)
					return
				}
			}
		})
		reportQPS(b)
	})
	// E18 — the same warm cache-hit path with observability on (spans +
	// latency histograms + slow-query check). Warm executions materialize no
	// spans (see engine.phases), so the gap to "warm" is two monotonic clock
	// reads and one histogram observation; the E18 gate holds it under 3%.
	b.Run("warm-observed", func(b *testing.B) {
		eng := engine.New(catalog.New(), engine.Options{
			Obs: obs.NewObserver(100*time.Millisecond, 128),
		})
		if _, err := eng.PutTable("Courses", workload.Courses(12, 3, 17)); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Execute(engine.Request{Query: queryText}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(engine.Request{Query: queryText}); err != nil {
				b.Fatal(err)
			}
		}
		reportQPS(b)
		if s := eng.Stats(); s.Hits != uint64(b.N) {
			b.Fatalf("warm-observed run recorded %d cache hits, want %d", s.Hits, b.N)
		}
	})
}

// E15 — the physical-plan crossover, the tentpole measurement of the
// logical→physical planning split: a maximally selective equi-join
// R ⋈_{$1=$3} S (every key matches exactly one row per side, plus a small
// band of variable-keyed rows that exercises the symbolic residual bucket)
// executed by (a) the frozen eager evaluator, (b) the operator core with
// the hash path off — a selection over a nested-loop cross product building
// |R|·|S| condition pairs — and (c) the symbolic hash join, which probes
// the build side by ground key values and only pairs each probe row with
// its bucket plus the residual. The acceptance criterion is ≥5× for hash
// over nested-loop at ≥1k rows per side; the equivalence grid
// (TestOperatorCoreBitIdenticalToEager) holds all three bit-identical on
// marginals.
func BenchmarkSymbolicHashJoin(b *testing.B) {
	for _, rows := range []int{256, 1024} {
		env, query := workload.EquiJoin(rows, 8)
		modes := []struct {
			name string
			run  func() (*ctable.CTable, error)
		}{
			{"eager", func() (*ctable.CTable, error) {
				return ctable.EvalQueryEnvEager(query, env, ctable.Options{Simplify: true})
			}},
			{"nested-loop", func() (*ctable.CTable, error) {
				return ctable.EvalQueryEnvWithOptions(query, env, ctable.Options{Simplify: true, Rewrite: true, NoHash: true})
			}},
			{"hash", func() (*ctable.CTable, error) {
				return ctable.EvalQueryEnvWithOptions(query, env, ctable.Options{Simplify: true, Rewrite: true})
			}},
		}
		for _, m := range modes {
			b.Run(fmt.Sprintf("%s/rows=%d", m.name, rows), func(b *testing.B) {
				var outRows int
				for i := 0; i < b.N; i++ {
					res, err := m.run()
					if err != nil {
						b.Fatal(err)
					}
					outRows = res.NumRows()
				}
				b.ReportMetric(float64(outRows), "out-rows")
			})
		}
		// Probe/residual behaviour of the hash run, reported once per size.
		var stats exec.OpStats
		if _, err := ctable.EvalQueryEnvWithOptions(query, env,
			ctable.Options{Simplify: true, Rewrite: true, Stats: &stats}); err != nil {
			b.Fatal(err)
		}
		b.Logf("rows=%d hash-join counters: %+v", rows, stats)
	}
}

// Ablation — condition simplification in the c-table algebra on/off: the
// Mod is identical, but the size of the produced conditions (and the cost
// of later probability computations) differs.
func BenchmarkAblationSimplify(b *testing.B) {
	spec := workload.CTableSpec{Rows: 12, Arity: 3, NumVars: 6, DomainSize: 3, PVarCell: 0.5, PCondAtom: 0.7, Seed: 29}
	tab := workload.RandomCTable(spec)
	query := ra.Project([]int{0},
		ra.Select(ra.Ne(ra.Col(1), ra.ConstInt(1)),
			ra.Join(ra.Rel("R"), ra.Rel("R"), ra.Eq(ra.Col(0), ra.Col(3)))))
	for _, simplify := range []bool{true, false} {
		name := "on"
		if !simplify {
			name = "off"
		}
		b.Run("simplify="+name, func(b *testing.B) {
			var condSize int
			for i := 0; i < b.N; i++ {
				res, err := ctable.EvalQueryWithOptions(query, tab, ctable.Options{Simplify: simplify})
				if err != nil {
					b.Fatal(err)
				}
				condSize = 0
				for _, row := range res.Rows() {
					condSize += condition.Size(row.Cond)
				}
			}
			b.ReportMetric(float64(condSize), "cond-atoms")
		})
	}
}

// Ablation — exact condition probability (enumerated vs decomposed) vs
// Monte-Carlo estimation as the number of variables in the lineage grows.
func BenchmarkAblationConditionProbability(b *testing.B) {
	for _, vars := range []int{4, 8, 12} {
		tab := pctable.NewWithArity(1)
		var disj []condition.Condition
		for i := 0; i < vars; i++ {
			name := fmt.Sprintf("b%d", i)
			tab.SetBoolDist(name, 0.3)
			disj = append(disj, condition.IsTrueVar(name))
		}
		tab.AddConstRow(value.Ints(1), condition.Or(disj...))
		cond := condition.Or(disj...)
		b.Run(fmt.Sprintf("exact-enum/vars=%d", vars), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tab.ConditionProbabilityEnum(cond); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("exact-dtree/vars=%d", vars), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tab.ConditionProbability(cond); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("montecarlo1k/vars=%d", vars), func(b *testing.B) {
			sampler, err := pctable.NewSampler(tab, 2)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sampler.EstimateConditionProbability(cond, 1000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E14 — eager recursive evaluation vs the unified operator core, with and
// without plan rewriting, on an E12-style selective self-join over the
// courses workload. The eager path is the frozen pre-refactor evaluator
// (ctable.EvalQueryEnvEager); "core" is the operator core with rewrites
// off (same plan, batch execution); "core+rewrite" adds
// predicate pushdown and projection splitting, which filters and merges
// each side of the cross product before the s² concatenated rows are built.
func BenchmarkOperatorCoreVsEager(b *testing.B) {
	course := func(c int) value.Value { return value.Str(fmt.Sprintf("course%d", c)) }
	for _, students := range []int{10, 20, 40} {
		tab := workload.Courses(students, 3, 17).Table()
		query := ra.Project([]int{0, 3},
			ra.Select(ra.AndOf(
				ra.Eq(ra.Col(1), ra.Const(course(0))),
				ra.Eq(ra.Col(3), ra.Const(course(1)))),
				ra.Cross(ra.Rel("V"), ra.Rel("V"))))
		env := ctable.Env{"V": tab}
		modes := []struct {
			name string
			run  func() (*ctable.CTable, error)
		}{
			{"eager", func() (*ctable.CTable, error) {
				return ctable.EvalQueryEnvEager(query, env, ctable.Options{Simplify: true})
			}},
			{"core", func() (*ctable.CTable, error) {
				return ctable.EvalQueryEnvWithOptions(query, env, ctable.Options{Simplify: true, Rewrite: false})
			}},
			{"core-rewrite", func() (*ctable.CTable, error) {
				return ctable.EvalQueryEnvWithOptions(query, env, ctable.Options{Simplify: true, Rewrite: true})
			}},
		}
		for _, m := range modes {
			b.Run(fmt.Sprintf("%s/students=%d", m.name, students), func(b *testing.B) {
				var condSize int
				for i := 0; i < b.N; i++ {
					res, err := m.run()
					if err != nil {
						b.Fatal(err)
					}
					condSize = 0
					for _, row := range res.Rows() {
						condSize += condition.Size(row.Cond)
					}
				}
				b.ReportMetric(float64(condSize), "cond-atoms")
			})
		}
	}
}
