package engine

import (
	"uncertaindb/internal/obs"
)

// instrument exports the engine's counters through the observer's registry.
// Everything here is a scrape-time bridge over counters the engine already
// keeps (funcCollector reads under the same locks Stats takes), plus the two
// query-latency histograms the hot path feeds directly — nothing is double
// accounted and the hot path gains no new synchronization.
func (e *Engine) instrument(o *obs.Observer) {
	reg := o.Reg

	histHelp := "End-to-end query execution duration in seconds, by plan-cache outcome (cold = compiled this request, warm = cache hit)."
	e.coldSeconds = reg.Histogram("uncertaindb_query_duration_seconds", obs.Labels("path", "cold"), histHelp, nil)
	e.warmSeconds = reg.Histogram("uncertaindb_query_duration_seconds", obs.Labels("path", "warm"), histHelp, nil)

	reg.CounterFunc("uncertaindb_queries_total", "",
		"Number of completed query executions.",
		func() float64 { return float64(e.executions.Load()) })
	reg.CounterFunc("uncertaindb_query_errors_total", "",
		"Number of failed query executions.",
		func() float64 { return float64(e.errors.Load()) })

	// Plan-cache counters live under e.mu; scrapes take the same lock the
	// Stats endpoint does.
	cache := func(read func() uint64) func() float64 {
		return func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(read())
		}
	}
	reg.CounterFunc("uncertaindb_plan_cache_hits_total", "",
		"Prepared-plan cache hits.", cache(func() uint64 { return e.hits }))
	reg.CounterFunc("uncertaindb_plan_cache_misses_total", "",
		"Prepared-plan cache misses (plan compilations).", cache(func() uint64 { return e.misses }))
	reg.CounterFunc("uncertaindb_plan_cache_evictions_total", "",
		"Prepared plans evicted by the LRU bound.", cache(func() uint64 { return e.evictions }))
	reg.CounterFunc("uncertaindb_plan_cache_invalidations_total", "",
		"Prepared plans dropped because a table they read was replaced.", cache(func() uint64 { return e.invalidations }))
	reg.GaugeFunc("uncertaindb_plan_cache_entries", "",
		"Prepared plans currently cached.", cache(func() uint64 { return uint64(e.lru.Len()) }))

	// Physical-operator totals over every plan compilation (exec.OpStats).
	op := func(read func() uint64) func() float64 {
		return func() float64 {
			e.opMu.Lock()
			defer e.opMu.Unlock()
			return float64(read())
		}
	}
	reg.CounterFunc("uncertaindb_exec_rows_total", obs.Labels("dir", "in"),
		"Rows entering (dir=\"in\") and leaving (dir=\"out\") the counting physical operators, over all plan compilations.",
		op(func() uint64 { return e.opTotals.RowsIn }))
	reg.CounterFunc("uncertaindb_exec_rows_total", obs.Labels("dir", "out"),
		"", op(func() uint64 { return e.opTotals.RowsOut }))
	reg.CounterFunc("uncertaindb_exec_hash_probes_total", "",
		"Hash-bucket probes by the symbolic hash operators.",
		op(func() uint64 { return e.opTotals.HashProbes }))
	reg.CounterFunc("uncertaindb_exec_residual_hits_total", "",
		"Residual-bucket hits (rows with non-constant join keys) by the symbolic hash operators.",
		op(func() uint64 { return e.opTotals.ResidualHits }))
	reg.CounterFunc("uncertaindb_exec_hash_joins_total", "",
		"Joins compiled to the symbolic hash join.",
		op(func() uint64 { return e.opTotals.HashJoins }))
	reg.CounterFunc("uncertaindb_exec_nested_loop_joins_total", "",
		"Joins compiled to the nested-loop fallback.",
		op(func() uint64 { return e.opTotals.NestedLoopJoins }))

	// Shared-circuit compilation counters and auto-selector decisions.
	reg.CounterFunc("uncertaindb_probcalc_circuit_compiles_total", "",
		"Shared lineage circuits compiled (one per plan that computed exact marginals or a what-if, one per catch-up whose marginals were refreshed).",
		func() float64 { return float64(e.circuitCompiles.Load()) })
	reg.CounterFunc("uncertaindb_probcalc_circuit_nodes_total", "",
		"DAG nodes across all compiled lineage circuits.",
		func() float64 { return float64(e.circuitNodes.Load()) })
	reg.CounterFunc("uncertaindb_probcalc_circuit_shared_total", "",
		"Compile-time memo hits across all circuit compilations (subcircuits reused via hash-consed condition IDs).",
		func() float64 { return float64(e.circuitShare.Load()) })
	reg.CounterFunc("uncertaindb_engine_auto_selections_total", obs.Labels("engine", "circuit"),
		"engine=auto selector decisions, by chosen engine.", func() float64 { return float64(e.autoCircuit.Load()) })
	reg.CounterFunc("uncertaindb_engine_auto_selections_total", obs.Labels("engine", "mc"),
		"", func() float64 { return float64(e.autoMC.Load()) })

	// Incremental view maintenance: patch throughput, plans caught up in
	// place by strategy, recompiles forced by fallback reason, marginal
	// memo reuse across catch-ups, and per-catch-up latency.
	e.applySeconds = reg.Histogram("uncertaindb_maintenance_apply_seconds", "",
		"Time of one catch-up: a query bringing one cached plan up to its snapshot across every patch since the plan was current (delta apply or re-evaluation + marginal refresh).", nil)
	reg.CounterFunc("uncertaindb_maintenance_patches_total", "",
		"Row-level patches applied (counted when applied; plans catch up when read).",
		func() float64 { return float64(e.mnt.patches.Load()) })
	maintHelp := "Cached plans caught up in place by a query (recompiles avoided), by strategy (delta append vs full re-evaluation with suspect diffing)."
	reg.CounterFunc("uncertaindb_maintenance_plans_maintained_total", obs.Labels("mode", "append"),
		maintHelp, func() float64 { return float64(e.mnt.appends.Load()) })
	reg.CounterFunc("uncertaindb_maintenance_plans_maintained_total", obs.Labels("mode", "reeval"),
		"", func() float64 { return float64(e.mnt.reevals.Load()) })
	forcedHelp := "Cached plans dropped instead of maintained (recompiles forced), by fallback reason."
	reg.CounterFunc("uncertaindb_maintenance_forced_recompiles_total", obs.Labels("reason", reasonNonMonotone),
		forcedHelp, func() float64 { return float64(e.mnt.forcedNonMonotone.Load()) })
	reg.CounterFunc("uncertaindb_maintenance_forced_recompiles_total", obs.Labels("reason", reasonTableReplaced),
		"", func() float64 { return float64(e.mnt.forcedReplaced.Load()) })
	reg.CounterFunc("uncertaindb_maintenance_forced_recompiles_total", obs.Labels("reason", reasonSelectionChanged),
		"", func() float64 { return float64(e.mnt.forcedSelection.Load()) })
	reg.CounterFunc("uncertaindb_maintenance_forced_recompiles_total", obs.Labels("reason", reasonDistsChanged),
		"", func() float64 { return float64(e.mnt.forcedDists.Load()) })
	reg.CounterFunc("uncertaindb_maintenance_forced_recompiles_total", obs.Labels("reason", reasonError),
		"", func() float64 { return float64(e.mnt.forcedError.Load()) })
	margHelp := "Memoized tuple marginals carried to maintained plans unchanged (reused) vs re-evaluated because their lineage touched changed rows (refreshed)."
	reg.CounterFunc("uncertaindb_maintenance_marginals_total", obs.Labels("outcome", "reused"),
		margHelp, func() float64 { return float64(e.mnt.margReused.Load()) })
	reg.CounterFunc("uncertaindb_maintenance_marginals_total", obs.Labels("outcome", "refreshed"),
		"", func() float64 { return float64(e.mnt.margRefreshed.Load()) })

	reg.CounterFunc("uncertaindb_catalog_snapshots_total", "",
		"Catalog snapshots acquired.",
		func() float64 { return float64(e.cat.Snapshots()) })
	reg.GaugeFunc("uncertaindb_catalog_version", "",
		"Current catalog version (monotonic across mutations).",
		func() float64 { return float64(e.cat.Version()) })

	reg.CounterFunc("uncertaindb_slow_queries_total", "",
		"Executions captured by the slow-query log (including evicted captures).",
		func() float64 { return float64(o.Slow.Total()) })
}
