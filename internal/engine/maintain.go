// Incremental view maintenance: when a table receives a row-level patch
// (wal.KindPatch), every cached plan that reads it is updated in place
// instead of being invalidated. The maintained plan is byte-identical to
// what a fresh compile at the new catalog version would produce — same
// rendered answer, same candidate tuples and lineage syntax, same marginals
// — because every step either re-runs the exact operator-core code path a
// compile would run, or replays the operator fold the compile's operators
// would have applied to the delta rows.
//
// Three outcomes per (patch, plan) pair:
//
//   - Delta append: for insert-only patches against order-safe plan shapes
//     (the patched table referenced once, every ancestor a selection, a
//     cross/join with the table on the probe/left spine, or a union with the
//     table on the right spine, plus at most one top-level projection), the
//     appended base rows are pushed through the plan's delta query — σ and
//     join apply pointwise, so Δ(answer) = plan(ΔT) — and the resulting rows
//     are appended to the materialized answer (folded into the top
//     projection's groups when present, replaying π̄'s disjunction fold).
//
//   - Re-evaluation: any other SPJU shape re-runs the full operator core on
//     the patched environment (the same call a compile makes, so the answer
//     is identical by construction) and diffs the old and new answer rows to
//     find the suspect middle; candidates and marginals outside the suspect
//     window are carried forward untouched.
//
//   - Forced recompile: non-monotone queries (difference/intersection),
//     patches that add distributions, auto-selector flips, version races and
//     maintenance errors fall back to plain invalidation, counted by reason.
package engine

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"uncertaindb/internal/catalog"
	"uncertaindb/internal/condition"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/obs"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/relation"
	"uncertaindb/internal/wal"
)

// MaintenanceStats is the public snapshot of the incremental-maintenance
// counters: how many patches ran, how many plans were maintained in place
// (split by strategy), how many memoized marginals survived, and how many
// recompiles were forced, by fallback reason.
type MaintenanceStats struct {
	// PatchesApplied counts row-level patches processed by this engine
	// (leader PatchTable calls and follower KindPatch records alike).
	PatchesApplied uint64 `json:"patchesApplied"`
	// PlansMaintained counts cached plans updated in place and re-keyed
	// (recompiles avoided); DeltaAppends and Reevaluations split it by
	// strategy.
	PlansMaintained uint64 `json:"plansMaintained"`
	DeltaAppends    uint64 `json:"deltaAppends"`
	Reevaluations   uint64 `json:"reevaluations"`
	// MarginalsReused counts memoized tuple marginals carried to a
	// maintained plan unchanged; MarginalsRefreshed counts tuples whose
	// lineage touched changed rows and was re-evaluated.
	MarginalsReused    uint64 `json:"marginalsReused"`
	MarginalsRefreshed uint64 `json:"marginalsRefreshed"`
	// Forced* count plans dropped instead of maintained, by reason:
	// non-monotone queries (difference/intersection), whole-table
	// replacement (put/delete/reload, and patch races against concurrent
	// mutations), an engine=auto selection flip, patches that change the
	// distribution set, and maintenance errors.
	ForcedNonMonotone      uint64 `json:"forcedNonMonotone"`
	ForcedTableReplaced    uint64 `json:"forcedTableReplaced"`
	ForcedSelectionChanged uint64 `json:"forcedSelectionChanged"`
	ForcedDistsChanged     uint64 `json:"forcedDistsChanged"`
	ForcedError            uint64 `json:"forcedError"`
}

// maintCounters is the engine-internal atomic twin of MaintenanceStats.
type maintCounters struct {
	patches, maintained, appends, reevals atomic.Uint64
	margReused, margRefreshed             atomic.Uint64
	forcedNonMonotone, forcedReplaced     atomic.Uint64
	forcedSelection, forcedDists          atomic.Uint64
	forcedError                           atomic.Uint64
}

func (m *maintCounters) snapshot() MaintenanceStats {
	return MaintenanceStats{
		PatchesApplied:         m.patches.Load(),
		PlansMaintained:        m.maintained.Load(),
		DeltaAppends:           m.appends.Load(),
		Reevaluations:          m.reevals.Load(),
		MarginalsReused:        m.margReused.Load(),
		MarginalsRefreshed:     m.margRefreshed.Load(),
		ForcedNonMonotone:      m.forcedNonMonotone.Load(),
		ForcedTableReplaced:    m.forcedReplaced.Load(),
		ForcedSelectionChanged: m.forcedSelection.Load(),
		ForcedDistsChanged:     m.forcedDists.Load(),
		ForcedError:            m.forcedError.Load(),
	}
}

// Typed fallback reasons for forced recompiles.
const (
	reasonNonMonotone      = "nonmonotone"
	reasonTableReplaced    = "tableReplaced"
	reasonSelectionChanged = "selectionChanged"
	reasonDistsChanged     = "distsChanged"
	reasonError            = "error"
)

func (m *maintCounters) forced(reason string) {
	switch reason {
	case reasonNonMonotone:
		m.forcedNonMonotone.Add(1)
	case reasonSelectionChanged:
		m.forcedSelection.Add(1)
	case reasonDistsChanged:
		m.forcedDists.Add(1)
	case reasonError:
		m.forcedError.Add(1)
	default:
		m.forcedReplaced.Add(1)
	}
}

// deltaRelName binds the delta table in the delta query's environment. The
// NUL byte cannot appear in a parsed relation name, so it never collides.
const deltaRelName = "\x00delta"

// maintDiff describes how the maintained answer's rows relate to the old
// answer's, so rebuildPlan can splice the plan's cached render state instead
// of re-rendering the whole answer: the first pre rows carry over except the
// indices in changed (rewritten projection groups), and so do the last suf;
// the rows between are new. An append keeps every old row in place (pre is
// the old row count, suf 0); a re-evaluation keeps a shared prefix and
// suffix. groupIndex, when non-nil, is the successor plan's top-projection
// group index (canonical terms key -> row index), already extended with the
// delta's groups; it is a fresh map, never the predecessor's.
type maintDiff struct {
	mode       string // "append" or "reeval"
	pre, suf   int
	changed    map[int]bool
	groupIndex map[string]int
}

// maintained is the outcome of maintaining one plan.
type maintained struct {
	plan      *plan
	mode      string // "append" or "reeval"
	deltaRows int    // suspect/changed answer rows
	reused    int    // marginals carried unchanged
	refreshed int    // marginals re-evaluated
}

// maintainTable updates every cached plan reading name after a row-level
// patch bumped it to version. Plans that cannot be maintained are dropped
// (forced recompile) with a typed reason; the rest are re-keyed in place so
// the next execution at the new catalog version hits the cache.
func (e *Engine) maintainTable(name string, version uint64, ap *wal.AppliedPatch) {
	e.mnt.patches.Add(1)
	start := obs.Nanotime()
	tr := e.obs.StartTraceAt("maintain", start)
	var root obs.SpanRef
	if tr != nil {
		root = tr.Root()
		root.SetStr("table", fmt.Sprintf("%s@%d", name, version))
	}

	e.mu.Lock()
	keys := make([]string, 0, len(e.byTable[name]))
	for key := range e.byTable[name] {
		keys = append(keys, key)
	}
	e.mu.Unlock()
	sort.Strings(keys) // deterministic maintenance order

	var snap *catalog.Snapshot
	if len(keys) > 0 {
		snap = e.cat.Snapshot()
	}
	for _, key := range keys {
		e.mu.Lock()
		var p *plan
		if el, ok := e.byKey[key]; ok {
			p = el.Value.(*plan)
		}
		e.mu.Unlock()
		if p == nil {
			continue // concurrently evicted
		}
		sp := root.Child("plan")
		m, reason := e.maintainPlan(p, name, version, ap, snap)
		if m == nil {
			e.dropMaintained(key, reason)
			sp.SetStr("outcome", "invalidate:"+reason)
			sp.End()
			continue
		}
		e.swapPlan(key, m.plan)
		e.mnt.maintained.Add(1)
		if m.mode == "append" {
			e.mnt.appends.Add(1)
		} else {
			e.mnt.reevals.Add(1)
		}
		e.mnt.margReused.Add(uint64(m.reused))
		e.mnt.margRefreshed.Add(uint64(m.refreshed))
		sp.SetStr("outcome", m.mode)
		sp.SetInt("deltaRows", int64(m.deltaRows))
		sp.SetInt("marginalsReused", int64(m.reused))
		sp.SetInt("marginalsRefreshed", int64(m.refreshed))
		sp.End()
	}

	end := obs.Nanotime()
	total := time.Duration(end - start)
	e.applySeconds.Observe(total)
	if tr != nil {
		root.EndAt(end)
		if e.obs.SlowThreshold > 0 && total >= e.obs.SlowThreshold {
			e.obs.Slow.Add(obs.SlowQuery{
				Time:          time.Now(),
				Query:         "PATCH " + name,
				Engine:        "maintenance",
				DurationNanos: int64(total),
				Trace:         tr.Export(),
			})
		}
	}
	e.obs.FinishTrace(tr)
}

// dropMaintained invalidates one plan by cache key, attributing the drop to
// the given maintenance fallback reason.
func (e *Engine) dropMaintained(key, reason string) {
	e.mu.Lock()
	if el, ok := e.byKey[key]; ok {
		e.removeLocked(el, &e.invalidations)
		e.mnt.forced(reason)
	}
	e.mu.Unlock()
}

// swapPlan replaces the cached plan at oldKey with newp (re-keying the LRU
// element in place, keeping its recency). If a concurrent compile already
// cached a plan under newp.key, the first insert wins and the stale old
// entry is dropped.
func (e *Engine) swapPlan(oldKey string, newp *plan) {
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.byKey[oldKey]
	if !ok {
		return // concurrently evicted or invalidated; nothing to swap
	}
	if _, exists := e.byKey[newp.key]; exists {
		e.removeLocked(el, &e.invalidations)
		return
	}
	old := el.Value.(*plan)
	delete(e.byKey, oldKey)
	for _, t := range old.tables {
		if set := e.byTable[t]; set != nil {
			delete(set, oldKey)
		}
	}
	el.Value = newp
	e.byKey[newp.key] = el
	for _, t := range newp.tables {
		set := e.byTable[t]
		if set == nil {
			set = make(map[string]bool)
			e.byTable[t] = set
		}
		set[newp.key] = true
	}
}

// maintainPlan builds the maintained successor of p after a patch moved
// table name to version. A nil result means the plan must be dropped; the
// string is then the typed fallback reason.
func (e *Engine) maintainPlan(p *plan, name string, version uint64, ap *wal.AppliedPatch, snap *catalog.Snapshot) (*maintained, string) {
	// The plan must have been compiled (or last maintained) against exactly
	// the table state the patch was applied to, and the snapshot must still
	// show the versions the maintained plan will be keyed on — a concurrent
	// mutation (second patch, put, delete) makes the plan stale, which is
	// ordinary replacement.
	if pv, ok := p.tableVers[name]; !ok || pv != ap.OldVersion {
		return nil, reasonTableReplaced
	}
	for _, t := range p.tables {
		want := p.tableVers[t]
		if t == name {
			want = version
		}
		if ent := snap.Get(t); ent == nil || ent.Version != want {
			return nil, reasonTableReplaced
		}
	}
	if hasNonMonotone(p.query) {
		return nil, reasonNonMonotone
	}
	if len(ap.AddedDists) > 0 {
		return nil, reasonDistsChanged
	}
	env, err := snap.Env(p.tables)
	if err != nil {
		return nil, reasonError
	}

	var (
		newAnswer              *pctable.PCTable
		oldSuspect, newSuspect []exec.Row
		diff                   *maintDiff
	)
	if ap.InsertOnly() {
		newAnswer, newSuspect, oldSuspect, diff, err = e.deltaAppend(p, name, ap, env)
		if err != nil {
			return nil, reasonError
		}
	}
	if newAnswer == nil {
		newAnswer, oldSuspect, newSuspect, diff, err = e.reevaluate(p, env)
		if err != nil {
			return nil, reasonError
		}
	}
	m, reason := e.rebuildPlan(p, name, version, newAnswer, oldSuspect, newSuspect, diff)
	if m == nil {
		return nil, reason
	}
	m.mode = diff.mode
	m.deltaRows = len(oldSuspect) + len(newSuspect)
	return m, ""
}

// hasNonMonotone reports whether q contains a difference or intersection —
// the non-monotone operators deltas cannot propagate through (an inserted
// right-side tuple can retract answer tuples).
func hasNonMonotone(q ra.Query) bool {
	switch q := q.(type) {
	case ra.DiffQ, ra.IntersectQ:
		return true
	case ra.SelectQ:
		return hasNonMonotone(q.Input)
	case ra.ProjectQ:
		return hasNonMonotone(q.Input)
	case ra.CrossQ:
		return hasNonMonotone(q.Left) || hasNonMonotone(q.Right)
	case ra.JoinQ:
		return hasNonMonotone(q.Left) || hasNonMonotone(q.Right)
	case ra.UnionQ:
		return hasNonMonotone(q.Left) || hasNonMonotone(q.Right)
	default:
		return false
	}
}

// countBaseRefs counts occurrences of the named base relation in q.
func countBaseRefs(q ra.Query, name string) int {
	if b, ok := q.(ra.BaseRel); ok {
		if b.Name == name {
			return 1
		}
		return 0
	}
	n := 0
	for _, c := range children(q) {
		n += countBaseRefs(c, name)
	}
	return n
}

// bindBaseRels copies into denv the env bindings of every base relation
// referenced by q (the delta relation, bound separately, is absent from env
// and skipped).
func bindBaseRels(q ra.Query, env, denv pctable.Env) {
	if b, ok := q.(ra.BaseRel); ok {
		if t, ok := env[b.Name]; ok {
			denv[b.Name] = t
		}
		return
	}
	for _, c := range children(q) {
		bindBaseRels(c, env, denv)
	}
}

// children mirrors ra.Query's internal child accessor for the walks above.
func children(q ra.Query) []ra.Query {
	switch q := q.(type) {
	case ra.SelectQ:
		return []ra.Query{q.Input}
	case ra.ProjectQ:
		return []ra.Query{q.Input}
	case ra.CrossQ:
		return []ra.Query{q.Left, q.Right}
	case ra.JoinQ:
		return []ra.Query{q.Left, q.Right}
	case ra.UnionQ:
		return []ra.Query{q.Left, q.Right}
	case ra.DiffQ:
		return []ra.Query{q.Left, q.Right}
	case ra.IntersectQ:
		return []ra.Query{q.Left, q.Right}
	default:
		return nil
	}
}

// deltaQuery rewrites plan tree q into its delta tree with respect to base
// table name: the tree that, evaluated with the delta table bound to
// deltaRelName, produces exactly the rows the full plan appends at its
// output tail. ok=false means the shape is not order-safe for appends:
// the output rows the new base rows generate would interleave with (or
// merge into) existing output rows rather than extend them.
//
// Order safety follows the operator core's streaming order: selections are
// pointwise; crosses and joins enumerate probe-major with the LEFT input as
// the probe side, so appended left rows extend the output tail while
// appended right (build-side) rows interleave; unions emit left rows then
// right rows, so only right-side appends land at the tail. Projections
// merge groups (handled only at the top level, by deltaAppend's group
// fold), and difference/intersection are rejected earlier as non-monotone.
func deltaQuery(q ra.Query, name string, arities ra.ArityEnv) (ra.Query, bool) {
	switch q := q.(type) {
	case ra.BaseRel:
		if q.Name != name {
			return nil, false
		}
		return ra.BaseRel{Name: deltaRelName}, true
	case ra.SelectQ:
		d, ok := deltaQuery(q.Input, name, arities)
		if !ok {
			return nil, false
		}
		return ra.SelectQ{Pred: q.Pred, Input: d}, true
	case ra.CrossQ:
		if countBaseRefs(q.Left, name) != 1 {
			return nil, false
		}
		d, ok := deltaQuery(q.Left, name, arities)
		if !ok {
			return nil, false
		}
		return ra.CrossQ{Left: d, Right: q.Right}, true
	case ra.JoinQ:
		if countBaseRefs(q.Left, name) != 1 {
			return nil, false
		}
		d, ok := deltaQuery(q.Left, name, arities)
		if !ok {
			return nil, false
		}
		return ra.JoinQ{Left: d, Right: q.Right, Pred: q.Pred}, true
	case ra.UnionQ:
		if countBaseRefs(q.Right, name) != 1 {
			return nil, false
		}
		d, ok := deltaQuery(q.Right, name, arities)
		if !ok {
			return nil, false
		}
		// The left side contributes nothing to the delta, but the union
		// operator's per-row condition re-simplification must still apply to
		// the delta rows — replace the left input with an EMPTY constant of
		// the same arity rather than dropping the node (so the non-delta
		// subtree is never executed, yet the operator runs).
		a, err := ra.Arity(q.Left, arities)
		if err != nil {
			return nil, false
		}
		return ra.UnionQ{Left: ra.ConstRel{Rel: relation.New(a)}, Right: d}, true
	default:
		// Non-top projections merge into existing groups; constants contain
		// no delta.
		return nil, false
	}
}

// deltaAppend attempts the delta-append maintenance strategy: runs the
// plan's delta query over the appended base rows and extends the
// materialized answer in place (replaying the top projection's group fold
// when the plan has one). An all-nil return means the plan shape is not
// order-safe — the caller falls back to re-evaluation. The second return
// value holds the new/changed answer rows, the third the old versions of
// changed projection groups (empty without a top projection), the fourth
// the row-level diff rebuildPlan splices the cached render state with.
func (e *Engine) deltaAppend(p *plan, name string, ap *wal.AppliedPatch, env pctable.Env) (*pctable.PCTable, []exec.Row, []exec.Row, *maintDiff, error) {
	arities := make(ra.ArityEnv, len(env))
	for n, t := range env {
		arities[n] = t.Arity()
	}
	// The materialized answer's row order is that of the REWRITTEN plan;
	// order safety and the delta tree must be judged on the same tree the
	// operator core executed.
	q := exec.Rewrite(p.query, arities)
	if countBaseRefs(q, name) != 1 {
		return nil, nil, nil, nil, nil // self-joins interleave; re-evaluate
	}
	var topCols []int
	if pq, ok := q.(ra.ProjectQ); ok {
		topCols = pq.Cols
		q = pq.Input
	}
	dq, ok := deltaQuery(q, name, arities)
	if !ok {
		return nil, nil, nil, nil, nil
	}

	// Bind the delta table: the appended base rows under the patched table's
	// distributions and declared domains (identical to the pre-patch ones
	// for insert-only patches).
	tnew := env[name]
	rows := tnew.Table().Rows()
	if ap.AddedRows > len(rows) {
		return nil, nil, nil, nil, fmt.Errorf("engine: patch added %d rows but table has %d", ap.AddedRows, len(rows))
	}
	delta := tnew.CloneWithRows(rows[len(rows)-ap.AddedRows:])
	// Bind only the relations the delta tree actually references: the operator
	// core sizes per-run state (term dictionary, encode buffers) from the total
	// rows of the environment, so handing it the full patched table would make
	// every delta run O(table) — the delta tree replaced that base relation
	// with the delta binding, which holds just the appended rows.
	denv := make(pctable.Env, len(env)+1)
	bindBaseRels(dq, env, denv)
	denv[deltaRelName] = delta

	opts := e.algebraOptions()
	opts.Rewrite = false // dq mirrors the already-rewritten plan shape
	res, err := exec.Run(dq, denv.ExecEnv(), opts.ExecOptions())
	if err != nil {
		return nil, nil, nil, nil, err
	}

	oldRows := p.answer.Table().Rows()
	if topCols == nil {
		// Pure append: the delta rows are the full plan's appended output.
		merged := make([]exec.Row, 0, len(oldRows)+len(res.Rows))
		merged = append(merged, oldRows...)
		merged = append(merged, res.Rows...)
		diff := &maintDiff{mode: "append", pre: len(oldRows)}
		return p.answer.CloneWithRows(merged), res.Rows, nil, diff, nil
	}

	// Top-level projection: replay π̄'s fold over the delta input rows.
	// The old answer rows ARE the fold state after the old input — continue
	// folding the delta rows with the operator's exact per-row step:
	// merge into an existing group by disjoining conditions, or open a new
	// group at the tail. Group keys are canonical term identities (stable
	// across calls, unlike interner keys), so the index survives on the plan
	// and only the delta rows are keyed per patch; the cached index is
	// copied, never extended in place — the old plan stays readable by
	// concurrent maintainers.
	index := make(map[string]int, len(oldRows)+len(res.Rows))
	if p.groupIndex != nil {
		for k, g := range p.groupIndex {
			index[k] = g
		}
	} else {
		for i, r := range oldRows {
			index[wal.TermsKey(r.Terms)] = i
		}
	}
	out := make([]exec.Row, len(oldRows), len(oldRows)+len(res.Rows))
	copy(out, oldRows)
	var oldChanged []exec.Row
	changed := make(map[int]bool)
	for _, r := range res.Rows {
		terms := make([]condition.Term, len(topCols))
		for j, c := range topCols {
			terms[j] = r.Terms[c]
		}
		key := wal.TermsKey(terms)
		if g, ok := index[key]; ok {
			if !changed[g] {
				changed[g] = true
				oldChanged = append(oldChanged, out[g])
			}
			out[g] = exec.Row{Terms: out[g].Terms, Cond: condition.Simplify(condition.Or(out[g].Cond, r.Cond))}
			continue
		}
		g := len(out)
		index[key] = g
		changed[g] = true
		out = append(out, exec.Row{Terms: terms, Cond: condition.Simplify(r.Cond)})
	}
	// Suspect rows serve only as a set: rebuildPlan collects the sorted set
	// of tuples they produce, so their order does not matter.
	newChanged := make([]exec.Row, 0, len(changed))
	for g := range changed {
		newChanged = append(newChanged, out[g])
	}
	diff := &maintDiff{mode: "append", pre: len(oldRows), changed: changed, groupIndex: index}
	return p.answer.CloneWithRows(out), newChanged, oldChanged, diff, nil
}

// reevaluate runs the plan's full query on the patched environment — the
// identical operator-core call a fresh compile makes, so the answer table
// is byte-identical to a recompile by construction — and diffs old and new
// answer rows by canonical row identity, trimming the common prefix and
// suffix. Rows outside the differing middle contribute identically (and in
// identical order) to every tuple's lineage, so only tuples producible by
// the suspect middle need recomputation.
func (e *Engine) reevaluate(p *plan, env pctable.Env) (*pctable.PCTable, []exec.Row, []exec.Row, *maintDiff, error) {
	newAnswer, err := pctable.EvalQueryEnvWithOptions(p.query, env, e.algebraOptions())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	oldRows := p.answer.Table().Rows()
	newRows := newAnswer.Table().Rows()
	pre := 0
	for pre < len(oldRows) && pre < len(newRows) && sameAnswerRow(oldRows[pre], newRows[pre]) {
		pre++
	}
	suf := 0
	for suf < len(oldRows)-pre && suf < len(newRows)-pre &&
		sameAnswerRow(oldRows[len(oldRows)-1-suf], newRows[len(newRows)-1-suf]) {
		suf++
	}
	diff := &maintDiff{mode: "reeval", pre: pre, suf: suf}
	return newAnswer, oldRows[pre : len(oldRows)-suf], newRows[pre : len(newRows)-suf], diff, nil
}

// sameAnswerRow compares two answer rows by canonical row identity — the
// same exact-syntax key the patch layer uses for base rows.
func sameAnswerRow(a, b exec.Row) bool {
	return wal.RowKey(a.Terms, a.Cond) == wal.RowKey(b.Terms, b.Cond)
}

// rebuildPlan assembles the maintained successor plan: candidates affected
// by the suspect rows get their lineage (and, when memoized, marginal)
// recomputed against the new answer; everything else is carried forward.
func (e *Engine) rebuildPlan(p *plan, name string, version uint64, newAnswer *pctable.PCTable, oldSuspect, newSuspect []exec.Row, diff *maintDiff) (*maintained, string) {
	// Affected tuples: every tuple the suspect rows (removed or changed old
	// rows, added or changed new ones) can produce, sorted by key. A patch
	// that reaches maintenance adds no distribution, so the old and new
	// answers share distributions and domains and one context serves both.
	affected, err := newAnswer.CloneWithRows(slices.Concat(oldSuspect, newSuspect)).PossibleTuples()
	if err != nil {
		return nil, reasonError
	}
	isAffected := make(map[string]bool, len(affected))
	for _, tp := range affected {
		isAffected[tp.Key()] = true
	}

	// Affected tuples get their lineage rebuilt from the new answer (a false
	// lineage drops the candidate, covering deletions); the others carry over
	// verbatim, their matching rows all outside the suspect middle. Both
	// lists are sorted by tuple key; merge them.
	fresh := newAnswer.CandidatesOf(affected)
	freshKeys := make([]string, len(fresh))
	for i, c := range fresh {
		freshKeys[i] = c.Tuple.Key()
	}
	cands := make([]pctable.Candidate, 0, len(p.candidates)+len(fresh))
	j := 0
	for _, c := range p.candidates {
		k := c.Tuple.Key()
		for ; j < len(fresh) && freshKeys[j] < k; j++ {
			cands = append(cands, fresh[j])
		}
		if !isAffected[k] {
			cands = append(cands, c)
		}
	}
	cands = append(cands, fresh[j:]...)

	sel := selectEngine(cands)
	if p.kind == KindAuto && sel.Chosen != p.sel.Chosen {
		// The selector would pick a different engine for the maintained
		// lineage set; memoized marginals computed under the old choice
		// cannot be extended. Fall back to a recompile.
		return nil, reasonSelectionChanged
	}

	vers := maps.Clone(p.tableVers)
	vers[name] = version
	// Splice the render state: carried rows copy their line out of the
	// predecessor's rendered text and keep their refcounts, the old suspect
	// rows give theirs up, and only changed and added rows are rendered. The
	// predecessor's state is never mutated.
	refs := maps.Clone(p.varRefs)
	for _, r := range oldSuspect {
		addRowVars(refs, r, -1)
	}
	oldLen, shift := p.answer.NumRows(), newAnswer.NumRows()-p.answer.NumRows()
	rendered, rowOff := renderAnswer(newAnswer, refs, p, func(i int) int {
		switch {
		case i < diff.pre && !diff.changed[i]:
			return i
		case i-shift >= oldLen-diff.suf:
			return i - shift
		}
		return -1
	})
	newp := &plan{
		key:        planKey(p.queryText, p.kind, p.tables, vers),
		queryText:  p.queryText,
		kind:       p.kind,
		tables:     p.tables,
		query:      p.query,
		tableVers:  vers,
		answer:     newAnswer,
		physical:   p.physical, // shape- and arity-dependent only
		ops:        p.ops,
		candidates: cands,
		sel:        sel,
		rendered:   rendered,
		rowOff:     rowOff,
		varRefs:    refs,
		groupIndex: diff.groupIndex,
	}
	m := &maintained{plan: newp}

	// Carry memoized marginals: tuples whose lineage did not change keep
	// their computed values (marginals are pure functions of lineage and
	// distributions, both unchanged); affected tuples are re-evaluated with
	// the plan's chosen engine. Plans without computed marginals (never
	// executed, or Monte-Carlo) stay lazy.
	chosen := p.kind
	if chosen == KindAuto {
		chosen = p.sel.Chosen
	}
	if p.margDone.Load() && (chosen == KindDTree || chosen == KindEnum || chosen == KindCircuit) {
		marg, reused, fresh, err := e.refreshMarginals(p, newp, isAffected, chosen)
		if err == nil {
			newp.marginals = marg
			newp.probStats = p.probStats
			newp.once.Do(func() {}) // marginals are final; burn the once
			newp.margDone.Store(true)
			m.reused, m.refreshed = reused, fresh
		}
		// On error the maintained plan simply recomputes all marginals on
		// its next execution; the answer itself is already correct.
	}
	return m, ""
}

// refreshMarginals merges old memoized marginals with fresh values for the
// affected candidates, preserving candidate (tuple-key) order. A candidate
// absent from the old marginals had probability zero — the fresh compile
// drops those too, so absence carries over. Returns the merged list plus
// reused/refreshed counts.
func (e *Engine) refreshMarginals(old, newp *plan, isAffected map[string]bool, kind Kind) ([]TupleAnswer, int, int, error) {
	oldByKey := make(map[string]TupleAnswer, len(old.marginals))
	for _, ta := range old.marginals {
		oldByKey[ta.Tuple.Key()] = ta
	}
	var affCands []pctable.Candidate
	for _, c := range newp.candidates {
		if isAffected[c.Tuple.Key()] {
			affCands = append(affCands, c)
		}
	}

	// Fresh values for the affected lineages with the plan's chosen engine.
	// Each engine computes a marginal as a pure function of (lineage,
	// distributions), so evaluating the affected subset alone yields the
	// same values a full recompute would.
	fresh := make(map[string]float64, len(affCands))
	switch kind {
	case KindDTree:
		ev := probcalc.New(newp.answer)
		for _, c := range affCands {
			pr, err := ev.Probability(c.Lineage)
			if err != nil {
				return nil, 0, 0, err
			}
			fresh[c.Tuple.Key()] = pr
		}
		st := ev.Stats()
		e.memoHits.Add(uint64(st.MemoHits))
		e.memoMisses.Add(uint64(st.MemoMisses))
	case KindEnum:
		for _, c := range affCands {
			pr, err := newp.answer.ConditionProbabilityEnum(c.Lineage)
			if err != nil {
				return nil, 0, 0, err
			}
			fresh[c.Tuple.Key()] = pr
		}
	case KindCircuit:
		if len(affCands) > 0 {
			conds := make([]condition.Condition, len(affCands))
			for i, c := range affCands {
				conds[i] = c.Lineage
			}
			circ, err := probcalc.CompileAnswer(conds, newp.answer)
			if err != nil {
				return nil, 0, 0, err
			}
			st := circ.Stats()
			e.circuitCompiles.Add(1)
			e.circuitNodes.Add(uint64(st.Nodes))
			e.circuitShare.Add(uint64(st.SharedHits))
			probs, err := circ.EvalFloat(newp.answer)
			if err != nil {
				return nil, 0, 0, err
			}
			for i, c := range affCands {
				fresh[c.Tuple.Key()] = probs[i]
			}
		}
	}

	out := make([]TupleAnswer, 0, len(newp.candidates))
	reused, refreshed := 0, 0
	for _, c := range newp.candidates {
		k := c.Tuple.Key()
		if !isAffected[k] {
			if ta, ok := oldByKey[k]; ok {
				out = append(out, ta)
				reused++
			}
			continue
		}
		refreshed++
		pr := fresh[k]
		if pr == 0 {
			continue
		}
		out = append(out, TupleAnswer{Tuple: c.Tuple, P: pr, Certain: pr >= 1-CertainEps})
	}
	return out, reused, refreshed, nil
}

// renderAnswer renders t into one buffer, byte-identical to t.String(), and
// returns it with the offset at which each row's line starts (plus the end of
// the last). Row i's line is copied from prev's text when carry(i) names a
// row of prev; otherwise (always with a nil carry) it is rendered and its
// variables counted into refs, which must already count the carried rows.
// The trailer lists the variables with a positive refcount, sorted — read
// from refs instead of the two O(answer) Vars scans t.String() makes.
func renderAnswer(t *pctable.PCTable, refs map[condition.Variable]int, prev *plan, carry func(int) int) (string, []int32) {
	rows := t.Table().Rows()
	var b strings.Builder
	if prev != nil {
		b.Grow(len(prev.rendered) + len(prev.rendered)/8)
	}
	fmt.Fprintf(&b, "c-table(arity=%d)\n", t.Arity())
	rowOff := make([]int32, len(rows)+1)
	for i, r := range rows {
		rowOff[i] = int32(b.Len())
		if carry != nil {
			if j := carry(i); j >= 0 {
				b.WriteString(prev.rendered[prev.rowOff[j]:prev.rowOff[j+1]])
				continue
			}
		}
		writeRowLine(&b, r)
		addRowVars(refs, r, 1)
	}
	rowOff[len(rows)] = int32(b.Len())

	vars := make([]condition.Variable, 0, len(refs))
	for x, n := range refs {
		if n > 0 {
			vars = append(vars, x)
		}
	}
	slices.Sort(vars)
	tab := t.Table()
	if tab.HasDomains() {
		for _, x := range vars {
			if d := tab.DomainOf(x); d != nil {
				fmt.Fprintf(&b, "  dom(%s) = %s\n", x, d)
			}
		}
	}
	for _, x := range vars {
		if d := t.Dist(x); d != nil {
			fmt.Fprintf(&b, "  %s ~ %s\n", x, d)
		}
	}
	return b.String(), rowOff
}

// writeRowLine renders one answer row exactly as CTable.String does.
func writeRowLine(b *strings.Builder, r exec.Row) {
	b.WriteString("  (")
	for i, t := range r.Terms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString(") : ")
	b.WriteString(r.Cond.String())
	b.WriteByte('\n')
}

// addRowVars adjusts the per-variable row refcounts for one row: each
// distinct variable of the row (term positions and condition alike) counts
// once, mirroring the per-row set semantics of CTable.Vars.
func addRowVars(refs map[condition.Variable]int, r exec.Row, delta int) {
	var buf [8]condition.Variable
	termVars := buf[:0]
	for _, t := range r.Terms {
		if t.IsVar && !slices.Contains(termVars, t.Var) {
			termVars = append(termVars, t.Var)
			refs[t.Var] += delta
		}
	}
	switch r.Cond.(type) {
	case condition.TrueCond, condition.FalseCond:
		return // no variables to walk for
	}
	for _, x := range condition.Vars(r.Cond) {
		if !slices.Contains(termVars, x) {
			refs[x] += delta
		}
	}
}
