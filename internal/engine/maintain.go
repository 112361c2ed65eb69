// Incremental view maintenance, on read. A row-level patch (wal.KindPatch)
// changes only the catalog; the cached plans that read the patched table
// stay in the cache, behind it. The next query that reads such a plan
// catches it up to its own snapshot before serving it (Engine.lookup), in
// one step however many patches it is behind — deferred view maintenance
// (Colby, Griffin, Libkin, Mumick & Trickey, SIGMOD 1996): only plans that
// are read are maintained, and only once per read. The caught-up plan is
// byte-identical to what a fresh compile at the snapshot would produce —
// same rendered answer, same candidate tuples and lineage syntax, same
// marginals — because every step either re-runs the exact operator-core
// code path a compile would run, or replays the operator fold the compile's
// operators would have applied to the delta rows.
//
// No patch is retained for this: the catalog entry's two change versions
// decide the step. Three outcomes per catch-up:
//
//   - Delta append: when one table is behind and every patch since the plan
//     was current only appended rows to it (its RewriteVersion is not newer
//     than the plan), and the plan shape is order-safe (the patched table
//     referenced once, every ancestor a selection, a cross/join with the
//     table on the probe/left spine, or a union with the table on the right
//     spine, plus at most one top-level projection), the base rows appended
//     since — [n_u, n_v) — are pushed through the plan's delta query — σ and
//     join apply pointwise, so Δ(answer) = plan(ΔT) — and the resulting rows
//     are appended to the materialized answer (folded into the top
//     projection's groups when present, replaying π̄'s disjunction fold).
//
//   - Re-evaluation: any other SPJU catch-up re-runs the full operator core
//     on the snapshot's environment (the same call a compile makes, so the
//     answer is identical by construction) and diffs the old and new answer
//     rows to find the suspect middle; candidates and marginals outside the
//     suspect window are carried forward untouched.
//
//   - Forced recompile: non-monotone queries (difference/intersection),
//     tables whose distribution set changed (a dist-adding patch; its
//     DistsVersion is newer than the plan), auto-selector flips and
//     maintenance errors drop the plan, counted by reason; the query then
//     compiles a fresh one.
package engine

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
	"time"

	"uncertaindb/internal/catalog"
	"uncertaindb/internal/condition"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/obs"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/relation"
	"uncertaindb/internal/wal"
)

// MaintenanceStats is the public snapshot of the incremental-maintenance
// counters: how many patches ran, how many plans were caught up in place
// (split by strategy), how many memoized marginals survived, and how many
// recompiles were forced, by fallback reason. PatchesApplied counts at
// PATCH time; every other field counts at catch-up time, when a query reads
// a plan that is behind its snapshot.
type MaintenanceStats struct {
	// PatchesApplied counts row-level patches applied by this engine
	// (leader PatchTable calls and follower KindPatch records alike), when
	// they are applied.
	PatchesApplied uint64 `json:"patchesApplied"`
	// PlansMaintained counts catch-ups that updated a cached plan in place
	// (recompiles avoided), however many patches each covered; DeltaAppends
	// and Reevaluations split it by strategy.
	PlansMaintained uint64 `json:"plansMaintained"`
	DeltaAppends    uint64 `json:"deltaAppends"`
	Reevaluations   uint64 `json:"reevaluations"`
	// MarginalsReused counts memoized tuple marginals a catch-up carried to
	// the caught-up plan unchanged; MarginalsRefreshed counts tuples whose
	// lineage touched changed rows and was re-evaluated.
	MarginalsReused    uint64 `json:"marginalsReused"`
	MarginalsRefreshed uint64 `json:"marginalsRefreshed"`
	// Forced* count plans dropped instead of maintained, by reason:
	// non-monotone queries (difference/intersection) and tables whose
	// distribution set changed, both found at catch-up; whole-table
	// replacement (put/delete/reload), counted when the mutation invalidates;
	// an engine=auto selection flip; and maintenance errors.
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

// maintained is the outcome of catching one plan up.
type maintained struct {
	plan      *plan
	mode      string // "append" or "reeval"
	patches   uint64 // patches coalesced into the step
	deltaRows int    // suspect/changed answer rows
	reused    int    // marginals carried unchanged
	refreshed int    // marginals re-evaluated
}

// catchUpPlan builds the successor of p current at snap's versions, which
// must be past p's (p.versus(snap) == planBehind), and counts the step. The
// step is timed into the apply histogram and recorded as a "maintain" span
// in the query's own trace, so a slow catch-up reaches the slow-query log
// through the query that paid for it. A nil plan means p must be recompiled;
// the string is then the typed fallback reason.
func (e *Engine) catchUpPlan(p *plan, snap *catalog.Snapshot, ph *phases) (*plan, string) {
	start := obs.Nanotime()
	sp := ph.materialize(start).ChildAt("maintain", start)
	m, reason := e.maintainPlan(p, snap)
	end := obs.Nanotime()
	e.applySeconds.Observe(time.Duration(end - start))
	defer sp.EndAt(end)
	if m == nil {
		sp.SetStr("outcome", "recompile:"+reason)
		return nil, reason
	}
	e.mnt.maintained.Add(1)
	if m.mode == "append" {
		e.mnt.appends.Add(1)
	} else {
		e.mnt.reevals.Add(1)
	}
	e.mnt.margReused.Add(uint64(m.reused))
	e.mnt.margRefreshed.Add(uint64(m.refreshed))
	sp.SetStr("outcome", m.mode)
	sp.SetInt("patches", int64(m.patches))
	sp.SetInt("deltaRows", int64(m.deltaRows))
	sp.SetInt("marginalsReused", int64(m.reused))
	sp.SetInt("marginalsRefreshed", int64(m.refreshed))
	return m.plan, ""
}

// maintainPlan builds the successor of p current at snap's versions in one
// step, whatever the number of patches between. A nil result means the plan
// must be recompiled; the string is then the typed fallback reason.
func (e *Engine) maintainPlan(p *plan, snap *catalog.Snapshot) (*maintained, string) {
	if hasNonMonotone(p.query) {
		return nil, reasonNonMonotone
	}
	var patches uint64
	vers := make([]tableVer, len(p.tables))
	behind, appended := -1, true // the table behind, while only one is; whether it only gained rows
	for i, name := range p.tables {
		ent, at := snap.Get(name), p.tableVers[i]
		vers[i] = tableVerOf(ent)
		if ent.Version == at.version {
			continue
		}
		if ent.DistsVersion > at.version {
			return nil, reasonDistsChanged
		}
		if behind == -1 {
			behind = i
		} else {
			appended = false // a delta over one table needs the others unchanged
		}
		appended = appended && ent.RewriteVersion <= at.version
		patches += ent.Patches - at.patches
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
	if appended {
		newAnswer, newSuspect, oldSuspect, diff, err = e.deltaAppend(p, p.tables[behind], p.tableVers[behind].rows, env)
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
	m, reason := e.rebuildPlan(p, vers, newAnswer, oldSuspect, newSuspect, diff)
	if m == nil {
		return nil, reason
	}
	m.mode, m.patches = diff.mode, patches
	m.deltaRows = len(oldSuspect) + len(newSuspect)
	return m, ""
}

// hasNonMonotone reports whether q contains a difference or intersection —
// the non-monotone operators deltas cannot propagate through (an inserted
// right-side tuple can retract answer tuples).
func hasNonMonotone(q ra.Query) bool {
	switch q.(type) {
	case ra.DiffQ, ra.IntersectQ:
		return true
	}
	return slices.ContainsFunc(children(q), hasNonMonotone)
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
// plan's delta query over the base rows of table name from index from on —
// the rows appended since the plan was current — and extends the
// materialized answer in place (replaying the top projection's group fold
// when the plan has one). An all-nil return means the plan shape is not
// order-safe — the caller falls back to re-evaluation. The second return
// value holds the new/changed answer rows, the third the old versions of
// changed projection groups (empty without a top projection), the fourth
// the row-level diff rebuildPlan splices the cached render state with.
func (e *Engine) deltaAppend(p *plan, name string, from int, env pctable.Env) (*pctable.PCTable, []exec.Row, []exec.Row, *maintDiff, error) {
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
	// distributions and declared domains (identical to the ones the plan was
	// compiled under: appends add no distribution).
	tnew := env[name]
	rows := tnew.Table().Rows()
	if from > len(rows) {
		return nil, nil, nil, nil, fmt.Errorf("engine: plan read %d rows of %s but it has %d", from, name, len(rows))
	}
	delta := tnew.CloneWithRows(rows[from:])
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
	// and only the delta rows are keyed per catch-up; the cached index is
	// copied, never extended in place — the old plan stays readable by the
	// queries still serving it.
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
func (e *Engine) rebuildPlan(p *plan, vers []tableVer, newAnswer *pctable.PCTable, oldSuspect, newSuspect []exec.Row, diff *maintDiff) (*maintained, string) {
	// Affected tuples: every tuple the suspect rows (removed or changed old
	// rows, added or changed new ones) can produce, sorted by key. A
	// catch-up runs only across patches that add no distribution, so the old
	// and new answers share distributions and domains and one context serves
	// both.
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

	var sel Selection
	if p.kind == KindAuto {
		if sel = selectEngine(cands); sel.Chosen != p.sel.Chosen {
			// The selector would pick a different engine for the maintained
			// lineage set; memoized marginals computed under the old choice
			// cannot be extended. Fall back to a recompile.
			return nil, reasonSelectionChanged
		}
	}

	// Splice the render state: carried rows copy their line out of the
	// predecessor's rendered text and keep their refcounts, the old suspect
	// rows give theirs up, and only changed and added rows are written. The
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
		queryText:  p.queryText,
		kind:       p.kind,
		tables:     p.tables,
		query:      p.query,
		tableVers:  vers,
		catchUp:    p.catchUp,
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
	if p.margDone.Load() && chosen != KindMC {
		marg, reused, fresh, err := e.refreshMarginals(p, newp, isAffected, chosen)
		if err == nil {
			newp.marginals = marg
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
	// A marginal is a pure function of (lineage, distributions), so
	// evaluating the affected subset alone yields the values a full
	// recompute would. fresh keeps candidate order and drops zeros.
	s := pctable.Strategy{Engine: string(kind)}
	if kind == KindCircuit && len(affCands) > 0 {
		var err error
		if s.Circuit, err = e.compileCircuit(affCands, newp.answer); err != nil {
			return nil, 0, 0, err
		}
	}
	fresh, err := pctable.Marginals(newp.answer, affCands, s)
	if err != nil {
		return nil, 0, 0, err
	}

	out := make([]TupleAnswer, 0, len(newp.candidates))
	reused := 0
	for _, c := range newp.candidates {
		k := c.Tuple.Key()
		if !isAffected[k] {
			if ta, ok := oldByKey[k]; ok {
				out = append(out, ta)
				reused++
			}
		} else if len(fresh) > 0 && fresh[0].Tuple.Key() == k {
			out = append(out, fresh[0])
			fresh = fresh[1:]
		}
	}
	return out, reused, len(affCands), nil
}

// renderAnswer writes t as the table script of a table named "answer" —
// what PUT reads back — and returns it with the offset at which each row's
// line starts (plus the end of the last). A row whose condition is false
// belongs to no world and writes nothing: its line is empty. Row i's line is
// copied from prev's text when carry(i) names a row of prev; otherwise
// (always with a nil carry) it is written and its variables counted into
// refs, which must already count the carried rows. The script declares the
// variables with a positive refcount, which are exactly those the written
// rows mention — read from refs instead of scanning the answer.
func renderAnswer(t *pctable.PCTable, refs map[condition.Variable]int, prev *plan, carry func(int) int) (string, []int32) {
	rows := t.Table().Rows()
	var b []byte
	if prev != nil {
		b = make([]byte, 0, len(prev.rendered)+len(prev.rendered)/8)
	}
	b = parser.AppendHeader(b, "answer", t.Arity())
	rowOff := make([]int32, len(rows)+1)
	for i, r := range rows {
		rowOff[i] = int32(len(b))
		if carry != nil {
			if j := carry(i); j >= 0 {
				b = append(b, prev.rendered[prev.rowOff[j]:prev.rowOff[j+1]]...)
				continue
			}
		}
		if _, ok := r.Cond.(condition.FalseCond); !ok {
			b = parser.AppendRow(b, r.Terms, r.Cond)
			addRowVars(refs, r, 1)
		}
	}
	rowOff[len(rows)] = int32(len(b))
	vars := make([]condition.Variable, 0, len(refs))
	for x, n := range refs {
		if n > 0 {
			vars = append(vars, x)
		}
	}
	slices.Sort(vars)
	return string(parser.AppendDecls(b, t, vars)), rowOff
}

// addRowVars adjusts the per-variable row refcounts for one row: each
// distinct variable of the row (term positions and condition alike) counts
// once, mirroring the per-row set semantics of CTable.Vars. A row whose
// condition is false counts nothing, as renderAnswer writes nothing for it.
func addRowVars(refs map[condition.Variable]int, r exec.Row, delta int) {
	if _, ok := r.Cond.(condition.FalseCond); ok {
		return
	}
	var buf [8]condition.Variable
	termVars := buf[:0]
	for _, t := range r.Terms {
		if t.IsVar && !slices.Contains(termVars, t.Var) {
			termVars = append(termVars, t.Var)
			refs[t.Var] += delta
		}
	}
	if _, ok := r.Cond.(condition.TrueCond); ok {
		return // no variables to walk for
	}
	for _, x := range condition.Vars(r.Cond) {
		if !slices.Contains(termVars, x) {
			refs[x] += delta
		}
	}
}
