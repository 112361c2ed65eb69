package uncertaindb

// Incremental-maintenance acceptance: randomized patch streams driven
// through maintained engines for two request engines, a follower tailing
// the patched leader, and an independently patched shadow state. At every
// catalog version, the delta-maintained answer must be byte-identical (rows,
// conditions, order) to a from-scratch recompile over the same catalog, with
// the same effective engine and auto-selector decision, the
// maintained marginals must match the exact big.Rat ground truth of an eager
// evaluation over the shadow state, and the patched catalog's canonical
// table encodings must equal the shadow's to the byte. The plan-option grid
// (rewrites × hash path) lives below the engine (exec options) and is
// covered by the operator-core grid test in equivalence_test.go; the axis
// here is the request engine: the default and "auto".

import (
	"flag"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"uncertaindb/internal/catalog"
	"uncertaindb/internal/condition"
	"uncertaindb/internal/engine"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/value"
	"uncertaindb/internal/wal"
)

var updatePatchGolden = flag.Bool("update-patch-golden", false, "rewrite testdata/golden/patch-workload.golden")

const maintRScript = `table R arity 2
row 'a1', x
row 'a2', 'u' | x = 'u'
row 'a3', y
dist x = {'u':0.5, 'v':0.5}
dist y = {'u':0.25, 'v':0.75}
`

const maintSScript = `table S arity 2
row 'a1', 'u'
row 'b1', z | z = 'u'
dist z = {'u':0.375, 'v':0.625}
`

// maintQueries covers the maintenance strategies: append-safe shapes, shapes
// forced to re-evaluate, and a non-monotone query forced to recompile.
var maintQueries = []string{
	"select[$2 = 'u'](R)",
	"project[1](R)",
	"project[1,4](R join[$2 = $3] S)",
	"S union R",
	"R minus S",
}

// newMaintEngine builds an engine over a fresh catalog holding R and S.
func newMaintEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(catalog.New(), engine.Options{})
	for _, script := range []string{maintRScript, maintSScript} {
		pt, err := parser.ParseTableString(script)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.PutTable(pt.Name, pt.PCTable); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// currentRows reads the exact row identities of a catalog table, for
// building delete patches that match.
func currentRows(t *testing.T, e *engine.Engine, table string) []wal.PatchRow {
	t.Helper()
	ent := e.Catalog().Snapshot().Get(table)
	if ent == nil {
		t.Fatalf("no table %s", table)
	}
	rows := ent.Table.Table().Rows()
	out := make([]wal.PatchRow, len(rows))
	for i, r := range rows {
		out[i] = wal.PatchRow{Terms: r.Terms, Cond: r.Cond}
	}
	return out
}

// patchGen produces a deterministic random patch stream over table R:
// upserts with constant and variable cells under random conditions,
// deletes of live rows, and occasional fresh variables with dyadic
// distributions (so every exact marginal is a dyadic rational and the
// float64 engines are exactly comparable to the big.Rat ground truth).
type patchGen struct {
	rng   *rand.Rand
	vars  []string
	fresh int
}

func newPatchGen(seed int64) *patchGen {
	return &patchGen{rng: rand.New(rand.NewSource(seed)), vars: []string{"x", "y"}}
}

func (g *patchGen) randTerm() condition.Term {
	if g.rng.Intn(2) == 0 {
		return condition.Const(value.Str([]string{"u", "v"}[g.rng.Intn(2)]))
	}
	return condition.Var(g.vars[g.rng.Intn(len(g.vars))])
}

func (g *patchGen) randCond() condition.Condition {
	v := condition.Var(g.vars[g.rng.Intn(len(g.vars))])
	u := condition.Const(value.Str("u"))
	switch g.rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return condition.Eq(v, u)
	default:
		return condition.Neq(v, u)
	}
}

func (g *patchGen) next(t *testing.T, live []wal.PatchRow) *wal.Patch {
	t.Helper()
	p := &wal.Patch{}
	if len(live) > 0 && g.rng.Intn(3) == 0 {
		p.Deletes = append(p.Deletes, live[g.rng.Intn(len(live))])
	}
	for n := 1 + g.rng.Intn(2); n > 0; n-- {
		name := fmt.Sprintf("r%02d", g.rng.Intn(30))
		p.Upserts = append(p.Upserts, wal.PatchRow{
			Terms: []condition.Term{condition.Const(value.Str(name)), g.randTerm()},
			Cond:  g.randCond(),
		})
	}
	if g.rng.Intn(4) == 0 {
		w := fmt.Sprintf("w%d", g.fresh)
		g.fresh++
		pu := float64(1+g.rng.Intn(7)) / 8
		sp, err := prob.NewValueSpace(map[value.Value]float64{value.Str("u"): pu, value.Str("v"): 1 - pu})
		if err != nil {
			t.Fatal(err)
		}
		p.Dists = append(p.Dists, wal.DistPatch{Var: w, Dist: sp})
		p.Upserts = append(p.Upserts, wal.PatchRow{
			Terms: []condition.Term{condition.Const(value.Str("w-" + w)), condition.Var(w)},
			Cond:  condition.Eq(condition.Var(w), condition.Const(value.Str("u"))),
		})
		g.vars = append(g.vars, w)
	}
	return p
}

// exactAnswerRats eagerly evaluates q over env and returns the exact
// rational marginal of every possible answer tuple, keyed by tuple key.
func exactAnswerRats(t *testing.T, q string, env pctable.Env) map[string]string {
	t.Helper()
	pq, err := parser.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := pctable.EvalQueryEnv(pq, env)
	if err != nil {
		t.Fatalf("eager %s: %v", q, err)
	}
	possible, err := answer.PossibleTuples()
	if err != nil {
		t.Fatal(err)
	}
	exact := probcalc.NewExact(answer)
	out := make(map[string]string)
	for _, tp := range possible {
		r, err := exact.ProbabilityRat(answer.Lineage(tp))
		if err != nil {
			t.Fatalf("eager %s, tuple %s: %v", q, tp, err)
		}
		out[tp.Key()] = r.RatString()
	}
	return out
}

// assertMaintainedEqualsFresh executes req on the maintained engine and on a
// fresh engine sharing its catalog, requiring byte-identical answers that
// are table scripts (assertAnswerIsTable) and plans, the same effective engine and selector decision, and bit-identical
// tuple marginals.
func assertMaintainedEqualsFresh(t *testing.T, e *engine.Engine, req engine.Request, label string) *engine.Result {
	t.Helper()
	got, err := e.Execute(req)
	if err != nil {
		t.Fatalf("%s: maintained execute %s: %v", label, req.Query, err)
	}
	want, err := engine.New(e.Catalog(), engine.Options{}).Execute(req)
	if err != nil {
		t.Fatalf("%s: fresh execute %s: %v", label, req.Query, err)
	}
	if got.Answer != want.Answer {
		t.Errorf("%s: %s: maintained answer differs from recompile:\n got: %s\nwant: %s", label, req.Query, got.Answer, want.Answer)
	}
	assertAnswerIsTable(t, label+": "+req.Query, got.Answer)
	if got.Plan != want.Plan {
		t.Errorf("%s: %s: maintained plan differs:\n got: %s\nwant: %s", label, req.Query, got.Plan, want.Plan)
	}
	if got.CatalogVersion != want.CatalogVersion {
		t.Errorf("%s: %s: catalog version %d != %d", label, req.Query, got.CatalogVersion, want.CatalogVersion)
	}
	if got.Effective != want.Effective {
		t.Errorf("%s: %s: maintained plan ran engine %s, recompile %s", label, req.Query, got.Effective, want.Effective)
	}
	if !reflect.DeepEqual(got.Selection, want.Selection) {
		t.Errorf("%s: %s: maintained selection differs:\n got: %+v\nwant: %+v", label, req.Query, got.Selection, want.Selection)
	}
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %s: %d tuples, recompile has %d", label, req.Query, len(got.Tuples), len(want.Tuples))
	}
	for i := range got.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if g.Tuple.Key() != w.Tuple.Key() || math.Float64bits(g.P) != math.Float64bits(w.P) || g.Certain != w.Certain {
			t.Errorf("%s: %s: tuple %d = (%s, %v, certain=%v), recompile (%s, %v, certain=%v)",
				label, req.Query, i, g.Tuple, g.P, g.Certain, w.Tuple, w.P, w.Certain)
		}
	}
	return got
}

// assertMatchesExact checks a maintained result against the eager big.Rat
// ground truth: every positive-marginal tuple appears on both sides with the
// engine's float64 marginal equal to the rational's float64 image, and
// rational-1 tuples are reported certain.
func assertMatchesExact(t *testing.T, res *engine.Result, rats map[string]string, label, query string) {
	t.Helper()
	byKey := make(map[string]engine.TupleAnswer, len(res.Tuples))
	for _, ta := range res.Tuples {
		byKey[ta.Tuple.Key()] = ta
		if ta.P > 0 {
			if _, ok := rats[ta.Tuple.Key()]; !ok {
				t.Errorf("%s: %s: engine tuple %s (P=%v) not possible under eager evaluation", label, query, ta.Tuple, ta.P)
			}
		}
	}
	one := big.NewRat(1, 1)
	for key, rs := range rats {
		rat, ok := new(big.Rat).SetString(rs)
		if !ok {
			t.Fatalf("bad rat %q", rs)
		}
		f, _ := rat.Float64()
		if f == 0 {
			continue
		}
		ta, ok := byKey[key]
		if !ok {
			t.Errorf("%s: %s: eager tuple %s (P=%s) missing from maintained answer", label, query, key, rs)
			continue
		}
		if math.Abs(ta.P-f) > 1e-9 {
			t.Errorf("%s: %s: tuple %s: maintained P %.17g vs exact %s (%.17g)", label, query, key, ta.P, rs, f)
		}
		if rat.Cmp(one) == 0 && !ta.Certain {
			t.Errorf("%s: %s: tuple %s has exact marginal 1 but is not reported certain", label, query, key)
		}
	}
}

// TestPatchStreamEquivalence is the randomized acceptance property: for
// every prefix of a random patch stream, for the default and the "auto"
// request engine, the maintained engines, a fresh recompile, a follower
// tailing the leader's change feed, and the eager shadow evaluation all
// agree exactly.
func TestPatchStreamEquivalence(t *testing.T) {
	type cell struct {
		kind string // request engine
		e    *engine.Engine
	}
	for _, seed := range []int64{7, 8} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var cells []cell
			for _, kind := range []string{"", "auto"} {
				cells = append(cells, cell{kind, newMaintEngine(t)})
			}
			leader := cells[0].e

			// The follower replays the leader's records through the same
			// ApplyChange path a live replica uses.
			follower := engine.New(catalog.New(), engine.Options{})
			w, err := leader.Catalog().Watch(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			catchUp := func(upTo uint64) {
				t.Helper()
				for follower.Catalog().Version() < upTo {
					rec := <-w.C()
					if err := follower.ApplyChange(rec); err != nil {
						t.Fatalf("follower apply v%d: %v", rec.Version, err)
					}
				}
			}
			catchUp(leader.Catalog().Version())

			// The shadow state applies patches with wal.ApplyPatchToTable
			// directly — no catalog, no engine — as ground truth.
			shadow := make(pctable.Env)
			for _, script := range []string{maintRScript, maintSScript} {
				pt, err := parser.ParseTableString(script)
				if err != nil {
					t.Fatal(err)
				}
				shadow[pt.Name] = pt.PCTable
			}

			// Warm every plan cache so the patches have plans to maintain.
			for _, c := range cells {
				for _, q := range maintQueries {
					if _, err := c.e.Execute(engine.Request{Query: q, Engine: c.kind}); err != nil {
						t.Fatalf("prime %s: %v", q, err)
					}
				}
			}
			for _, q := range maintQueries {
				if _, err := follower.Execute(engine.Request{Query: q}); err != nil {
					t.Fatalf("follower prime %s: %v", q, err)
				}
			}

			gen := newPatchGen(seed)
			const steps = 6
			for step := 0; step < steps; step++ {
				p := gen.next(t, currentRows(t, leader, "R"))

				ap, err := wal.ApplyPatchToTable(shadow["R"], p)
				if err != nil {
					t.Fatalf("step %d: shadow apply: %v", step, err)
				}
				shadow["R"] = ap.New

				var v uint64
				for _, c := range cells {
					if v, err = c.e.PatchTable("R", p); err != nil {
						t.Fatalf("step %d: patch: %v", step, err)
					}
				}
				catchUp(v)

				// Patched catalog state is byte-identical to the shadow.
				ent := leader.Catalog().Snapshot().Get("R")
				if got, want := parser.Script("R", ent.Table), parser.Script("R", shadow["R"]); got != want {
					t.Fatalf("step %d: catalog R (%d bytes) differs from shadow (%d bytes)", step, len(got), len(want))
				}

				for _, q := range maintQueries {
					rats := exactAnswerRats(t, q, shadow)
					var leaderRes *engine.Result
					for i, c := range cells {
						label := fmt.Sprintf("step %d engine=%q", step, c.kind)
						res := assertMaintainedEqualsFresh(t, c.e, engine.Request{Query: q, Engine: c.kind}, label)
						assertMatchesExact(t, res, rats, label, q)
						if i == 0 {
							leaderRes = res
						}
					}
					fres := assertMaintainedEqualsFresh(t, follower, engine.Request{Query: q}, fmt.Sprintf("step %d follower", step))
					if fres.Answer != leaderRes.Answer || fres.CatalogVersion != leaderRes.CatalogVersion {
						t.Errorf("step %d: %s: follower diverged from leader:\nleader:   %s @%d\nfollower: %s @%d",
							step, q, leaderRes.Answer, leaderRes.CatalogVersion, fres.Answer, fres.CatalogVersion)
					}
				}
			}

			for _, c := range cells {
				st := c.e.Stats().Maintenance
				if st.PatchesApplied != steps {
					t.Errorf("engine=%q: patchesApplied = %d, want %d", c.kind, st.PatchesApplied, steps)
				}
				if st.PlansMaintained == 0 {
					t.Errorf("engine=%q: no plans maintained", c.kind)
				}
			}
			if st := follower.Stats().Maintenance; st.PlansMaintained == 0 {
				t.Error("follower maintained no plans")
			}
		})
	}
}

// goldenPatchWorkload is the checked-in deterministic patch workload: patch
// scripts exercising upserts (constant, variable, duplicate no-op), a
// conditioned delete, and a fresh distribution.
var goldenPatchWorkload = []string{
	"upsert 'a4', 'u'\n",
	"upsert 'a5', y | y = 'v'\ndist w = {'u':0.125, 'v':0.875}\nupsert 'a6', w | w = 'u'\n",
	"delete 'a2', 'u' | x = 'u'\n",
	"delete 'a4', 'u'\nupsert 'a7', x\n",
	"upsert 'a1', x\n", // duplicate of a live row: insert-if-absent no-op
}

// renderPatchWorkload drives the golden workload through e (priming the
// plan cache first, patching, re-querying warm) and renders every version's
// answers plus the exact rational marginals from an eager shadow evaluation.
func renderPatchWorkload(t *testing.T, e *engine.Engine) string {
	t.Helper()
	shadow := make(pctable.Env)
	for _, script := range []string{maintRScript, maintSScript} {
		pt, err := parser.ParseTableString(script)
		if err != nil {
			t.Fatal(err)
		}
		shadow[pt.Name] = pt.PCTable
	}
	for _, q := range maintQueries {
		if _, err := e.Execute(engine.Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	for i, script := range goldenPatchWorkload {
		p, err := parser.ParsePatchString(script)
		if err != nil {
			t.Fatalf("patch %d: %v", i, err)
		}
		ap, err := wal.ApplyPatchToTable(shadow["R"], p)
		if err != nil {
			t.Fatalf("patch %d: shadow: %v", i, err)
		}
		shadow["R"] = ap.New
		v, err := e.PatchTable("R", p)
		if err != nil {
			t.Fatalf("patch %d: %v", i, err)
		}
		fmt.Fprintf(&sb, "== version %d (patch %d)\n", v, i+1)
		for _, q := range maintQueries {
			res, err := e.Execute(engine.Request{Query: q})
			if err != nil {
				t.Fatalf("patch %d: %s: %v", i, q, err)
			}
			rats := exactAnswerRats(t, q, shadow)
			fmt.Fprintf(&sb, "-- query: %s\n%s\n", q, res.Answer)
			for _, ta := range res.Tuples {
				rs := rats[ta.Tuple.Key()]
				if rs == "" {
					rs = "0"
				}
				fmt.Fprintf(&sb, "tuple %s P=%.17g certain=%v exact=%s\n", ta.Tuple.Key(), ta.P, ta.Certain, rs)
			}
		}
	}
	return sb.String()
}

// TestGoldenPatchWorkload replays the checked-in patch workload on a leader
// and on a follower tailing its change feed: both renderings must be
// byte-identical to each other and to testdata/golden/patch-workload.golden.
// Regenerate with `go test . -run TestGoldenPatchWorkload -update-patch-golden`
// and review the diff — a change here is a maintenance-semantics change.
func TestGoldenPatchWorkload(t *testing.T) {
	leader := newMaintEngine(t)
	w, err := leader.Catalog().Watch(0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	got := renderPatchWorkload(t, leader)

	// A follower replaying the leader's feed through ApplyChange and serving
	// the same queries warm must render the leader's exact answers. The two
	// puts precede every patch in the feed, so applying them eagerly and
	// deferring the patch records keeps versions contiguous.
	follower := engine.New(catalog.New(), engine.Options{})
	var replay []*wal.Record
	for i := uint64(0); i < leader.Catalog().Version(); i++ {
		rec := <-w.C()
		if rec.Kind == wal.KindPatch {
			replay = append(replay, rec)
			continue
		}
		if err := follower.ApplyChange(rec); err != nil {
			t.Fatalf("follower apply v%d: %v", rec.Version, err)
		}
	}
	// Replay the patch records interactively: prime, then apply + query as
	// renderPatchWorkload does, so the renderings are comparable.
	fGot := renderFollowerWorkload(t, follower, replay)
	if got != fGot {
		t.Errorf("follower rendering differs from leader:\nleader:\n%s\nfollower:\n%s", got, fGot)
	}

	path := filepath.Join("testdata", "golden", "patch-workload.golden")
	if *updatePatchGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-patch-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden patch workload drifted from %s:\n got %d bytes\nwant %d bytes\n%s", path, len(got), len(want), got)
	}
}

// renderFollowerWorkload mirrors renderPatchWorkload but sources each patch
// from replayed leader records instead of applying locally.
func renderFollowerWorkload(t *testing.T, e *engine.Engine, recs []*wal.Record) string {
	t.Helper()
	shadow := make(pctable.Env)
	for _, script := range []string{maintRScript, maintSScript} {
		pt, err := parser.ParseTableString(script)
		if err != nil {
			t.Fatal(err)
		}
		shadow[pt.Name] = pt.PCTable
	}
	for _, q := range maintQueries {
		if _, err := e.Execute(engine.Request{Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	patchNo := 0
	for _, rec := range recs {
		if rec.Kind != wal.KindPatch {
			continue
		}
		patchNo++
		ap, err := wal.ApplyPatchToTable(shadow["R"], rec.Patch)
		if err != nil {
			t.Fatalf("patch %d: shadow: %v", patchNo, err)
		}
		shadow["R"] = ap.New
		if err := e.ApplyChange(rec); err != nil {
			t.Fatalf("patch %d: apply: %v", patchNo, err)
		}
		fmt.Fprintf(&sb, "== version %d (patch %d)\n", rec.Version, patchNo)
		for _, q := range maintQueries {
			res, err := e.Execute(engine.Request{Query: q})
			if err != nil {
				t.Fatalf("patch %d: %s: %v", patchNo, q, err)
			}
			rats := exactAnswerRats(t, q, shadow)
			fmt.Fprintf(&sb, "-- query: %s\n%s\n", q, res.Answer)
			for _, ta := range res.Tuples {
				rs := rats[ta.Tuple.Key()]
				if rs == "" {
					rs = "0"
				}
				fmt.Fprintf(&sb, "tuple %s P=%.17g certain=%v exact=%s\n", ta.Tuple.Key(), ta.P, ta.Certain, rs)
			}
		}
	}
	return sb.String()
}

// catchUpEngines are the request engines the catch-up grid covers: the
// exact circuit, enumeration, Monte-Carlo (few samples, fixed seed) and the
// auto selector.
var catchUpEngines = []engine.Request{
	{Engine: "circuit"},
	{Engine: "enum"},
	{Engine: "mc", Samples: 300, Seed: 5},
	{Engine: "auto"},
}

// catchUpPatch returns the step-th patch of a grid sequence over R: with
// dist set, a row over a fresh variable with its distribution; otherwise, at
// random, an insert of fresh rows, a delete of a live row, or an upsert of a
// live row (a no-op).
func catchUpPatch(t *testing.T, g *patchGen, step int, dist bool, live []wal.PatchRow) *wal.Patch {
	t.Helper()
	kind := g.rng.Intn(5)
	if dist {
		kind = -1
	}
	switch kind {
	case 0:
		if len(live) > 0 {
			return &wal.Patch{Deletes: []wal.PatchRow{live[g.rng.Intn(len(live))]}}
		}
	case 1:
		if len(live) > 0 {
			return &wal.Patch{Upserts: []wal.PatchRow{live[g.rng.Intn(len(live))]}}
		}
	case -1:
		w := fmt.Sprintf("w%d", g.fresh)
		g.fresh++
		pu := float64(1+g.rng.Intn(7)) / 8
		sp, err := prob.NewValueSpace(map[value.Value]float64{value.Str("u"): pu, value.Str("v"): 1 - pu})
		if err != nil {
			t.Fatal(err)
		}
		g.vars = append(g.vars, w)
		return &wal.Patch{
			Dists: []wal.DistPatch{{Var: w, Dist: sp}},
			Upserts: []wal.PatchRow{{
				Terms: []condition.Term{condition.Const(value.Str("w-" + w)), condition.Var(w)},
				Cond:  condition.Eq(condition.Var(w), condition.Const(value.Str("u"))),
			}},
		}
	}
	p := &wal.Patch{}
	for n := 1 + g.rng.Intn(2); n > 0; n-- {
		p.Upserts = append(p.Upserts, wal.PatchRow{
			Terms: []condition.Term{condition.Const(value.Str(fmt.Sprintf("i%02d", step))), g.randTerm()},
			Cond:  g.randCond(),
		})
	}
	return p
}

// enumAnswerRats eagerly evaluates q over env and returns the marginal of
// every possible answer tuple by big.Rat enumeration of its lineage's
// valuations, keyed by tuple key.
func enumAnswerRats(t *testing.T, q string, env pctable.Env) map[string]*big.Rat {
	t.Helper()
	pq, err := parser.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := pctable.EvalQueryEnv(pq, env)
	if err != nil {
		t.Fatalf("eager %s: %v", q, err)
	}
	possible, err := answer.PossibleTuples()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*big.Rat, len(possible))
	for _, tp := range possible {
		if out[tp.Key()], err = probcalc.EnumProbabilityRat(answer.Lineage(tp), answer); err != nil {
			t.Fatalf("eager %s, tuple %s: %v", q, tp, err)
		}
	}
	return out
}

// TestCatchUpDistanceGrid: with k = 1…8 patches between reads — inserts,
// deletes and no-op upserts, a distribution-adding patch opening the second
// round of every even k, and a put of S within the second round of every
// third k — every cached plan a read catches up, for every
// request engine, on the leader and on a follower applying the leader's
// change feed, equals a fresh compile in answer, plan, effective engine,
// selection and marginals, and every exact marginal is the float64 image of
// the big.Rat enumeration marginal, bit for bit (all distributions are
// dyadic).
func TestCatchUpDistanceGrid(t *testing.T) {
	var leaderTotals engine.MaintenanceStats
	for k := 1; k <= 8; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			leader := newMaintEngine(t)
			follower := engine.New(catalog.New(), engine.Options{})
			w, err := leader.Catalog().Watch(0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			catchUp := func() {
				t.Helper()
				for follower.Catalog().Version() < leader.Catalog().Version() {
					if err := follower.ApplyChange(<-w.C()); err != nil {
						t.Fatal(err)
					}
				}
			}
			shadow := make(pctable.Env)
			for _, script := range []string{maintRScript, maintSScript} {
				pt, err := parser.ParseTableString(script)
				if err != nil {
					t.Fatal(err)
				}
				shadow[pt.Name] = pt.PCTable
			}
			catchUp()

			read := func(round int) {
				t.Helper()
				for _, q := range maintQueries {
					rats := enumAnswerRats(t, q, shadow)
					for _, base := range catchUpEngines {
						req := base
						req.Query = q
						label := fmt.Sprintf("round %d engine=%s", round, req.Engine)
						lres := assertMaintainedEqualsFresh(t, leader, req, "leader "+label)
						fres := assertMaintainedEqualsFresh(t, follower, req, "follower "+label)
						if fres.Answer != lres.Answer || fres.CatalogVersion != lres.CatalogVersion {
							t.Errorf("%s: %s: follower diverged from leader", label, q)
						}
						if lres.Effective == engine.KindMC {
							continue
						}
						for _, ta := range lres.Tuples {
							f, _ := rats[ta.Tuple.Key()].Float64()
							if rats[ta.Tuple.Key()] == nil || math.Float64bits(ta.P) != math.Float64bits(f) {
								t.Errorf("%s: %s: tuple %s P=%.17g, enumeration %v", label, q, ta.Tuple, ta.P, rats[ta.Tuple.Key()])
							}
						}
					}
				}
			}
			read(0) // compiles and caches every plan

			gen := newPatchGen(int64(100 + k))
			for round := 1; round <= 2; round++ {
				for step := 0; step < k; step++ {
					if k%3 == 0 && round == 2 && step == k/2 {
						s := shadow["S"].Copy()
						if _, err := leader.PutTable("S", s); err != nil {
							t.Fatal(err)
						}
						shadow["S"] = s
						continue
					}
					dist := round == 2 && k%2 == 0 && step == 0
					p := catchUpPatch(t, gen, step, dist, currentRows(t, leader, "R"))
					ap, err := wal.ApplyPatchToTable(shadow["R"], p)
					if err != nil {
						t.Fatalf("round %d step %d: shadow: %v", round, step, err)
					}
					shadow["R"] = ap.New
					if _, err := leader.PatchTable("R", p); err != nil {
						t.Fatalf("round %d step %d: %v", round, step, err)
					}
				}
				catchUp()
				read(round)
			}
			st := leader.Stats().Maintenance
			leaderTotals.DeltaAppends += st.DeltaAppends
			leaderTotals.Reevaluations += st.Reevaluations
			leaderTotals.ForcedDistsChanged += st.ForcedDistsChanged
		})
	}
	if leaderTotals.DeltaAppends == 0 || leaderTotals.Reevaluations == 0 || leaderTotals.ForcedDistsChanged == 0 {
		t.Errorf("the grid did not exercise every catch-up outcome: %+v", leaderTotals)
	}
}
