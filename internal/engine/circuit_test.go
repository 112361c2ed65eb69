package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/parser"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/value"
	"uncertaindb/internal/wal"
)

// sharedScript is a high-sharing answer: every row's lineage conjoins a
// private variable with the shared gate s, so the auto-selector sees many
// tuples with sharing degree well above 1.
func sharedScript(rows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "table Shared arity 1\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "row 'r%03d' | u%d = 1 && s = 1\n", i, i)
	}
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "dist u%d = {0:0.4, 1:0.6}\n", i)
	}
	fmt.Fprintf(&b, "dist s = {0:0.3, 1:0.7}\n")
	return b.String()
}

// chainScript links rows by overlapping variable pairs: ACROSS tuples the
// n+1 variables form one chain, but WITHIN each lineage the two conjuncts
// are variable-disjoint — so per-marginal hardness stays trivial and the
// selector's circuit regime (many tuples, high sharing) applies.
func chainScript(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "table Chain arity 1\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "row 'c%03d' | v%d = 1 && v%d = 1\n", i, i, i+1)
	}
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&b, "dist v%d = {0:0.5, 1:0.5}\n", i)
	}
	return b.String()
}

// TestCircuitEngineMatchesDTree runs the same queries under the circuit
// and enum engines and under the dtree alias. Enumeration shares no
// decomposition with the circuit and is the independent reference, within
// float rounding; dtree names the circuit engine, so it must answer from the
// circuit's cached plan.
func TestCircuitEngineMatchesDTree(t *testing.T) {
	e := newEngine(t, Options{}, takesScript, labsScript, sharedScript(24))
	for _, queryText := range []string{
		"project[1](select[$2 = 'phys'](Takes))",
		"project[1,4](Takes join[$2 = $3] Labs)",
		"project[1](Takes) union project[1](select[$2 = 'chem'](Takes))",
		"Shared",
	} {
		got, err := e.Execute(Request{Query: queryText, Engine: "circuit"})
		if err != nil {
			t.Fatal(err)
		}
		enum, err := e.Execute(Request{Query: queryText, Engine: "enum"})
		if err != nil {
			t.Fatal(err)
		}
		alias, err := e.Execute(Request{Query: queryText, Engine: "dtree"})
		if err != nil {
			t.Fatal(err)
		}
		if got.Effective != KindCircuit {
			t.Fatalf("%s: effective engine %q, want circuit", queryText, got.Effective)
		}
		if alias.Kind != KindCircuit || alias.Effective != KindCircuit || !alias.CacheHit {
			t.Fatalf("%s: dtree = kind %q, effective %q, cache hit %v; want the circuit's cached plan",
				queryText, alias.Kind, alias.Effective, alias.CacheHit)
		}
		if len(got.Tuples) == 0 || len(enum.Tuples) != len(got.Tuples) {
			t.Fatalf("%s: %d circuit and %d enum answers", queryText, len(got.Tuples), len(enum.Tuples))
		}
		for i := range got.Tuples {
			g, n := got.Tuples[i], enum.Tuples[i]
			if n.Tuple.Key() != g.Tuple.Key() || math.Abs(n.P-g.P) > 1e-12 || n.Certain != g.Certain {
				t.Fatalf("%s: answer %d = (%s, %g, %v), enumeration gives (%s, %g, %v)",
					queryText, i, g.Tuple, g.P, g.Certain, n.Tuple, n.P, n.Certain)
			}
		}
	}
	st := e.Stats()
	if st.Probcalc.CircuitCompiles == 0 || st.Probcalc.CircuitNodes == 0 {
		t.Fatalf("circuit executions did not feed the probcalc stats: %+v", st.Probcalc)
	}
}

// tangleTable is a one-row table whose lineage is a single variable-connected
// component of n variables (a conjunction of overlapping disjunction pairs):
// the per-marginal subproblem the selector's Monte-Carlo regime guards
// against.
func tangleTable(n int) *pctable.PCTable {
	pt := pctable.NewWithArity(1)
	juncts := make([]condition.Condition, 0, n-1)
	for i := 0; i+1 < n; i++ {
		juncts = append(juncts, condition.Or(
			condition.IsTrueVar(fmt.Sprintf("w%d", i)),
			condition.IsTrueVar(fmt.Sprintf("w%d", i+1)),
		))
	}
	pt.AddConstRow(value.NewTuple(value.Str("tangled")), condition.And(juncts...))
	for i := 0; i < n; i++ {
		pt.SetBoolDist(fmt.Sprintf("w%d", i), 0.5)
	}
	return pt
}

// TestAutoSelector checks the two regimes of engine=auto: small and large
// answers alike pick the circuit (even when the sharing chains variables
// across tuples), and a lineage whose own variables form one huge connected
// component picks Monte-Carlo — with the selection reported.
func TestAutoSelector(t *testing.T) {
	e := newEngine(t, Options{}, takesScript, sharedScript(24), chainScript(46))
	if _, err := e.PutTable("Tangle", tangleTable(46)); err != nil {
		t.Fatal(err)
	}

	res, err := e.Execute(Request{Query: "project[1](select[$2 = 'phys'](Takes))", Engine: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindAuto || res.Effective != KindCircuit {
		t.Fatalf("small answer: kind %q effective %q, want auto/circuit (selection: %+v)", res.Kind, res.Effective, res.Selection)
	}
	if res.Selection == nil || res.Selection.Chosen != KindCircuit || res.Selection.Reason == "" {
		t.Fatalf("small answer: bad selection %+v", res.Selection)
	}

	res, err = e.Execute(Request{Query: "Shared", Engine: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Effective != KindCircuit {
		t.Fatalf("shared answer: effective %q, want circuit (selection: %+v)", res.Effective, res.Selection)
	}
	if res.Selection.Tuples != 24 || res.Selection.Vars != 25 {
		t.Fatalf("shared answer: bad selection stats %+v", res.Selection)
	}
	// Auto answers must match enumeration, the engine-independent reference.
	enum, err := e.Execute(Request{Query: "Shared", Engine: "enum"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != len(enum.Tuples) {
		t.Fatalf("auto: %d answers, enumeration %d", len(res.Tuples), len(enum.Tuples))
	}
	for i := range res.Tuples {
		if math.Abs(res.Tuples[i].P-enum.Tuples[i].P) > 1e-12 {
			t.Fatalf("auto answer %d = %g, enumeration = %g", i, res.Tuples[i].P, enum.Tuples[i].P)
		}
	}

	// Chain shares variables ACROSS tuples (46 tuples over 47 variables) but
	// each lineage's two conjuncts are variable-disjoint: per-marginal
	// hardness is trivial, so the selector must stay exact, not flee to
	// sampling.
	res, err = e.Execute(Request{Query: "Chain", Engine: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Effective != KindCircuit {
		t.Fatalf("chained answer: effective %q, want circuit (selection: %+v)", res.Effective, res.Selection)
	}
	if res.Selection.MaxComponentVars != 1 || res.Selection.Vars != 47 {
		t.Fatalf("chained answer: bad selection stats %+v", res.Selection)
	}

	res, err = e.Execute(Request{Query: "Tangle", Engine: "auto", Samples: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Effective != KindMC {
		t.Fatalf("tangled answer: effective %q, want mc (selection: %+v)", res.Effective, res.Selection)
	}
	if res.Selection.MaxComponentVars != 46 {
		t.Fatalf("tangled answer: max component %d, want 46", res.Selection.MaxComponentVars)
	}

	st := e.Stats()
	if st.Auto.Circuit != 3 || st.Auto.MC != 1 {
		t.Fatalf("auto selections not counted: %+v", st.Auto)
	}
}

// TestWhatIfDistributions re-evaluates a prepared query under overridden
// distributions. Every exact engine must agree with exact enumeration over
// the overridden answer in tuples, P and Certain flags (an override that
// zeroes outcomes drops a tuple and makes another certain); mc must equal a
// sampler over the overridden answer with the same seed, samples and
// workers; an override restating every declared distribution must answer
// like the plain request; and no override may pollute the cached base
// marginals. The same holds on maintained plans: after an insert patch and
// then a delete, every what-if is served from the maintained plan, whose
// circuit is compiled on the first what-if.
func TestWhatIfDistributions(t *testing.T) {
	e := newEngine(t, Options{Workers: 4}, takesScript)
	const queryText = "project[1](Takes)"
	kinds := []string{"circuit", "enum", "auto"}
	reweight := map[string]map[string]float64{
		"x": {"'math'": 0.6, "'phys'": 0.2, "'chem'": 0.2},
		"t": {"0": 0.9, "1": 0.1},
	}
	narrow := map[string]map[string]float64{
		"x": {"'math'": 1},
		"t": {"1": 1},
	}
	restate := map[string]map[string]float64{
		"x": {"'math'": 0.3, "'phys'": 0.3, "'chem'": 0.4},
		"t": {"0": 0.15, "1": 0.85},
	}
	q, err := parser.ParseQuery(queryText)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, got, want []TupleAnswer, tol float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d answers %v, want %d %v", name, len(got), got, len(want), want)
		}
		for i, g := range got {
			w := want[i]
			if g.Tuple.Key() != w.Tuple.Key() || math.Abs(g.P-w.P) > tol || g.StdErr != w.StdErr || g.Certain != w.Certain {
				t.Fatalf("%s: answer %d = %+v, want %+v", name, i, g, w)
			}
		}
	}
	execute := func(req Request) *Result {
		t.Helper()
		res, err := e.Execute(req)
		if err != nil {
			t.Fatalf("%s %v: %v", req.Engine, req.Distributions, err)
		}
		if res.WhatIf != (req.Distributions != nil) {
			t.Fatalf("%s: WhatIf = %v", req.Engine, res.WhatIf)
		}
		return res
	}

	// whatIfs checks every override at the current catalog version. Every
	// kind's plan is cached (compiled or maintained) before it runs.
	whatIfs := func(stage string) {
		t.Helper()
		base := make(map[string]*Result, len(kinds))
		for _, kind := range kinds {
			base[kind] = execute(Request{Query: queryText, Engine: kind})
			if stage != "compiled" && !base[kind].CacheHit {
				t.Fatalf("%s/%s: base execution missed the maintained plan", stage, kind)
			}
		}

		// The engine's own answer for the query: same algebra options, same
		// lineage syntax, so a sampler over it draws what the engine draws.
		env, err := e.Catalog().Snapshot().Env([]string{"Takes"})
		if err != nil {
			t.Fatal(err)
		}
		answer, err := pctable.EvalQueryEnvWithOptions(q, env, e.algebraOptions())
		if err != nil {
			t.Fatal(err)
		}
		cands, err := answer.Candidates()
		if err != nil {
			t.Fatal(err)
		}
		for name, override := range map[string]map[string]map[string]float64{"reweight": reweight, "narrow": narrow} {
			name = stage + "/" + name
			over, err := overrideTable(&plan{answer: answer}, override)
			if err != nil {
				t.Fatal(err)
			}
			// Exact reference: big.Rat enumeration of each lineage, zeros
			// dropped, certain at 1 within CertainEps.
			var exact []TupleAnswer
			for _, c := range cands {
				r, err := probcalc.EnumProbabilityRat(c.Lineage, over)
				if err != nil {
					t.Fatal(err)
				}
				if p, _ := r.Float64(); p != 0 {
					exact = append(exact, TupleAnswer{Tuple: c.Tuple, P: p, Certain: p >= 1-pctable.CertainEps})
				}
			}
			for _, kind := range kinds {
				res := execute(Request{Query: queryText, Engine: kind, Distributions: override})
				if !res.CacheHit {
					t.Fatalf("%s/%s: what-if missed the cached plan", name, kind)
				}
				check(name+"/"+kind, res.Tuples, exact, 1e-12)
			}

			// mc: bit-identical to a sampler over the overridden answer; every
			// candidate kept, certain only for a lineage that is constant true.
			const samples, seed, workers = 3000, 11, 3
			sampler, err := pctable.NewSampler(over, seed)
			if err != nil {
				t.Fatal(err)
			}
			var sampled []TupleAnswer
			for _, c := range cands {
				p, se, err := sampler.EstimateConditionProbabilityParallel(c.Lineage, samples, workers)
				if err != nil {
					t.Fatal(err)
				}
				_, isTrue := c.Lineage.(condition.TrueCond)
				sampled = append(sampled, TupleAnswer{Tuple: c.Tuple, P: p, StdErr: se, Certain: isTrue})
			}
			res := execute(Request{Query: queryText, Engine: "mc", Samples: samples, Seed: seed, Workers: workers, Distributions: override})
			check(name+"/mc", res.Tuples, sampled, 0)
		}

		// Restating every declared distribution is the plain request.
		for _, kind := range kinds {
			res := execute(Request{Query: queryText, Engine: kind, Distributions: restate})
			check(stage+"/restate/"+kind, res.Tuples, base[kind].Tuples, 1e-12)
		}

		// The what-ifs above must not have perturbed the memoized base answers.
		for _, kind := range kinds {
			again := execute(Request{Query: queryText, Engine: kind})
			if !again.CacheHit {
				t.Fatalf("%s/%s: base re-execution missed the cache", stage, kind)
			}
			check(stage+"/base/"+kind, again.Tuples, base[kind].Tuples, 0)
		}
	}

	whatIfs("compiled")
	if _, err := e.PatchTable("Takes", &wal.Patch{Upserts: []wal.PatchRow{
		newRow(nil, "Dana", "math"),
		{Terms: []condition.Term{condition.Const(value.Str("Eve")), condition.Var("x")}, Cond: condition.IsTrueVar("t")},
	}}); err != nil {
		t.Fatal(err)
	}
	whatIfs("insert")
	if _, err := e.PatchTable("Takes", &wal.Patch{Deletes: []wal.PatchRow{tableRow(t, e, "Takes", 0)}}); err != nil {
		t.Fatal(err)
	}
	whatIfs("delete")
	// Two patches, each maintaining one plan per kind plus the mc plan.
	if st := e.Stats().Maintenance; st.PlansMaintained != 2*uint64(len(kinds)+1) || st.MarginalsRefreshed == 0 {
		t.Fatalf("what-if plans were not maintained: %+v", st)
	}
}

// TestWhatIfValidation: overrides referencing unknown variables, widening
// the support, or not summing to one are ErrBadQuery.
func TestWhatIfValidation(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	const queryText = "project[1](Takes)"
	for name, dists := range map[string]map[string]map[string]float64{
		"unknown variable": {"zzz": {"1": 1.0}},
		"widened support":  {"x": {"'math'": 0.5, "'bio'": 0.5}},
		"bad sum":          {"x": {"'math'": 0.2, "'phys'": 0.2, "'chem'": 0.2}},
		"bad literal":      {"x": {"not a literal!": 1.0}},
	} {
		_, err := e.Execute(Request{Query: queryText, Engine: "circuit", Distributions: dists})
		if !errors.Is(err, ErrBadQuery) {
			t.Fatalf("%s: got %v, want ErrBadQuery", name, err)
		}
	}
}

// TestParseKindListsValidEngines: an unknown engine fails with ErrBadQuery
// and the message enumerates every valid engine, auto included.
func TestParseKindListsValidEngines(t *testing.T) {
	_, err := ParseKind("quantum")
	if !errors.Is(err, ErrBadQuery) {
		t.Fatalf("got %v, want ErrBadQuery", err)
	}
	for _, name := range []string{"auto", "circuit", "dtree", "enum", "mc"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list engine %q", err, name)
		}
	}
	for _, name := range []string{"", "auto", "circuit", "dtree", "enum", "mc"} {
		if _, err := ParseKind(name); err != nil {
			t.Fatalf("ParseKind(%q): %v", name, err)
		}
	}
}

// TestProbcalcStatsAggregate: the circuit counters survive plan teardown by
// accumulating into the engine stats, across distinct queries — the default
// engine and its dtree alias compile one circuit per plan.
func TestProbcalcStatsAggregate(t *testing.T) {
	e := newEngine(t, Options{}, takesScript)
	var last ProbcalcStats
	for i, queryText := range []string{
		"project[1](Takes)",
		"select[$2 = 'phys'](Takes)",
		"project[1](Takes) union project[1](select[$2 = 'chem'](Takes))",
	} {
		for _, kind := range []string{"", "dtree"} {
			if _, err := e.Execute(Request{Query: queryText, Engine: kind}); err != nil {
				t.Fatal(err)
			}
		}
		st := e.Stats().Probcalc
		if st.CircuitCompiles != last.CircuitCompiles+1 || st.CircuitNodes <= last.CircuitNodes {
			t.Fatalf("query %d: circuit totals %+v after %+v, want one more compile", i, st, last)
		}
		last = st
	}
}
