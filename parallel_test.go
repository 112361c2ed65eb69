package uncertaindb

import (
	"fmt"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/pctable"
	"uncertaindb/internal/probcalc"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
	"uncertaindb/internal/workload"
)

// Determinism of morsel-driven parallel execution (acceptance criterion of
// the batch-execution redesign): the same query over inputs large enough to
// split into several morsels must produce the byte-identical answer table —
// same rows, same condition syntax, same ordering — at workers=1, 2 and 8,
// and every exact big.Rat tuple marginal must be bit-identical across
// worker counts. The CI race job runs this under -race, so the parallel
// driver is also exercised for data races. (TestCoreMatchesEagerSyntax in
// internal/exec checks multi-morsel answers against the eager evaluator.)
func TestParallelWorkersDeterministic(t *testing.T) {
	// A join+projection spine over >BatchSize rows: the scan splits into two
	// morsels, the probe pipeline runs them concurrently, and the projection
	// merges groups across the morsel boundary.
	env, join := workload.EquiJoin(1100, 4)
	q := ra.Project([]int{0, 3}, join)
	renderings := make(map[int]string)
	for _, workers := range []int{1, 2, 8} {
		res, err := ctable.EvalQueryEnvWithOptions(q, env,
			ctable.Options{Simplify: true, Rewrite: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		renderings[workers] = res.String()
	}
	if renderings[2] != renderings[1] || renderings[8] != renderings[1] {
		t.Fatal("parallel execution changed the rendered answer (ordering or condition syntax)")
	}

	// Marginals: a symbolic workload with >BatchSize rows but few variables,
	// so exact lineage probabilities are cheap. Row i is guarded by one of
	// four shared variables, every answer tuple's lineage is a disjunction
	// spanning morsel boundaries, and the exact big.Rat marginal must agree
	// bit for bit across worker counts.
	const rows = 1100
	dom := value.IntRange(1, 3)
	tab := ctable.New(2)
	for v := 0; v < 4; v++ {
		tab.SetDomain(fmt.Sprintf("g%d", v), dom)
	}
	for i := 0; i < rows; i++ {
		tab.AddRow(
			[]condition.Term{condition.ConstInt(int64(i % 7)), condition.ConstInt(int64(i % 5))},
			condition.Eq(condition.Var(fmt.Sprintf("g%d", i%4)), condition.ConstInt(1)))
	}
	qm := ra.Project([]int{0},
		ra.Select(ra.Eq(ra.Col(1), ra.ConstInt(2)),
			ra.Join(ra.Rel("T"), ra.Rel("T"),
				ra.AndOf(ra.Eq(ra.Col(0), ra.Col(2)), ra.Eq(ra.Col(1), ra.Col(3))))))
	menv := ctable.Env{"T": tab}
	marginals := make(map[int][]string)
	for _, workers := range []int{1, 2, 8} {
		res, err := ctable.EvalQueryEnvWithOptions(qm, menv,
			ctable.Options{Simplify: true, Rewrite: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		pc, err := pctable.UniformPCTable(res)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		exact := probcalc.NewExact(pc)
		var rats []string
		for k := int64(0); k < 7; k++ {
			rat, err := exact.ProbabilityRat(pc.Lineage(value.NewTuple(value.Int(k))))
			if err != nil {
				t.Fatalf("workers=%d: marginal of (%d): %v", workers, k, err)
			}
			rats = append(rats, rat.RatString())
		}
		marginals[workers] = rats
	}
	want := marginals[1]
	for workers, rats := range marginals {
		for i := range rats {
			if rats[i] != want[i] {
				t.Errorf("workers=%d: marginal of (%d) = %s, workers=1 = %s — not bit-identical",
					workers, i, rats[i], want[i])
			}
		}
	}
}
