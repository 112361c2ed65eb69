package exec_test

import (
	"strings"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/ctable/eagerref"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
	"uncertaindb/internal/workload"
)

// Inputs larger than one morsel exercise the parallel driver proper: the
// E15 equi-join workload at 1500 rows per side splits into several morsels,
// and a projection on top adds a cross-morsel merge. Every worker count must
// produce the byte-identical answer.
func TestBatchMultiMorselDeterministic(t *testing.T) {
	env, join := workload.EquiJoin(1500, 8)
	q := ra.Project([]int{0, 3}, join)
	var want string
	for _, workers := range []int{1, 2, 8} {
		res, err := ctable.EvalQueryEnvWithOptions(q, env,
			ctable.Options{Simplify: true, Rewrite: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := res.String()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d produced a different answer than workers=1", workers)
		}
	}
}

// A shared worker pool bounds the extra goroutines across evaluations
// without changing any answer: with a drained 1-slot pool the run degrades
// to its own goroutine and still produces the byte-identical result.
func TestBatchSharedPoolDeterministic(t *testing.T) {
	env, join := workload.EquiJoin(1100, 4)
	q := ra.Project([]int{0, 3}, join)
	want, err := ctable.EvalQueryEnvWithOptions(q, env,
		ctable.Options{Simplify: true, Rewrite: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, slots := range []int{1, 2} {
		pool := exec.NewWorkerPool(slots)
		got, err := ctable.EvalQueryEnvWithOptions(q, env,
			ctable.Options{Simplify: true, Rewrite: true, Workers: 8, Pool: pool})
		if err != nil {
			t.Fatalf("pool=%d: %v", slots, err)
		}
		if got.String() != want.String() {
			t.Fatalf("pool=%d: pooled run produced a different answer", slots)
		}
	}
}

// The operator counters are pinned on the hash-join unit query (see
// TestHashJoinCounters for what each value means), together with the work
// units of the vectorized driver: the 5-row probe side is one morsel pushed
// through one stage. No counter depends on the worker count.
func TestBatchCountersMatchTuple(t *testing.T) {
	env := joinTables()
	want := exec.OpStats{RowsIn: 10, RowsOut: 12, HashJoins: 1, HashProbes: 4, ResidualHits: 9, Batches: 1, Morsels: 1}
	for _, workers := range []int{1, 4} {
		var got exec.OpStats
		if _, err := ctable.EvalQueryEnvWithOptions(equiJoinQuery, env,
			ctable.Options{Simplify: true, Workers: workers, Stats: &got}); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers=%d: counters %+v, want %+v", workers, got, want)
		}
	}
}

// Errors surface exactly as the eager evaluator reports them: an ordering
// comparison applied to a variable term fails with the same message.
func TestBatchErrorParity(t *testing.T) {
	tab := ctable.New(1)
	tab.SetDomain("x", value.IntRange(1, 3))
	tab.AddRow([]condition.Term{condition.Var("x")}, nil)
	q := ra.Select(ra.Cmp{Left: ra.Col(0), Op: ra.OpLt, Right: ra.ConstInt(2)}, ra.Rel("T"))
	env := ctable.Env{"T": tab}
	_, batchErr := ctable.EvalQueryEnvWithOptions(q, env, ctable.Options{Simplify: true})
	_, eagerErr := eagerref.EvalQueryEnv(q, env, ctable.Options{Simplify: true})
	if batchErr == nil || eagerErr == nil {
		t.Fatalf("expected errors, got batch=%v eager=%v", batchErr, eagerErr)
	}
	if batchErr.Error() != eagerErr.Error() {
		t.Errorf("error mismatch:\nbatch: %v\neager: %v", batchErr, eagerErr)
	}
	if !strings.Contains(batchErr.Error(), "ordering comparison") {
		t.Errorf("unexpected error: %v", batchErr)
	}
}

// Explain marks every operator as executed by the batch engine.
func TestExplainBatchPrefix(t *testing.T) {
	env := joinTables().ExecEnv()
	plan, err := exec.Explain(equiJoinQuery, env, exec.Options{Simplify: true, Rewrite: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "batch-hash-join[$1=$1]") || !strings.Contains(plan, "batch-scan(R)") {
		t.Errorf("batch plan missing batch operators:\n%s", plan)
	}
}

// Sanity for the benchmark workload shapes: the batch hash join on the
// equi-join workload emits the same row multiset as the eager evaluator's
// non-false rows at every measured size.
func TestBatchEquiJoinAgainstEager(t *testing.T) {
	for _, rows := range []int{64, 300} {
		env, q := workload.EquiJoin(rows, 4)
		batch, err := ctable.EvalQueryEnvWithOptions(q, env, ctable.Options{Simplify: true, Rewrite: true})
		if err != nil {
			t.Fatal(err)
		}
		eager, err := eagerref.EvalQueryEnv(q, env, ctable.Options{Simplify: true})
		if err != nil {
			t.Fatal(err)
		}
		kept := make(map[string]int)
		for _, r := range eager.Rows() {
			if _, isFalse := r.Cond.(condition.FalseCond); !isFalse {
				kept[r.String()]++
			}
		}
		for _, r := range batch.Rows() {
			key := r.String()
			if kept[key] == 0 {
				t.Fatalf("rows=%d: batch emitted %s absent from eager's non-false rows", rows, key)
			}
			kept[key]--
		}
		for key, n := range kept {
			if n != 0 {
				t.Fatalf("rows=%d: batch dropped %d copies of %s", rows, n, key)
			}
		}
	}
}
