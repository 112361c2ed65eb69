package exec_test

import (
	"math/rand"
	"strings"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/value"
)

// joinTables builds a small deterministic pair of c-tables for the hash-join
// unit tests: R has ground keys 1..4 plus one variable-keyed row, S has
// ground keys 2..5 plus one variable-keyed row.
func joinTables() ctable.Env {
	dom := value.IntRange(1, 5)
	r := ctable.New(2)
	r.SetDomain("x", dom)
	for i := int64(1); i <= 4; i++ {
		r.AddRow([]condition.Term{condition.ConstInt(i), condition.ConstInt(10 + i)}, nil)
	}
	r.AddRow([]condition.Term{condition.Var("x"), condition.ConstInt(99)}, nil)
	s := ctable.New(2)
	s.SetDomain("y", dom)
	for i := int64(2); i <= 5; i++ {
		s.AddRow([]condition.Term{condition.ConstInt(i), condition.ConstInt(20 + i)}, nil)
	}
	s.AddRow([]condition.Term{condition.Var("y"), condition.ConstInt(88)}, nil)
	return ctable.Env{"R": r, "S": s}
}

var equiJoinQuery = ra.Join(ra.Rel("R"), ra.Rel("S"), ra.Eq(ra.Col(0), ra.Col(2)))

// The symbolic hash join emits exactly the nested-loop rows whose
// conditions are not the constant false: ground-ground matches with true
// conditions, and symbolic residual matches guarded by x=c / c=y / x=y
// equalities. Mod is identical to the nested-loop path.
func TestHashJoinMatchesNestedLoopMod(t *testing.T) {
	env := joinTables()
	hash, err := ctable.EvalQueryEnvWithOptions(equiJoinQuery, env, ctable.Options{Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	loop, err := ctable.EvalQueryEnvWithOptions(equiJoinQuery, env, ctable.Options{Simplify: true, NoHash: true})
	if err != nil {
		t.Fatal(err)
	}
	// The nested loop materializes 5×5 pairs; the hash join only the 3
	// ground matches (keys 2, 3, 4) plus the 5+5−1 pairs involving a
	// variable key on either side.
	if got := len(hash.Rows()); got != 12 {
		t.Errorf("hash join emitted %d rows, want 12\n%s", got, hash)
	}
	if got := len(loop.Rows()); got != 25 {
		t.Errorf("nested loop emitted %d rows, want 25", got)
	}
	for _, row := range hash.Rows() {
		if _, isFalse := row.Cond.(condition.FalseCond); isFalse {
			t.Errorf("hash join emitted a constant-false row: %v", row)
		}
	}
	lhs, err := hash.Mod()
	if err != nil {
		t.Fatal(err)
	}
	rhs, err := loop.Mod()
	if err != nil {
		t.Fatal(err)
	}
	if !lhs.Equal(rhs) {
		t.Fatalf("hash join changed Mod\nhash:\n%s\nloop:\n%s", hash, loop)
	}
}

// Randomized property: on queries mixing joins, σ(×), difference and
// intersection over tables with shared variables, the hash path and the
// nested-loop path represent the same incomplete database as the eager
// evaluator, with rewrites on and off.
func TestHashPathPreservesMod(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 40; trial++ {
		env := ctable.Env{
			"A": randomCTable(rng, 2, 3, []string{"x", "y"}),
			"B": randomCTable(rng, 2, 2, []string{"y", "z"}),
		}
		q := randomQuery(rng, 2, 3)
		eager, err := ctable.EvalQueryEnvEager(q, env, ctable.Options{Simplify: true})
		if err != nil {
			t.Fatalf("trial %d: eager: %v", trial, err)
		}
		want, err := eager.Mod()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, rewrite := range []bool{false, true} {
			res, err := ctable.EvalQueryEnvWithOptions(q, env, ctable.Options{Simplify: true, Rewrite: rewrite})
			if err != nil {
				t.Fatalf("trial %d (rewrite=%v): %v", trial, rewrite, err)
			}
			got, err := res.Mod()
			if err != nil {
				t.Fatalf("trial %d (rewrite=%v): %v", trial, rewrite, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d (rewrite=%v): hash path changed Mod for %s\ngot:\n%s\neager:\n%s",
					trial, rewrite, q, res, eager)
			}
		}
	}
}

// The per-operator counters expose the join strategy: ground probes hit the
// hash table, variable-keyed rows ride the residual bucket.
func TestHashJoinCounters(t *testing.T) {
	env := joinTables()
	var stats exec.OpStats
	if _, err := ctable.EvalQueryEnvWithOptions(equiJoinQuery, env,
		ctable.Options{Simplify: true, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.HashJoins != 1 || stats.NestedLoopJoins != 0 {
		t.Errorf("join strategy counters: %+v, want one hash join", stats)
	}
	// 5 probe rows: 4 ground (hash probes) + 1 variable (full-side scan).
	if stats.HashProbes != 4 {
		t.Errorf("hash probes = %d, want 4", stats.HashProbes)
	}
	// Each ground probe also scans the 1-row residual bucket (4 pairs); the
	// variable probe scans the whole 5-row build side.
	if stats.ResidualHits != 4+5 {
		t.Errorf("residual hits = %d, want 9", stats.ResidualHits)
	}
	if stats.RowsIn != 10 {
		t.Errorf("rows in = %d, want 10 (5 build + 5 probe)", stats.RowsIn)
	}
	if stats.RowsOut != 12 {
		t.Errorf("rows out = %d, want 12", stats.RowsOut)
	}

	stats = exec.OpStats{}
	if _, err := ctable.EvalQueryEnvWithOptions(equiJoinQuery, env,
		ctable.Options{Simplify: true, NoHash: true, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.HashJoins != 0 || stats.NestedLoopJoins != 1 {
		t.Errorf("NoHash strategy counters: %+v, want one nested-loop join", stats)
	}
	if stats.RowsOut != 25 {
		t.Errorf("NoHash rows out = %d, want 25", stats.RowsOut)
	}
}

// A join without cross-side equi conjuncts must fall back to the nested
// loop even on the hash path.
func TestNonEquiJoinFallsBack(t *testing.T) {
	env := joinTables()
	q := ra.Join(ra.Rel("R"), ra.Rel("S"), ra.Ne(ra.Col(0), ra.Col(2)))
	var stats exec.OpStats
	if _, err := ctable.EvalQueryEnvWithOptions(q, env, ctable.Options{Simplify: true, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.HashJoins != 0 || stats.NestedLoopJoins != 1 {
		t.Errorf("non-equi join counters: %+v, want nested-loop fallback", stats)
	}
}

func TestSplitJoinPredicate(t *testing.T) {
	pred := ra.AndOf(
		ra.Eq(ra.Col(0), ra.Col(2)),                     // key
		ra.Eq(ra.Col(3), ra.Col(1)),                     // key, reversed operand sides
		ra.Eq(ra.Col(0), ra.Col(1)),                     // left-only equality: residual
		ra.Eq(ra.Col(2), ra.ConstInt(7)),                // constant equality: residual
		ra.Ne(ra.Col(0), ra.Col(3)),                     // inequality: residual
		ra.OrOf(ra.Eq(ra.Col(0), ra.Col(2)), ra.True()), // disjunction: residual
	)
	keys, residual := exec.SplitJoinPredicate(pred, 2)
	if len(keys) != 2 || keys[0] != (exec.JoinKey{Left: 0, Right: 0}) || keys[1] != (exec.JoinKey{Left: 1, Right: 1}) {
		t.Errorf("keys = %+v", keys)
	}
	if len(residual) != 4 {
		t.Errorf("residual = %d conjuncts (%v), want 4", len(residual), residual)
	}
	if keys2, res2 := exec.SplitJoinPredicate(ra.True(), 2); len(keys2) != 0 || len(res2) != 1 {
		t.Errorf("True split: keys=%v residual=%v", keys2, res2)
	}
}

// Explain renders the physical plan: hash joins with their keys, and the
// pairwise fallbacks when the hash path is off.
func TestExplain(t *testing.T) {
	env := joinTables()
	execEnv := env.ExecEnv()
	plan, err := exec.Explain(equiJoinQuery, execEnv, exec.Options{Simplify: true, Rewrite: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hash-join[$1=$1]") || !strings.Contains(plan, "scan(R)") || !strings.Contains(plan, "scan(S)") {
		t.Errorf("plan missing hash join or scans:\n%s", plan)
	}
	plan, err = exec.Explain(equiJoinQuery, execEnv, exec.Options{Simplify: true, Rewrite: true, NoHash: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "select[") || !strings.Contains(plan, "nested-loop-cross") {
		t.Errorf("NoHash plan missing nested-loop shape:\n%s", plan)
	}
	diffq := ra.Diff(ra.Rel("R"), ra.Rel("S"))
	plan, err = exec.Explain(diffq, execEnv, exec.Options{Simplify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "diff(hash-partitioned)") {
		t.Errorf("diff plan not hash-partitioned:\n%s", plan)
	}
}

// With rewrites off the JoinQ is not normalized to σ over ×, yet it still
// runs as a hash join: the key extraction reads the join predicate
// directly. The serving engine always rewrites; this pins the unrewritten
// path the single-operator ctable functions and maintenance's delta queries
// use.
func TestHashJoinWithoutRewrites(t *testing.T) {
	env := joinTables()
	plan, err := exec.Explain(equiJoinQuery, env.ExecEnv(), exec.Options{Simplify: true, Rewrite: false})
	if err != nil {
		t.Fatal(err)
	}
	if want := "batch-hash-join[$1=$1] pred=$1=$3 build=right\n  batch-scan(R)\n  batch-scan(S)"; plan != want {
		t.Errorf("plan with rewrites off:\n%s\nwant:\n%s", plan, want)
	}
	var stats exec.OpStats
	if _, err := ctable.EvalQueryEnvWithOptions(equiJoinQuery, env,
		ctable.Options{Simplify: true, Rewrite: false, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.HashJoins != 1 || stats.NestedLoopJoins != 0 {
		t.Errorf("ops: %+v, want one hash join", stats)
	}
}
