package exec_test

import (
	"math/rand"
	"sync"
	"testing"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/ctable/eagerref"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/ra"
	"uncertaindb/internal/relation"
	"uncertaindb/internal/value"
)

// plainModel presents a c-table's rows without its memoized encoding, so a
// run encodes it afresh: the reference a memoized table must match.
type plainModel struct{ t *ctable.CTable }

func (p plainModel) Arity() int         { return p.t.Arity() }
func (p plainModel) NumRows() int       { return p.t.NumRows() }
func (p plainModel) Row(i int) exec.Row { return p.t.Row(i) }
func (p plainModel) EachDomain(f func(condition.Variable, *value.Domain)) {
	p.t.EachDomain(f)
}

// answerText renders a run's rows and domains in a canonical order.
func answerText(t *testing.T, q ra.Query, env exec.Env, opts exec.Options) string {
	t.Helper()
	res, err := exec.Run(q, env, opts)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	tab := ctable.FromExecResult(res)
	return tab.String()
}

// TestEncodingMemo pins the per-version encoding: a c-table encodes its
// rows once and every query shares that encoding, a row added after a
// query is seen by the next one, concurrent first queries of one table
// agree, and runs that mix memoized tables, tables encoded afresh and
// constant relations answer exactly as runs over fresh encodings only.
func TestEncodingMemo(t *testing.T) {
	opts := exec.Options{Simplify: true, Rewrite: true}

	t.Run("mutation drops the memo", func(t *testing.T) {
		tab := ctable.New(2)
		tab.AddRow(ctable.VarRow(1, "x"), nil)
		q := ra.Select(ra.Eq(ra.Col(0), ra.ConstInt(2)), ra.Rel("T"))
		env := exec.Env{"T": tab}
		before := answerText(t, q, env, opts)
		first := tab.Encoding()
		answerText(t, q, env, opts)
		if tab.Encoding() != first {
			t.Fatal("a second query re-encoded an unchanged table")
		}
		steps := []struct {
			name string
			add  func()
		}{
			{"AddRow", func() { tab.AddRow(ctable.VarRow(2, "x"), nil) }},
			{"AdoptRow", func() { tab.AdoptRow(ctable.VarRow(2, 7), nil) }},
			{"AddConstRow", func() { tab.AddConstRow(value.Tuple{value.Int(2), value.Int(8)}, nil) }},
		}
		for _, step := range steps {
			step.add()
			got := answerText(t, q, env, opts)
			want := answerText(t, q, exec.Env{"T": plainModel{tab}}, opts)
			if got != want || got == before {
				t.Fatalf("after %s the query answered\n%s\nwant\n%s", step.name, got, want)
			}
			before = got
		}
		if tab.Encoding() == first {
			t.Fatal("adding rows kept the old encoding")
		}
	})

	t.Run("concurrent first use", func(t *testing.T) {
		tab := randomCTable(rand.New(rand.NewSource(21)), 3, 2*exec.BatchSize+7, []string{"x", "y"})
		other := randomCTable(rand.New(rand.NewSource(22)), 2, 12, []string{"y", "z"})
		q := ra.Join(
			ra.Select(ra.OrOf(ra.Eq(ra.Col(1), ra.ConstInt(2)), ra.Ne(ra.Col(2), ra.Col(0))), ra.Rel("T")),
			ra.Rel("U"), ra.Eq(ra.Col(0), ra.Col(3)))
		want := answerText(t, q, exec.Env{"T": plainModel{tab}, "U": plainModel{other}}, opts)
		env := exec.Env{"T": tab, "U": other}
		const goroutines = 8
		got := make([]string, goroutines)
		var start, done sync.WaitGroup
		start.Add(1)
		for g := 0; g < goroutines; g++ {
			done.Add(1)
			go func(g int) {
				defer done.Done()
				start.Wait()
				for i := 0; i < 3; i++ {
					res, err := exec.Run(q, env, exec.Options{Simplify: true, Rewrite: true, Workers: 2})
					if err != nil {
						t.Error(err)
						return
					}
					s := ctable.FromExecResult(res).String()
					if i > 0 && s != got[g] {
						t.Errorf("goroutine %d: answers differ between its own runs", g)
					}
					got[g] = s
				}
			}(g)
		}
		start.Done()
		done.Wait()
		for g, s := range got {
			if s != want {
				t.Fatalf("goroutine %d answered differently from a fresh encoding", g)
			}
		}
	})

	t.Run("join plus constant relation", func(t *testing.T) {
		big := randomCTable(rand.New(rand.NewSource(31)), 2, 2*exec.BatchSize+3, []string{"x", "y"})
		small := randomCTable(rand.New(rand.NewSource(32)), 2, 30, []string{"y", "z"})
		consts := relation.New(2)
		consts.Add(value.Tuple{value.Int(1), value.Int(3)})
		consts.Add(value.Tuple{value.Int(9), value.Str("new")})
		cr := ra.Constant(consts)
		queries := []ra.Query{
			// The larger table lends its dictionary; the smaller one and
			// the constants are interned into the run's overlay.
			ra.Union(ra.Join(ra.Rel("B"), ra.Rel("S"), ra.Eq(ra.Col(1), ra.Col(2))), ra.Cross(cr, cr)),
			// The constant relation is the right side of a difference.
			ra.Diff(ra.Select(ra.Ne(ra.Col(0), ra.ConstInt(2)), ra.Rel("B")), cr),
			// Two names bound to one memoized table.
			ra.Intersect(ra.Union(ra.Rel("S"), cr), ra.Union(ra.Rel("B"), ra.Rel("B2"))),
		}
		envs := map[string]exec.Env{
			"memoized":       {"B": big, "S": small, "B2": big},
			"base memoized":  {"B": big, "S": plainModel{small}, "B2": big},
			"other memoized": {"B": plainModel{big}, "S": small, "B2": plainModel{big}},
		}
		// With the hash path on, the reference is the same run over fresh
		// encodings only; with it off (and no rewrites), the eager
		// evaluator, which shares no encoding code at all.
		plain := exec.Env{"B": plainModel{big}, "S": plainModel{small}, "B2": plainModel{big}}
		eagerEnv := ctable.Env{"B": big, "S": small, "B2": big}
		for _, noHash := range []bool{false, true} {
			o := exec.Options{Simplify: true, Rewrite: !noHash, NoHash: noHash}
			for i, q := range queries {
				want := answerText(t, q, plain, o)
				if noHash {
					eager, err := eagerref.EvalQueryEnv(q, eagerEnv, ctable.Options{Simplify: true})
					if err != nil {
						t.Fatal(err)
					}
					want = eager.String()
				}
				for name, env := range envs {
					if got := answerText(t, q, env, o); got != want {
						t.Fatalf("query %d (%s, noHash=%v): memoized answer differs:\n%s\nwant\n%s", i, name, noHash, got, want)
					}
				}
			}
		}
	})
}

// A selection whose predicate is ground on every row folds without
// building conditions: over a memoized table, selecting the same 10 rows
// out of 2 000 allocates at most a fixed amount per morsel more than out
// of 500, never an amount per row.
func TestSelectFoldAllocs(t *testing.T) {
	q := ra.Select(ra.AndOf(
		ra.Cmp{Left: ra.Col(0), Op: ra.OpLt, Right: ra.ConstInt(10)},
		ra.Ne(ra.Col(1), ra.Const(value.Str("none")))), ra.Rel("T"))
	allocs := func(rows int) float64 {
		tab := ctable.New(3)
		for i := 0; i < rows; i++ {
			tab.AddConstRow(value.Tuple{value.Int(int64(i)), value.Str("c"), value.Int(int64(i % 7))}, nil)
		}
		env := exec.Env{"T": tab}
		opts := exec.Options{Simplify: true, Rewrite: true, Workers: 1}
		res, err := exec.Run(q, env, opts)
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for _, r := range res.Rows {
			if _, ok := r.Cond.(condition.TrueCond); ok {
				kept++
			}
		}
		if kept != 10 {
			t.Fatalf("%d rows: selected %d rows, want 10", rows, kept)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := exec.Run(q, env, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(500), allocs(2000)
	t.Logf("allocs per run: %.0f at 500 rows, %.0f at 2000", small, large)
	const perMorsel = 8
	morsels := (2000+exec.BatchSize-1)/exec.BatchSize - (500+exec.BatchSize-1)/exec.BatchSize
	if extra := large - small; extra > float64(perMorsel*morsels) {
		t.Fatalf("2000 rows allocate %.0f more than 500 (%.0f vs %.0f), over %d per extra morsel",
			extra, large, small, perMorsel)
	}
}
