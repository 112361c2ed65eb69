package exec_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uncertaindb/internal/ctable"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/ra"
)

var updateAnalyze = flag.Bool("update-analyze", false, "rewrite testdata/golden/analyze.json")

// analyzeGridQuery exercises a join (hash or nested-loop depending on
// options), a selection and a projection — every operator class whose label
// and counters the analyzed plan reports.
var analyzeGridQuery = ra.Project([]int{1, 3},
	ra.Select(ra.Eq(ra.Col(0), ra.Col(2)),
		ra.Join(ra.Rel("R"), ra.Rel("S"), ra.True())))

// The analyzed plan tree is deterministic once timings are zeroed: operator
// labels, row/probe/residual counters and tree shape depend only on the
// (rewrites × hash) configuration, never on scheduling. The golden file pins
// all four configurations; every configuration is also executed twice and
// must marshal byte-identically run-to-run.
func TestAnalyzeGolden(t *testing.T) {
	env := joinTables().ExecEnv()
	type entry struct {
		Config string         `json:"config"`
		Plan   *exec.PlanNode `json:"plan"`
	}
	var entries []entry
	for _, rewrite := range []bool{false, true} {
		for _, hash := range []bool{false, true} {
			opts := exec.Options{
				Simplify: true,
				Rewrite:  rewrite,
				NoHash:   !hash,
				Workers:  1, // deterministic morsel counts
			}
			name := fmt.Sprintf("rewrite=%v/hash=%v", rewrite, hash)
			run := func() []byte {
				an, err := exec.Analyze(analyzeGridQuery, env, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				an.ZeroTimings()
				data, err := json.MarshalIndent(an, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			first, second := run(), run()
			if !bytes.Equal(first, second) {
				t.Errorf("%s: analyzed plan differs between identical runs:\n%s\n---\n%s", name, first, second)
			}
			var plan exec.PlanNode
			if err := json.Unmarshal(first, &plan); err != nil {
				t.Fatal(err)
			}
			entries = append(entries, entry{Config: name, Plan: &plan})
		}
	}
	got, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", "analyze.json")
	if *updateAnalyze {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-analyze to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("analyzed plans diverge from golden (regenerate with -update-analyze and review):\ngot:\n%s", got)
	}
}

// renderOps renders an analyzed plan's operator labels in pre-order, two
// spaces of indentation per level — Explain's layout.
func renderOps(b *strings.Builder, n *exec.PlanNode, depth int) {
	b.WriteString(strings.Repeat("  ", depth) + n.Op + "\n")
	for _, c := range n.Children {
		renderOps(b, c, depth+1)
	}
}

// Explain is the plan Analyze executes: on the grid query and on random
// query trees, under every rewrites × hash setting, the lines of Explain
// equal the pre-order rendering of Analyze's operator tree.
func TestExplainMatchesAnalyze(t *testing.T) {
	type input struct {
		q   ra.Query
		env exec.Env
	}
	inputs := []input{{analyzeGridQuery, joinTables().ExecEnv()}}
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 30; i++ {
		env := ctable.Env{
			"A": randomCTable(rng, 2, 3, []string{"x", "y"}),
			"B": randomCTable(rng, 2, 2, []string{"y", "z"}),
		}
		inputs = append(inputs, input{randomQuery(rng, 2, 3), env.ExecEnv()})
	}
	for _, in := range inputs {
		for _, rewrite := range []bool{false, true} {
			for _, hash := range []bool{false, true} {
				opts := exec.Options{Simplify: true, Rewrite: rewrite, NoHash: !hash}
				plan, err := exec.Explain(in.q, in.env, opts)
				if err != nil {
					t.Fatalf("%s: explain: %v", in.q, err)
				}
				an, err := exec.Analyze(in.q, in.env, opts)
				if err != nil {
					t.Fatalf("%s: analyze: %v", in.q, err)
				}
				var b strings.Builder
				renderOps(&b, an, 0)
				if got := strings.TrimSuffix(b.String(), "\n"); got != plan {
					t.Fatalf("%s (rewrite=%v hash=%v): Explain differs from Analyze's tree\nexplain:\n%s\nanalyze:\n%s",
						in.q, rewrite, hash, plan, got)
				}
			}
		}
	}
}
