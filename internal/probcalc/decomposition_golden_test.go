package probcalc

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"uncertaindb/internal/condition"
)

var updateDecompositionGolden = flag.Bool("update-decomposition-golden", false, "rewrite testdata/decomposition.golden")

// renderDecomposition runs the per-tuple Evaluator and the answer circuit
// over a fixed set of seeded answer sets and renders, per set and
// EnumThreshold, the float64 bits of every marginal and every decomposition
// counter. The tests elsewhere compare probabilities within 1e-9; this
// rendering pins them to the bit, together with the shape of the
// decomposition that produced them.
func renderDecomposition(t *testing.T) string {
	var b strings.Builder
	type answerSet struct {
		conds []condition.Condition
		dists MapDists
	}
	rng := rand.New(rand.NewSource(35))
	var sets []answerSet
	for i := 0; i < 300; i++ {
		numVars := 2 + rng.Intn(6)
		domain := 2 + rng.Intn(3)
		dists := randomDists(rng, numVars, domain)
		conds := make([]condition.Condition, 1+rng.Intn(6))
		for j := range conds {
			conds[j] = randomCondition(rng, numVars, domain, 2+rng.Intn(2))
		}
		sets = append(sets, answerSet{conds, dists})
	}
	for _, shape := range [][3]int{{2, 3, 3}, {4, 5, 6}} {
		conds, dists := sharedAnswer(shape[0], shape[1], shape[2])
		sets = append(sets, answerSet{conds, dists})
	}
	chain, chainDists := memoChain(14)
	sets = append(sets, answerSet{[]condition.Condition{chain}, chainDists})

	for i, set := range sets {
		simplified := make([]condition.Condition, len(set.conds))
		for j, c := range set.conds {
			simplified[j] = condition.Simplify(c)
		}
		for _, opts := range []Options{{}, {EnumThreshold: 2}} {
			fmt.Fprintf(&b, "set %d threshold %d\n", i, opts.EnumThreshold)
			ev := NewWithOptions(set.dists, opts)
			b.WriteString("  evaluator")
			for _, c := range set.conds {
				p, err := ev.Probability(c)
				if err != nil {
					t.Fatalf("set %d: evaluator: %v", i, err)
				}
				fmt.Fprintf(&b, " %016x", math.Float64bits(p))
			}
			s := ev.Stats()
			fmt.Fprintf(&b, "\n  stats component=%d exclusive=%d shannon=%d enum=%d hits=%d misses=%d entries=%d\n",
				s.ComponentSplits, s.ExclusiveSplits, s.ShannonExpansions, s.Enumerations,
				s.MemoHits, s.MemoMisses, s.MemoEntries)
			circ, err := CompileAnswerWithOptions(simplified, set.dists, opts)
			if err != nil {
				t.Fatalf("set %d: compile: %v", i, err)
			}
			roots, err := circ.EvalFloat(set.dists)
			if err != nil {
				t.Fatalf("set %d: eval: %v", i, err)
			}
			b.WriteString("  circuit")
			for _, p := range roots {
				fmt.Fprintf(&b, " %016x", math.Float64bits(p))
			}
			cs := circ.Stats()
			fmt.Fprintf(&b, "\n  circuit-stats nodes=%d roots=%d vars=%d shared=%d enum=%d component=%d exclusive=%d shannon=%d\n",
				cs.Nodes, cs.Roots, cs.Vars, cs.SharedHits, cs.EnumLeaves,
				cs.ComponentSplits, cs.ExclusiveSplits, cs.ShannonExpansions)
		}
	}
	return b.String()
}

// TestDecompositionGolden pins the evaluator's and the circuit's float64
// marginals bit for bit, and their decomposition counters, against
// testdata/decomposition.golden. Regenerate with
// `go test ./internal/probcalc -run TestDecompositionGolden -update-decomposition-golden`
// only for a change that is meant to alter the decomposition.
func TestDecompositionGolden(t *testing.T) {
	got := renderDecomposition(t)
	path := filepath.Join("testdata", "decomposition.golden")
	if *updateDecompositionGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-decomposition-golden): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("decomposition drifted from %s at line %d:\n got %s\nwant %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("decomposition drifted from %s: %d lines, want %d", path, len(gotLines), len(wantLines))
}
