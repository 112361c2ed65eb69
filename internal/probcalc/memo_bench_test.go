package probcalc

import (
	"fmt"
	"testing"

	"uncertaindb/internal/condition"
)

// memoChain builds the E12b "chain" lineage shape over vars boolean
// variables together with its distributions.
func memoChain(vars int) (condition.Condition, MapDists) {
	dists := make(MapDists)
	var disj []condition.Condition
	for i := 0; i+1 < vars; i++ {
		x, y := fmt.Sprintf("b%d", i), fmt.Sprintf("b%d", i+1)
		dists[condition.Variable(x)] = bern(0.3)
		dists[condition.Variable(y)] = bern(0.3)
		disj = append(disj, condition.And(condition.IsTrueVar(x), condition.IsTrueVar(y)))
	}
	return condition.Or(disj...), dists
}

// BenchmarkMemoWarmEvaluation measures re-evaluating a lineage condition
// whose decomposition is fully memoized — the hot path of every repeated marginal.
// Before the ID-keyed memo this path rendered a canonical string key for
// every visited node (EXPERIMENTS.md records the before/after allocation
// counts); now the key is an interned integer.
func BenchmarkMemoWarmEvaluation(b *testing.B) {
	for _, vars := range []int{8, 16, 24} {
		c, dists := memoChain(vars)
		b.Run(fmt.Sprintf("vars=%d", vars), func(b *testing.B) {
			ev := New(dists)
			if _, err := ev.Probability(c); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Probability(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The memoization key itself must not allocate once a condition's nodes are
// interned: the memo is an ID-keyed map, and computing the ID of a warm
// condition is pure map lookups (this is the acceptance assertion for the
// string-key removal — the old canonKey allocated a rendered string per
// memo probe). Every Probability call simplifies its condition into a fresh
// value, so the key is computed here on a fresh copy each time, as it is
// there, with the backing-array caches dropped after each probe.
func TestMemoKeyNoAllocsWarm(t *testing.T) {
	c, dists := memoChain(12)
	ev := New(dists)
	if _, err := ev.Probability(c); err != nil {
		t.Fatal(err)
	}
	cp := ev.inc.cp
	const runs = 200
	fresh := make([]condition.Condition, runs+1) // AllocsPerRun adds a warm-up run
	for i := range fresh {
		fresh[i] = condition.Simplify(c)
	}
	id := cp.condID(fresh[0])
	cp.forgetJunctions()
	if _, ok := cp.memo[id]; !ok {
		t.Fatalf("memo has no entry under the interned ID of the evaluated condition")
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if cp.condID(fresh[i]) != id {
			t.Errorf("interned ID changed between runs")
		}
		cp.forgetJunctions()
		i++
	})
	if allocs != 0 {
		t.Errorf("memo key computation allocates %v objects per probe, want 0", allocs)
	}
}
