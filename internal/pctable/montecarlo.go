package pctable

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/value"
)

// This file provides a Monte-Carlo estimator for condition probabilities
// and tuple marginals. Exact computation (even decomposed) can degenerate
// on adversarial conditions; sampling trades exactness for scalability and
// is used by the benchmarks to show the crossover (experiment E12's third
// series). The parallel estimator shards the draw across a worker pool with
// per-worker RNG streams, so estimates are deterministic for a fixed
// (seed, n, workers) regardless of scheduling.

// Sampler draws independent valuations of a pc-table's variables according
// to their distributions.
type Sampler struct {
	table *PCTable
	seed  int64
	rng   *rand.Rand
	// cumulative per-variable distributions for inverse-CDF sampling.
	cdf map[condition.Variable][]cdfEntry
}

type cdfEntry struct {
	upTo float64
	v    value.Value
}

// NewSampler builds a sampler over the table's variables using the given
// random seed (deterministic across runs for a fixed seed).
func NewSampler(t *PCTable, seed int64) (*Sampler, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	s := &Sampler{table: t, seed: seed, rng: rand.New(rand.NewSource(seed)), cdf: make(map[condition.Variable][]cdfEntry)}
	for _, x := range t.Vars() {
		space := t.Dist(x)
		acc := 0.0
		entries := make([]cdfEntry, 0, space.Size())
		for _, o := range space.Outcomes() {
			acc += o.P
			entries = append(entries, cdfEntry{upTo: acc, v: o.ValuePayload()})
		}
		s.cdf[x] = entries
	}
	return s, nil
}

// sampleWith draws one valuation using the given RNG stream; the cdf table
// is read-only, so distinct streams may sample concurrently.
func (s *Sampler) sampleWith(rng *rand.Rand, vars []condition.Variable, into condition.Valuation) condition.Valuation {
	for _, x := range vars {
		entries := s.cdf[x]
		u := rng.Float64()
		chosen := entries[len(entries)-1].v
		for _, e := range entries {
			if u <= e.upTo {
				chosen = e.v
				break
			}
		}
		into[x] = chosen
	}
	return into
}

// lineageVars returns c's variables, each of which must have a distribution.
func (s *Sampler) lineageVars(c condition.Condition, n int) ([]condition.Variable, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pctable: sample count must be positive")
	}
	vars := condition.Vars(c)
	for _, x := range vars {
		if _, ok := s.cdf[x]; !ok {
			return nil, fmt.Errorf("pctable: variable %s has no distribution", x)
		}
	}
	return vars, nil
}

// hits draws n valuations of vars from rng and counts those satisfying c.
func (s *Sampler) hits(rng *rand.Rand, c condition.Condition, vars []condition.Variable, n int) (int, error) {
	val := make(condition.Valuation, len(vars))
	h := 0
	for i := 0; i < n; i++ {
		holds, err := c.Eval(s.sampleWith(rng, vars, val))
		if err != nil {
			return 0, err
		}
		if holds {
			h++
		}
	}
	return h, nil
}

// estimateOf turns a hit count over n samples into the estimate and its
// standard error.
func estimateOf(hits, n int) (float64, float64) {
	p := float64(hits) / float64(n)
	se := 0.0
	if n > 1 {
		se = math.Sqrt(p * (1 - p) / float64(n))
	}
	return p, se
}

// EstimateConditionProbability estimates P[c] by drawing n samples of the
// condition's variables from the sampler's own RNG stream. It returns the
// estimate and its standard error.
func (s *Sampler) EstimateConditionProbability(c condition.Condition, n int) (estimate, stderr float64, err error) {
	vars, err := s.lineageVars(c, n)
	if err != nil {
		return 0, 0, err
	}
	h, err := s.hits(s.rng, c, vars, n)
	if err != nil {
		return 0, 0, err
	}
	estimate, stderr = estimateOf(h, n)
	return estimate, stderr, nil
}

// EstimateTupleProbability estimates the marginal probability of a tuple
// via the lineage condition.
func (s *Sampler) EstimateTupleProbability(tuple value.Tuple, n int) (float64, float64, error) {
	return s.EstimateConditionProbability(s.table.Lineage(tuple), n)
}

// EstimateConditionProbabilityParallel estimates P[c] by drawing n samples
// sharded across a pool of workers goroutines. Each worker owns a private
// RNG stream derived from the sampler's seed and its shard index, and the
// shard sizes depend only on (n, workers), so the estimate is deterministic
// for a fixed (seed, n, workers) regardless of goroutine scheduling. The
// parallel path does not advance the sampler's sequential RNG stream.
// workers <= 1 falls back to the sequential estimator.
func (s *Sampler) EstimateConditionProbabilityParallel(c condition.Condition, n, workers int) (estimate, stderr float64, err error) {
	if workers <= 1 {
		return s.EstimateConditionProbability(c, n)
	}
	vars, err := s.lineageVars(c, n)
	if err != nil {
		return 0, 0, err
	}
	workers = min(workers, n)
	hits := make([]int, workers)
	errs := make([]error, workers)
	base, rem := n/workers, n%workers
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		count := base
		if i < rem {
			count++
		}
		wg.Add(1)
		go func(shard, count int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(shardSeed(s.seed, shard)))
			hits[shard], errs[shard] = s.hits(rng, c, vars, count)
		}(i, count)
	}
	wg.Wait()
	total := 0
	for i, h := range hits {
		if errs[i] != nil {
			return 0, 0, errs[i]
		}
		total += h
	}
	estimate, stderr = estimateOf(total, n)
	return estimate, stderr, nil
}

// EstimateTupleProbabilityParallel estimates the marginal probability of a
// tuple via the lineage condition, sharded across workers.
func (s *Sampler) EstimateTupleProbabilityParallel(tuple value.Tuple, n, workers int) (float64, float64, error) {
	return s.EstimateConditionProbabilityParallel(s.table.Lineage(tuple), n, workers)
}

// shardSeed derives the RNG seed of one worker shard: the base seed plus a
// large odd multiplier of the shard index (plus one, so shard 0 does not
// reuse the sequential stream's seed).
func shardSeed(seed int64, shard int) int64 {
	const mix = int64(-7046029254386353131) // 2^64 / golden ratio, odd, as int64
	return seed + int64(shard+1)*mix
}
