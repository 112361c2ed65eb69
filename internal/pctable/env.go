package pctable

import (
	"errors"
	"fmt"
	"sort"

	"uncertaindb/internal/condition"
	"uncertaindb/internal/ctable"
	"uncertaindb/internal/exec"
	"uncertaindb/internal/prob"
	"uncertaindb/internal/ra"
)

// Env maps input relation names to pc-tables for multi-table evaluation.
type Env map[string]*PCTable

// ExecEnv binds the environment's tables as models for the shared operator
// core: pc-tables are exec.Models in their own right (their rows are the
// underlying c-table's rows), so evaluation does not detour through a
// ctable.Env.
func (env Env) ExecEnv() exec.Env {
	out := make(exec.Env, len(env))
	for name, t := range env {
		out[name] = t
	}
	return out
}

// EvalQueryEnv is the multi-table form of EvalQuery (Theorem 9 over a
// database of named pc-tables): each BaseRel of q is bound to the table of
// that name, the answer c-table is computed by the closed algebra on the
// shared operator core, and the answer pc-table inherits the union of the
// input tables' variable distributions. A variable occurring in several
// tables denotes the same random quantity, so its distributions must agree;
// conflicting distributions are an error rather than a silent choice.
func EvalQueryEnv(q ra.Query, env Env) (*PCTable, error) {
	return EvalQueryEnvWithOptions(q, env, ctable.DefaultOptions)
}

// EvalQueryEnvWithOptions is EvalQueryEnv with explicit algebra options
// (condition simplification, plan rewriting).
func EvalQueryEnvWithOptions(q ra.Query, env Env, opts ctable.Options) (*PCTable, error) {
	res, err := exec.Run(q, env.ExecEnv(), opts.ExecOptions())
	if err != nil {
		return nil, err
	}
	out := New(ctable.FromExecResult(res))
	if err := mergeDists(out, env); err != nil {
		return nil, err
	}
	return out, nil
}

// ErrConflictingDists is wrapped by the error reporting a variable that two
// tables give different distributions.
var ErrConflictingDists = errors.New("conflicting distributions")

// CheckDists reports the first variable that two tables of env give
// different distributions, as an error wrapping ErrConflictingDists.
func CheckDists(env Env) error { return mergeDists(New(nil), env) }

// mergeDists copies the union of the environment's variable distributions
// into out, in deterministic table order so the first-conflict error is
// stable.
func mergeDists(out *PCTable, env Env) error {
	names := make([]string, 0, len(env))
	for name := range env {
		names = append(names, name)
	}
	sort.Strings(names)
	owner := make(map[condition.Variable]string)
	for _, name := range names {
		for x, d := range env[name].dists {
			if prev, ok := out.dists[x]; ok {
				if !sameDist(prev, d) {
					return fmt.Errorf("pctable: variable %s has %w in tables %s and %s", x, ErrConflictingDists, owner[x], name)
				}
				continue
			}
			out.dists[x] = d
			owner[x] = name
		}
	}
	return nil
}

// sameDist reports whether two finite distributions are identical: the same
// outcomes (by key) with the same probabilities. Pointer equality is the
// common fast path — tables loaded from one catalog snapshot share Spaces.
func sameDist(a, b *prob.Space) bool {
	if a == b {
		return true
	}
	if a.Size() != b.Size() {
		return false
	}
	for _, o := range a.Outcomes() {
		if b.P(o.Key) != o.P {
			return false
		}
	}
	return true
}
