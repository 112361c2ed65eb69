package main

// -agree and -ledger: the two modes that run every workload.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// runAgree measures every workload four times back to back in the order
// A B B A (so drift over the session does not favour one side), traces it
// twice, and prints per workload × end-to-end metric the mean of the two A
// runs, the mean of the two B runs, how much worse B is than A, and the
// bound. It fails if any pair disagrees beyond its bound, if an exec.* count
// differs between the two traced runs, or if any run had a failed operation.
func (e *env) runAgree(man *manifest, seed int64, seconds int, short bool) error {
	var disagreements []string
	fmt.Printf("%-18s %-16s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "worse", "bound")
	for _, sp := range workloads {
		var runs []result
		for i := 0; i < 4; i++ { // A B B A
			rec, err := e.runOne(man, sp, seed, seconds, false, short)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			runs = append(runs, rec.Result)
		}
		var traced []result
		for i := 0; i < 2; i++ {
			rec, err := e.runOne(man, sp, seed, seconds, true, short)
			if err != nil {
				return fmt.Errorf("%s (traced): %w", sp.name, err)
			}
			traced = append(traced, rec.Result)
		}
		for _, d := range man.EndToEnd {
			v := func(i int) float64 { return runs[i].Metrics[d.Name].Value }
			a, b := (v(0)+v(3))/2, (v(1)+v(2))/2
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			mark := ""
			// Either side may be the unlucky one: the pair agrees when neither
			// is worse than the other by more than the bound.
			if worse > d.Bound || -worse/(1+worse) > d.Bound {
				mark = "  DISAGREE"
				disagreements = append(disagreements, sp.name+"/"+d.Name)
			}
			fmt.Printf("%-18s %-16s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", sp.name, d.Name, a, b, 100*worse, 100*d.Bound, mark)
		}
		for i, r := range append(runs, traced...) {
			if r.Failed != 0 || !r.Correct {
				disagreements = append(disagreements, fmt.Sprintf("%s: run %d had %d of %d operations fail (correct=%v)", sp.name, i, r.Failed, r.Attempted, r.Correct))
			}
		}
		for name, va := range traced[0].Metrics {
			if vb := traced[1].Metrics[name]; strings.HasPrefix(name, "exec.") && strings.HasSuffix(name, "_per_op") && va.Value != vb.Value {
				disagreements = append(disagreements, fmt.Sprintf("%s/%s: count %v then %v", sp.name, name, va.Value, vb.Value))
			}
		}
	}
	if len(disagreements) > 0 {
		return fmt.Errorf("the two sides disagree: %s", strings.Join(disagreements, "; "))
	}
	fmt.Println("the two sides agree within every bound")
	return nil
}

// writeLedger runs every workload measured and traced and writes the
// records to path (relative paths are taken from the bench directory).
func (e *env) writeLedger(man *manifest, path string, seed int64, seconds int, short bool) error {
	var records []*record
	for _, sp := range workloads {
		for _, trace := range []bool{false, true} {
			rec, err := e.runOne(man, sp, seed, seconds, trace, short)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			if !rec.Result.Correct {
				return fmt.Errorf("%s (trace=%v): not correct: %s", sp.name, trace, strings.Join(rec.Notes, "; "))
			}
			records = append(records, rec)
		}
	}
	data, err := json.MarshalIndent(map[string]any{"schema": 1, "records": records}, "", " ")
	if err != nil {
		return err
	}
	if !filepath.IsAbs(path) {
		path = filepath.Join(e.root, "bench", path)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
