package main

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestContract checks BENCHMARK.json against the benchmark contract
// mechanically: names, counts, the mandatory setup_s, units, directions and
// bounds, and that the benchmark lives in bench/ alone.
func TestManifestContract(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Paths) != 1 || man.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", man.Paths)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", man.RunSeconds)
	}
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range man.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), man.EndToEnd...), man.PerLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	for _, d := range man.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if !hasSetup {
		t.Error("no end-to-end metric setup_s with unit s and better lower")
	}

	var declared, implemented []string
	for _, w := range man.Workloads {
		declared = append(declared, w.Name)
	}
	for _, sp := range workloads {
		implemented = append(implemented, sp.name)
	}
	if strings.Join(declared, ",") != strings.Join(implemented, ",") {
		t.Errorf("BENCHMARK.json declares workloads %v, the harness implements %v", declared, implemented)
	}
}

// TestEveryWorkloadEmitsTheDeclaredMetrics runs each workload for a
// one-second window at -short sizes, measured and traced, and requires the
// emitted metric names to be exactly the declared ones, every operation to
// succeed, and no child process or data directory to outlive the run.
func TestEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(e.root)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.build(); err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, sp := range workloads {
		for _, trace := range []bool{false, true} {
			rec, err := e.runOne(man, sp, 7, 1, trace, true)
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", sp.name, trace, err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
				t.Errorf("%s (trace=%v): correct=%v failed=%d attempted=%d: %v", sp.name, trace,
					rec.Result.Correct, rec.Result.Failed, rec.Result.Attempted, rec.Notes)
			}
			defs := man.EndToEnd
			if trace {
				defs = man.PerLayer
			}
			var want, got []string
			for _, d := range defs {
				want = append(want, d.Name)
			}
			for name, v := range rec.Result.Metrics {
				got = append(got, name)
				if v.Unit == "" {
					t.Errorf("%s: metric %s has no unit", sp.name, name)
				}
			}
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(want, ",") != strings.Join(got, ",") {
				t.Errorf("%s (trace=%v): emitted metrics %v, declared %v", sp.name, trace, got, want)
			}
			if !trace {
				for _, d := range man.EndToEnd {
					if rec.Result.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", sp.name, d.Name, rec.Result.Metrics[d.Name].Value)
					}
				}
			}
		}
		e.mu.Lock()
		for _, c := range e.children {
			pids = append(pids, c.pid())
		}
		e.mu.Unlock()
	}
	e.cleanup()

	for _, pid := range pids {
		if _, err := os.Stat("/proc/" + strconv.Itoa(pid)); err == nil {
			t.Errorf("child process %d is still running", pid)
		}
	}
	left, err := filepath.Glob(filepath.Join(e.outDir, "*-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range left {
		if info, err := os.Stat(path); err == nil && info.IsDir() {
			t.Errorf("left-over directory %s", path)
		}
	}
}
