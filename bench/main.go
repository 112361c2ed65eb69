// Command bench is the repository's benchmark: five workloads driven over
// the /v1 wire protocol against real uncertaind / uncertainrouter child
// processes, with a separate traced run that attributes time to layers. See
// README.md in this directory.
//
//	go run -C bench . --workload warm_read --seed 1 --seconds 15 --trace 0
//	go run -C bench . --workload warm_read --seed 1 --seconds 15 --trace 1
//	go run -C bench . -agree --seed 1
//	go run -C bench . -ledger ledger/BENCH_12.json --seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract asks for: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the detailed document printed before the result line and kept
// in the ledger: the same numbers plus where and on what they were taken.
type record struct {
	Workload string         `json:"workload"`
	Trace    bool           `json:"trace"`
	Seed     int64          `json:"seed"`
	Seconds  int            `json:"seconds"`
	Result   result         `json:"result"`
	Notes    []string       `json:"notes,omitempty"`
	Detail   map[string]any `json:"detail,omitempty"`
	Env      map[string]any `json:"env"`
}

// withUnits attaches the declared unit to every value and fails on a metric
// the manifest does not declare, or one it declares that is missing.
func withUnits(values map[string]float64, defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

func envBlock(root string) map[string]any {
	sha := "unknown" // a driver checkout is not a git repository
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				cpu = strings.TrimSpace(line[strings.IndexByte(line, ':')+1:])
				break
			}
		}
	}
	return map[string]any{
		"git_sha":    sha,
		"go_version": runtime.Version(),
		"cpu_model":  cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
}

// runOne performs one measured or traced run and assembles its record.
func (e *env) runOne(man *manifest, sp spec, seed int64, seconds int, trace, short bool) (*record, error) {
	sz := sizesFull
	if short {
		sz = sizesShort
	}
	window := time.Duration(seconds) * time.Second
	rec := &record{Workload: sp.name, Trace: trace, Seed: seed, Seconds: seconds, Env: envBlock(e.root)}
	var (
		m    *measured
		defs []metricDef
		err  error
	)
	if trace {
		m, err = e.runTraced(sp, seed, window, sz)
		defs = man.PerLayer
	} else {
		m, err = e.runMeasured(sp, seed, window, sz, !short)
		defs = man.EndToEnd
	}
	if err != nil {
		return nil, err
	}
	metrics, err := withUnits(m.metrics, defs)
	if err != nil {
		return nil, err
	}
	rec.Result = result{Correct: m.correct, Attempted: m.attempted, Failed: m.failed, Metrics: metrics}
	rec.Notes, rec.Detail = m.notes, m.detail
	return rec, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0 = measured run printing end-to-end metrics, 1 = traced run printing per-layer metrics")
	short := flag.Bool("short", false, "small tables and streams (the manifest test's sizes)")
	agree := flag.Bool("agree", false, "run every workload twice (A B B A) and fail if the two runs disagree beyond the bounds")
	ledger := flag.String("ledger", "", "run every workload measured and traced and write the records to this file")
	flag.Parse()

	if err := realMain(*workload, *seed, *seconds, *trace != 0, *short, *agree, *ledger); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(workload string, seed int64, seconds int, trace, short, agree bool, ledger string) error {
	e, err := newEnv()
	if err != nil {
		return err
	}
	man, err := loadManifest(e.root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = man.RunSeconds
	}
	stop := e.cleanupOnSignal()
	defer stop()
	defer e.cleanup()
	if err := e.build(); err != nil {
		return err
	}
	switch {
	case agree:
		return e.runAgree(man, seed, seconds, short)
	case ledger != "":
		return e.writeLedger(man, ledger, seed, seconds, short)
	}
	sp, ok := findSpec(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	rec, err := e.runOne(man, sp, seed, seconds, trace, short)
	if err != nil {
		return err
	}
	return printRecord(rec)
}

// printRecord writes the detailed record and then, as the last line of
// standard output, the result object.
func printRecord(rec *record) error {
	detail, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	last, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	for _, n := range rec.Notes {
		fmt.Fprintln(os.Stderr, "bench: "+rec.Workload+":", n)
	}
	fmt.Printf("%s\n%s\n", detail, last)
	return nil
}
