// Command pctable answers queries over probabilistic c-tables: it prints
// the answer pc-table (closure, Theorem 9), the distribution over answer
// worlds, and exact or Monte-Carlo tuple probabilities.
//
// Usage:
//
//	pctable -table takes.tbl -query "project[1](select[$2 = 'phys'](Takes))" \
//	        [-engine dtree|enum|mc] [-samples 10000] [-workers 4]
//
// The engines differ in how tuple marginals are computed: dtree (the
// default) compiles every lineage condition into one decomposition circuit
// via internal/probcalc, enum enumerates every valuation of the lineage
// variables, and mc skips exact computation entirely in favour of
// Monte-Carlo estimation. All evaluation goes through the public
// pkg/uncertain facade.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"uncertaindb/pkg/uncertain"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable body of the command: it parses flags from args and
// writes all output to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pctable", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	tablePath := fs.String("table", "", "path to the table description file (must contain dist directives)")
	queryText := fs.String("query", "", "relational algebra query (optional; defaults to the identity)")
	engine := fs.String("engine", "dtree", "marginal engine: dtree (exact, one decomposition circuit), enum (brute force) or mc (Monte-Carlo only)")
	samples := fs.Int("samples", 0, "if positive, also estimate tuple probabilities by Monte-Carlo sampling (default 10000 with -engine=mc)")
	workers := fs.Int("workers", 1, "worker goroutines for the Monte-Carlo estimator")
	seed := fs.Int64("seed", 1, "random seed for the Monte-Carlo estimator")
	showDist := fs.Bool("dist", false, "print the full distribution over answer worlds")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		// The FlagSet's own output is discarded so the error reaches the
		// caller exactly once; point the user at the usage listing.
		return fmt.Errorf("%w (run with -h for usage)", err)
	}

	switch *engine {
	case "dtree", "enum", "mc":
	default:
		return fmt.Errorf("pctable: unknown -engine %q (want enum, dtree or mc)", *engine)
	}
	if *engine == "mc" && *samples <= 0 {
		*samples = 10000
	}
	if *tablePath == "" {
		return fmt.Errorf("pctable: -table is required")
	}
	tab, err := uncertain.ReadTableFile(*tablePath)
	if err != nil {
		return err
	}
	if !tab.Probabilistic() {
		return fmt.Errorf("pctable: the table has no dist directives; use cmd/ctable for purely incomplete tables")
	}
	fmt.Fprintf(out, "Loaded probabilistic c-table %s:\n%s", tab.Name(), tab)

	answer := tab.Identity()
	if *queryText != "" {
		answer, err = tab.Query(*queryText)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nAnswer pc-table (conditions are lineage):\n%s", answer)
	}

	if *showDist {
		dist, err := answer.WorldDistribution()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nDistribution over answer worlds:\n%s", dist)
	}

	switch *engine {
	case "dtree", "enum":
		fmt.Fprintf(out, "\nAnswer-tuple marginal probabilities (exact, lineage-based, %s engine):\n", *engine)
		probs, err := answer.Marginals(*engine)
		if err != nil {
			return err
		}
		for _, tp := range probs {
			fmt.Fprintf(out, "  P[%s] = %.6f\n", tp.Tuple, tp.P)
		}
	}

	if *samples > 0 {
		fmt.Fprintf(out, "\nMonte-Carlo estimates (n=%d, workers=%d):\n", *samples, *workers)
		estimates, err := answer.Estimate(*samples, *seed, *workers)
		if err != nil {
			return err
		}
		for _, est := range estimates {
			fmt.Fprintf(out, "  P[%s] ≈ %.6f ± %.6f\n", est.Tuple, est.P, est.StdErr)
		}
	}
	return nil
}
