// Command paradise is the CLI front end of the privacy-aware query
// processor: it loads (or simulates) a smart-environment database, applies a
// privacy policy to a SQL query, prints the rewrite, the vertical fragment
// plan and the simulated chain execution, and optionally anonymizes the
// result.
//
// Usage:
//
//	paradise -query "SELECT x, y, z, t FROM d" [flags]
//
// Flags:
//
//	-query     SQL query to process (required)
//	-module    policy module to apply (default ActionFilter)
//	-policy    path to a policy XML file (default: the paper's Figure 4)
//	-scenario  apartment | meeting | lecture (default apartment)
//	-duration  simulated trace duration (default 60s)
//	-seed      simulation seed (default 2016)
//	-anon      none | mondrian | fulldomain | slicing | dp (default none)
//	-k         k for the k-anonymity methods (default 5)
//	-epsilon   epsilon for dp (default 1.0)
//	-rows      print up to N result rows (default 10)
//	-parallel  worker goroutines per query pipeline
//	           (default 0 = all CPUs; 1 = serial)
//	-explain   print the optimized logical plan (with policy provenance)
//	           and the per-fragment plan trees with modeled sizes
//	-audit     violating query to check against the released d'
//	-journal   write the audit journal as JSON to this file
//
// Exit codes: 0 success, 2 usage error, 3 SQL parse error, 4 policy
// violation, 1 any other failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	paradise "paradise"
	"paradise/sensorsim"
)

// Exit codes, mapped from the facade's typed errors.
const (
	exitOK     = 0
	exitOther  = 1
	exitUsage  = 2
	exitParse  = 3
	exitPolicy = 4
)

func main() {
	os.Exit(run())
}

// exitCode classifies an error into the documented exit codes.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, paradise.ErrUsage):
		return exitUsage
	case errors.Is(err, paradise.ErrParse):
		return exitParse
	case errors.Is(err, paradise.ErrPolicyViolation):
		return exitPolicy
	default:
		return exitOther
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return exitCode(err)
}

func run() int {
	var (
		query    = flag.String("query", "", "SQL query to process (required)")
		module   = flag.String("module", "ActionFilter", "policy module to apply")
		polPath  = flag.String("policy", "", "policy XML file (default: paper Figure 4)")
		scenario = flag.String("scenario", "apartment", "apartment | meeting | lecture")
		duration = flag.Duration("duration", 60*time.Second, "simulated trace duration")
		seed     = flag.Int64("seed", 2016, "simulation seed")
		anon     = flag.String("anon", "none", "none | mondrian | fulldomain | slicing | dp")
		k        = flag.Int("k", 5, "k for k-anonymity methods")
		epsilon  = flag.Float64("epsilon", 1.0, "epsilon for differential privacy")
		rows     = flag.Int("rows", 10, "print up to N result rows")
		parallel = flag.Int("parallel", 0, "worker goroutines per query pipeline (0 = all CPUs, 1 = serial)")
		explain  = flag.Bool("explain", false, "print the optimized logical plan and per-fragment plan trees")
		auditQ   = flag.String("audit", "", "violating query to audit against the released d' (query containment)")
		journalP = flag.String("journal", "", "write the audit journal as JSON to this file")
	)
	flag.Parse()
	if *query == "" {
		flag.Usage()
		return exitUsage
	}
	ctx := context.Background()

	sc, err := buildScenario(*scenario, *duration, *seed)
	if err != nil {
		return fail(fmt.Errorf("%w: %v", paradise.ErrUsage, err))
	}
	trace, err := sensorsim.Generate(sc)
	if err != nil {
		return fail(fmt.Errorf("generate trace: %w", err))
	}
	store, err := sensorsim.BuildStore(trace)
	if err != nil {
		return fail(fmt.Errorf("build store: %w", err))
	}

	pol := paradise.Figure4Policy()
	if *polPath != "" {
		f, err := os.Open(*polPath)
		if err != nil {
			return fail(fmt.Errorf("open policy: %w", err))
		}
		pol, err = paradise.ParsePolicy(f)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("parse policy: %w", err))
		}
	}

	journal := paradise.NewJournal()
	sess, err := paradise.Open(store,
		paradise.WithPolicy(pol),
		paradise.WithJournal(journal),
		paradise.WithParallelism(*parallel),
		paradise.WithAnonymization(paradise.AnonConfig{
			Method:  paradise.AnonMethod(*anon),
			K:       *k,
			Epsilon: *epsilon,
			Seed:    *seed,
		}),
	)
	if err != nil {
		return fail(fmt.Errorf("open session: %w", err))
	}

	out, err := sess.Process(ctx, *query, paradise.Module(*module))
	if err != nil {
		if jerr := writeJournal(journal, *journalP); jerr != nil {
			fmt.Fprintln(os.Stderr, jerr)
		}
		return fail(fmt.Errorf("process: %w", err))
	}

	fmt.Print(out.Summary())
	fmt.Println()
	if *explain {
		fmt.Print(out.Explain())
		fmt.Println()
	}
	printResult(out, *rows)

	if *auditQ != "" {
		v, err := sess.ResidualRisk(*auditQ, out)
		if err != nil {
			return fail(fmt.Errorf("audit: %w", err))
		}
		fmt.Printf("\nresidual-risk audit of %q:\n  %s\n", *auditQ, v)
	}
	if err := writeJournal(journal, *journalP); err != nil {
		return fail(err)
	}
	return exitOK
}

func writeJournal(j *paradise.Journal, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	if err := j.WriteJSON(f); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	fmt.Printf("\naudit journal (%d entries) written to %s\n", j.Len(), path)
	return nil
}

func buildScenario(name string, dur time.Duration, seed int64) (*sensorsim.Scenario, error) {
	switch name {
	case "apartment":
		sc := sensorsim.Apartment(dur, true, seed)
		sc.PositionGridM = 0.25
		return sc, nil
	case "meeting":
		sc := sensorsim.Meeting(5, dur, seed)
		sc.PositionGridM = 0.25
		return sc, nil
	case "lecture":
		sc := sensorsim.Lecture(8, dur, seed)
		sc.PositionGridM = 0.25
		return sc, nil
	default:
		return nil, fmt.Errorf("unknown scenario %q (apartment | meeting | lecture)", name)
	}
}

func printResult(out *paradise.Outcome, limit int) {
	res := out.Result
	names := res.Schema.ColumnNames()
	fmt.Printf("result (%d rows):\n  %s\n", len(res.Rows), strings.Join(names, " | "))
	for i, r := range res.Rows {
		if i >= limit {
			fmt.Printf("  ... %d more rows\n", len(res.Rows)-limit)
			break
		}
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = v.Format()
		}
		fmt.Println("  " + strings.Join(vals, " | "))
	}
}
