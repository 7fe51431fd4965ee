// Command glto-bench regenerates the figures and tables of the paper's
// evaluation section (Castelló et al., ICPP 2017).
//
// Usage:
//
//	glto-bench -list
//	glto-bench -exp fig8
//	glto-bench -exp all -threads 1,2,4,8 -reps 3 -scale 0.5
//
// Each experiment prints a threads-by-series table in the layout of the
// corresponding paper figure or table; "assign" splits Fig. 7's region time
// into work assignment and execution from the flight recorder. The list is
// the paper's evaluation and nothing more. End-to-end numbers for the
// paper's workloads come from `go run ./benchmark` instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (fig4..fig14, table1..table3, assign) or 'all'")
		threads = flag.String("threads", "", "comma-separated thread counts (default: 1,2,4,.. up to 2x cores)")
		reps    = flag.Int("reps", 0, "repetitions per measurement (0 = per-experiment default)")
		scale   = flag.Float64("scale", 1, "problem-size scale factor in (0,1]")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range harness.Experiments() {
			fmt.Printf("  %-7s %s\n", e.ID, e.Title)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	cfg := harness.Config{Reps: *reps, Scale: *scale, Out: os.Stdout}
	if *threads != "" {
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "bad thread count %q\n", part)
				os.Exit(2)
			}
			cfg.Threads = append(cfg.Threads, n)
		}
	}

	var ids []string
	if *exp == "all" {
		for _, e := range harness.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		e, ok := harness.Lookup(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("\n=== %s: %s ===\n", e.ID, e.Title)
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}
