// Command platod2gl-bench regenerates the tables and figures of the
// PlatoD2GL paper's evaluation (Sec. VII) against this reproduction.
//
// Usage:
//
//	platod2gl-bench -experiment all                 # everything, default scale
//	platod2gl-bench -experiment fig9 -edges 500000  # one experiment, bigger graphs
//
// Experiment IDs match DESIGN.md's per-experiment index: table2, fig8,
// table4, fig9, table5, fig10, fig11, gnn, ablation, cluster, all. The
// repository benchmark (benchmark/README.md) is the tool for performance
// claims; this command only reproduces the paper's evaluation.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"platod2gl/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see DESIGN.md) or 'all'")
		edges      = flag.Int64("edges", 150_000, "logical edges per dataset (reverse edges double this)")
		batch      = flag.Int("batch", 8192, "event batch size during graph building")
		workers    = flag.Int("workers", 0, "update worker threads (0 = all CPUs)")
		seed       = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	cfg := bench.Config{
		TargetEdges: *edges,
		BatchSize:   *batch,
		Workers:     *workers,
		Seed:        *seed,
		Out:         os.Stdout,
	}
	if *experiment == "all" {
		bench.RunAll(cfg)
		return
	}
	run, ok := bench.Experiments[*experiment]
	if !ok {
		ids := make([]string, 0, len(bench.Experiments))
		for id := range bench.Experiments {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %v or 'all'\n", *experiment, ids)
		os.Exit(2)
	}
	run(cfg)
}
