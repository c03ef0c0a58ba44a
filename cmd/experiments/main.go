// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run table2 [-scale 1.0] [-quick] [-seed 1] [-workers 4]
//	experiments -run all
//
// Each experiment prints the same rows/series the paper reports; -list
// prints the index, and README "Experiments and benchmarks" says what the
// stand-in datasets are and what each table is measured against.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"shp/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		id      = flag.String("run", "", "experiment id to run, or 'all'")
		scale   = flag.Float64("scale", 1.0, "dataset scale multiplier (1.0 = defaults)")
		quick   = flag.Bool("quick", false, "shrink dataset lists and sweeps")
		seed    = flag.Uint64("seed", 1, "random seed")
		workers = flag.Int("workers", 4, "parallelism / simulated machine count")
	)
	flag.Parse()

	if *list || *id == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.Registry {
			fmt.Printf("  %-8s %s\n", e.ID, e.Description)
		}
		if *id == "" && !*list {
			return fmt.Errorf("missing -run")
		}
		return nil
	}

	cfg := experiments.Config{Scale: *scale, Quick: *quick, Seed: *seed, Workers: *workers}
	if *id == "all" {
		for _, e := range experiments.Registry {
			fmt.Printf("==== %s: %s ====\n", e.ID, e.Description)
			start := time.Now()
			if err := e.Run(os.Stdout, cfg); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			fmt.Printf("\n(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}
	e, ok := experiments.ByID(*id)
	if !ok {
		return fmt.Errorf("unknown experiment %q (try -list)", *id)
	}
	return e.Run(os.Stdout, cfg)
}
