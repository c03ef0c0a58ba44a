// Command shpbench runs the repository's benchmark; see bench/README.md.
//
//	go run ./cmd/shpbench                          all four workloads, one set + traced pass
//	go run ./cmd/shpbench -workload a,b -seed 7    a subset, another seed
//	go run ./cmd/shpbench -check                   two sets back to back, must agree within bounds
//	go run ./cmd/shpbench -diff old.json new.json  compare two ledger files
//	go run ./cmd/shpbench --workload W --seed N --seconds S --trace 0|1
//	                                               one workload in this process; the last line
//	                                               of output is the run's JSON object
package main

import (
	"os"

	"shp/bench"
)

func main() { os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr)) }
