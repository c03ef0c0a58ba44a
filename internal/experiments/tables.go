package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"shp/internal/core"
	"shp/internal/distshp"
	"shp/internal/partition"
	"shp/internal/stats"
)

// RunTable2 reproduces Table 2's SHP rows: fanout of SHP-k and SHP-2 across
// hypergraphs and bucket counts k ∈ {2, 8, 32, 128, 512}, raw values plus
// two relative views. The reference row is the hash floor — every vertex
// placed by Mix(seed, v) mod k, the placement a store has before it runs any
// partitioner. Comparison with external partitioners (hMetis, PaToH,
// Zoltan, Mondriaan, Parkway) is the paper's published Table 2.
func RunTable2(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	ks := []int{2, 8, 32, 128, 512}
	if cfg.Quick {
		ks = []int{2, 8, 32}
	}
	algos := []string{"SHP-k", "SHP-2", "Hash"}
	shpAlgos := algos[:2]
	fmt.Fprintf(w, "Table 2: fanout by partitioner and bucket count (lower is better)\n")
	fmt.Fprintf(w, "reference: Hash = every vertex placed by hash(v) mod k\n\n")

	for _, name := range smallDatasets(cfg.Quick) {
		ds, _ := DatasetByName(name)
		g, err := ds.Build(cfg.Scale, cfg.Seed+2)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (|Q|=%d |D|=%d |E|=%d)\n", ds.Name, g.NumQueries(), g.NumData(), g.NumEdges())
		tb := stats.NewTable(append([]string{"algorithm"}, ksHeaders(ks)...)...)
		values := map[string][]float64{}
		for _, algo := range algos {
			row := make([]float64, len(ks))
			for i, k := range ks {
				if k > g.NumData()/2 {
					row[i] = math.NaN()
					continue
				}
				if row[i], err = runQualityCell(algo, g, k, cfg); err != nil {
					return err
				}
			}
			values[algo] = row
			tb.AddRow(floatRow(algo, row)...)
		}
		// Relative views: distance from the better SHP variant (the
		// paper's left-hand plot) and from the hash floor. NaN cells
		// (k too large for the graph) stay NaN and print as '-'.
		for _, algo := range shpAlgos {
			overBest := make([]float64, len(ks))
			belowHash := make([]float64, len(ks))
			for i, v := range values[algo] {
				best := math.Min(values["SHP-k"][i], values["SHP-2"][i])
				overBest[i] = 100 * (v/best - 1)
				belowHash[i] = 100 * (1 - v/values["Hash"][i])
			}
			tb.AddRow(floatRow(algo+" (+% over best)", overBest)...)
			tb.AddRow(floatRow(algo+" (% below hash)", belowHash)...)
		}
		if _, err := io.WriteString(w, tb.String()+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// floatRow is a labelled table row of floats (NaN prints as '-').
func floatRow(label string, vs []float64) []any {
	cells := []any{label}
	for _, v := range vs {
		cells = append(cells, v)
	}
	return cells
}

func runQualityCell(algo string, g graphRef, k int, cfg Config) (float64, error) {
	switch algo {
	case "SHP-2":
		return shp2Fanout(g, k, core.Options{K: k, Seed: cfg.Seed, Parallelism: cfg.Workers})
	case "SHP-k":
		return shp2Fanout(g, k, core.Options{K: k, Direct: true, Seed: cfg.Seed, Parallelism: cfg.Workers})
	case "Hash":
		return partition.Fanout(g, partition.Random(g.NumData(), k, cfg.Seed), k), nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", algo)
	}
}

func ksHeaders(ks []int) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = fmt.Sprintf("k=%d", k)
	}
	return out
}

// RunTable3 reproduces Table 3's SHP rows: run-time and total time
// (run-time × machines, the paper's Figure 5 metric) on the large
// hypergraphs for k ∈ {32, 512, 8192}. SHP-2 runs through the
// vertex-centric engine on cfg.Workers simulated machines; SHP-k runs the
// direct refiner at the same parallelism. A cell is '-' when k ≥ |D| or
// the run went over cfg.TimeLimit; every other cell is a measured time.
func RunTable3(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	names := []string{"soc-Pokec", "soc-LJ", "FB-50M", "FB-2B", "FB-5B", "FB-10B"}
	ks := []int{32, 512, 8192}
	if cfg.Quick {
		names = []string{"soc-Pokec", "FB-2B"}
		ks = []int{32}
	}
	fmt.Fprintf(w, "Table 3: partitioning run-time and total time (run-time x %d machines), '-' = k >= |D| or over the time limit\n\n", cfg.Workers)
	header := []string{"hypergraph", "algorithm"}
	for _, k := range ks {
		header = append(header, fmt.Sprintf("k=%d", k), fmt.Sprintf("k=%d total time", k))
	}
	tb := stats.NewTable(header...)
	for _, name := range names {
		ds, _ := DatasetByName(name)
		g, err := ds.Build(cfg.Scale, cfg.Seed+3)
		if err != nil {
			return err
		}
		for _, algo := range []string{"SHP-2", "SHP-k"} {
			cells := []any{name, algo}
			for _, k := range ks {
				elapsed, ok, err := runScalabilityCell(algo, g, k, cfg)
				if err != nil {
					return fmt.Errorf("%s %s k=%d: %w", name, algo, k, err)
				}
				if !ok {
					cells = append(cells, "-", "-")
					continue
				}
				cells = append(cells, formatDuration(elapsed), formatDuration(elapsed*time.Duration(cfg.Workers)))
			}
			tb.AddRow(cells...)
		}
	}
	_, err := io.WriteString(w, tb.String())
	return err
}

// runScalabilityCell times one Table 3 run; ok is false for a cell the
// table leaves empty (k ≥ |D|, or the run outlasted cfg.TimeLimit).
func runScalabilityCell(algo string, g graphRef, k int, cfg Config) (elapsed time.Duration, ok bool, err error) {
	if k >= g.NumData() {
		return 0, false, nil
	}
	start := time.Now()
	switch algo {
	case "SHP-2":
		// Distributed run through the vertex-centric engine.
		_, err = distshp.Partition(g, distshp.Options{
			K: k, Seed: cfg.Seed, Workers: cfg.Workers, ItersPerLevel: 10,
		})
	case "SHP-k":
		_, err = core.Partition(g, core.Options{
			K: k, Direct: true, Seed: cfg.Seed, Parallelism: cfg.Workers,
		})
	}
	elapsed = time.Since(start)
	return elapsed, err == nil && elapsed <= cfg.TimeLimit, err
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Second:
		return fmt.Sprintf("%.0fms", float64(d)/float64(time.Millisecond))
	case d < time.Minute:
		return fmt.Sprintf("%.1fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fm", d.Minutes())
	}
}
