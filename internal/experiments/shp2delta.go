package experiments

import (
	"fmt"
	"io"
	"time"

	"shp/internal/core"
	"shp/internal/gen"
	"shp/internal/partition"
	"shp/internal/rng"
	"shp/internal/stats"
)

// RunSHP2Delta ablates the bisection refiner's patched-accumulator engine
// (the SHP-2 port of the shared incremental-gain kernel) on the workload it
// was built for: hub-heavy graphs refined from a warm start. A converged
// partition is perturbed by a known churn fraction and re-refined on the
// default rebuild schedule and with a full rebuild every iteration
// (NDRebuildEvery = 1). The two are byte-identical for a fixed seed —
// the fanout columns are checked to agree exactly, a live equivalence test
// on real workloads — so the table is a pure run-time comparison: with
// patching, a hub hyperedge whose member moves costs one delta record per
// member instead of every member re-walking its whole (hub-sized)
// membership.
func RunSHP2Delta(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "SHP-2 delta engine: exact patched gain accumulators (dirty-query side-count\n")
	fmt.Fprintf(w, "diffs) vs active-set membership re-walks, hub-heavy warm-start refinement.\n\n")
	tb := stats.NewTable("hypergraph", "churn", "incremental", "full rebuild", "speedup", "fanout")

	type shape struct {
		name string
		hubs int // pinned count of max-degree hub hyperedges
	}
	shapes := []shape{{"hub-light", 4}, {"hub-heavy", 12}}
	if cfg.Quick {
		shapes = shapes[1:]
	}
	const k = 16
	numD := int(20000 * cfg.Scale)
	if numD < 400 {
		numD = 400
	}
	numQ := numD * 3 / 5
	// Hubs span numD/8 vertices each, so even the heavy shape leaves most
	// of the incidence budget to the power-law tail.
	edges := int64(numD) * 8
	churns := []float64{0.01, 0.05}
	if cfg.Quick {
		churns = churns[:1]
	}
	for _, sh := range shapes {
		g, err := gen.HubPowerLawBipartite(numQ, numD, edges, 2.1, float64(sh.hubs)/float64(numQ), numD/8, cfg.Seed+7)
		if err != nil {
			return err
		}
		base, err := core.Partition(g, core.Options{K: k, Seed: cfg.Seed + 1, Parallelism: cfg.Workers})
		if err != nil {
			return err
		}
		for _, frac := range churns {
			warm := append(partition.Assignment(nil), base.Assignment...)
			r := rng.New(cfg.Seed + 3)
			for i := 0; i < int(frac*float64(len(warm))); i++ {
				warm[r.Intn(len(warm))] = int32(r.Intn(k))
			}
			run := func(rebuildEvery int) (time.Duration, float64, error) {
				res, err := core.Partition(g, core.Options{
					K: k, Seed: cfg.Seed + 2, Parallelism: cfg.Workers,
					Initial: warm, NDRebuildEvery: rebuildEvery,
				})
				if err != nil {
					return 0, 0, err
				}
				return res.Elapsed, partition.Fanout(g, res.Assignment, k), nil
			}
			incT, incF, err := run(0)
			if err != nil {
				return err
			}
			fullT, fullF, err := run(1)
			if err != nil {
				return err
			}
			if incF != fullF {
				return fmt.Errorf("experiments: %s incremental fanout %v != full %v (equivalence broken)",
					sh.name, incF, fullF)
			}
			tb.AddRow(sh.name, fmt.Sprintf("%g%%", frac*100),
				formatDuration(incT), formatDuration(fullT),
				fmt.Sprintf("%.2fx", fullT.Seconds()/incT.Seconds()),
				fmt.Sprintf("%.4f", incF))
		}
	}
	_, err := io.WriteString(w, tb.String())
	return err
}
