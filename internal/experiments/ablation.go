package experiments

import (
	"fmt"
	"io"
	"time"

	"shp/internal/core"
	"shp/internal/partition"
	"shp/internal/stats"
)

// RunAblateIncremental ablates the incremental refinement engine: SHP-2 and
// SHP-k run on the default rebuild schedule and with a full rebuild every
// iteration (Options.NDRebuildEvery = 1) on the single-machine comparison
// datasets. The two schedules are byte-identical for a fixed seed, so the
// fanout columns must agree exactly — the table is a pure
// run-time/throughput comparison, plus a live check of the equivalence
// contract on real workloads.
func RunAblateIncremental(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "Ablation: incremental refinement engine (delta-maintained neighbor data,\n")
	fmt.Fprintf(w, "exact patched gains, mover-only rebuilds) vs full per-iteration rebuilds.\n\n")
	tb := stats.NewTable("hypergraph", "algo", "k", "incremental", "full rebuild", "speedup", "edges/s (inc)", "fanout")

	names := smallDatasets(cfg.Quick)
	const k = 16
	for _, name := range names {
		ds, ok := DatasetByName(name)
		if !ok {
			return fmt.Errorf("experiments: unknown dataset %s", name)
		}
		g, err := ds.Build(cfg.Scale, cfg.Seed+11)
		if err != nil {
			return err
		}
		for _, algo := range []string{"SHP-2", "SHP-k"} {
			opts := core.Options{K: k, Seed: cfg.Seed + 1, Parallelism: cfg.Workers, Direct: algo == "SHP-k"}

			run := func(rebuildEvery int) (time.Duration, float64, error) {
				o := opts
				o.NDRebuildEvery = rebuildEvery
				res, err := core.Partition(g, o)
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
				return fmt.Errorf("experiments: %s/%s incremental fanout %v != full %v (equivalence broken)",
					name, algo, incF, fullF)
			}
			tb.AddRow(name, algo, k,
				formatDuration(incT), formatDuration(fullT),
				fmt.Sprintf("%.2fx", fullT.Seconds()/incT.Seconds()),
				fmt.Sprintf("%.3g", float64(g.NumEdges())/incT.Seconds()),
				fmt.Sprintf("%.4f", incF))
		}
	}
	_, err := io.WriteString(w, tb.String())
	return err
}
