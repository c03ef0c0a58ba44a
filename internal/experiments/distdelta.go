package experiments

import (
	"fmt"
	"io"

	"shp/internal/distshp"
	"shp/internal/partition"
	"shp/internal/stats"
)

// RunDistDelta ablates the distributed dirty-query delta plane
// (distshp's incremental gain superstep) against the full per-iteration
// rebroadcast (RebuildEvery = 1). The two are byte-identical for a fixed
// seed — the assignments and fanout histories are checked to agree exactly,
// a live equivalence test on real workloads — so the table is a pure
// wire-traffic comparison: per-superstep attribution of the gain/delta
// phase, and the late-iteration (moved <= 1%) regime where
// churn-proportional traffic pays off.
func RunDistDelta(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "Distributed delta plane: dirty-query (bucket, cOld, cNew) diffs patched into\n")
	fmt.Fprintf(w, "persistent data-vertex accumulators vs full per-iteration gain rebroadcasts.\n\n")
	tb := stats.NewTable("hypergraph", "mode", "iters", "total MB", "gain MB", "late iters", "late KB/superstep", "fanout")

	names := []string{"email-Enron", "soc-Epinions"}
	if cfg.Quick {
		names = names[:1]
	}
	const k = 8
	var reductions []string
	for _, name := range names {
		ds, ok := DatasetByName(name)
		if !ok {
			return fmt.Errorf("experiments: unknown dataset %s", name)
		}
		g, err := ds.Build(cfg.Scale, cfg.Seed+13)
		if err != nil {
			return err
		}
		run := func(rebuildEvery int) (*distshp.Result, error) {
			return distshp.Partition(g, distshp.Options{
				K: k, Seed: cfg.Seed + 5, Workers: cfg.Workers,
				MinMoveFraction: 1e-9, RebuildEvery: rebuildEvery,
			})
		}
		inc, err := run(0)
		if err != nil {
			return err
		}
		full, err := run(1)
		if err != nil {
			return err
		}
		for i := range inc.Assignment {
			if inc.Assignment[i] != full.Assignment[i] {
				return fmt.Errorf("experiments: %s delta and full assignments differ at vertex %d (equivalence broken)", name, i)
			}
		}
		for i := range inc.History {
			if inc.History[i] != full.History[i] {
				return fmt.Errorf("experiments: %s delta and full histories differ at iteration %d (equivalence broken)", name, i)
			}
		}
		addRow := func(mode string, res *distshp.Result) float64 {
			late, lateBytes := res.LateGainBytes(0.01)
			latePer := 0.0
			if late > 0 {
				latePer = float64(lateBytes) / float64(late)
			}
			tb.AddRow(name, mode, res.Iterations,
				fmt.Sprintf("%.2f", float64(res.Stats.TotalBytes)/(1<<20)),
				fmt.Sprintf("%.2f", float64(res.Stats.PhaseTotals(4)[1].BytesSent)/(1<<20)),
				late,
				fmt.Sprintf("%.1f", latePer/(1<<10)),
				fmt.Sprintf("%.4f", partition.Fanout(g, res.Assignment, k)))
			return latePer
		}
		incLate := addRow("delta", inc)
		fullLate := addRow("full", full)
		if incLate > 0 && fullLate > 0 {
			reductions = append(reductions, fmt.Sprintf(
				"%s: late (<=1%% moved) gain-superstep bytes reduced %.1fx by the delta plane",
				name, fullLate/incLate))
		}
	}
	if _, err := io.WriteString(w, tb.String()); err != nil {
		return err
	}
	for _, line := range reductions {
		fmt.Fprintf(w, "\n%s", line)
	}
	fmt.Fprintln(w)
	return nil
}
