package experiments

import (
	"fmt"
	"io"
	"time"

	"shp/internal/core"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/stats"
)

// graphRef is shorthand for the shared bipartite graph type.
type graphRef = *hypergraph.Bipartite

// Config tunes a harness run.
type Config struct {
	// Scale multiplies every dataset's DefaultScale (default 1). Larger
	// values approach the paper's sizes at the cost of run time.
	Scale float64
	// Quick shrinks dataset lists and sweeps for smoke tests and benches.
	Quick bool
	// Seed drives all generators and partitioners.
	Seed uint64
	// Workers is the parallelism / simulated machine count (default 4,
	// the paper's cluster).
	Workers int
	// TimeLimit aborts individual cells that would run too long
	// (default 10 minutes; the paper used 10 hours).
	TimeLimit time.Duration
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.TimeLimit == 0 {
		c.TimeLimit = 10 * time.Minute
	}
	return c
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID          string
	Description string
	Run         func(w io.Writer, cfg Config) error
}

// Registry lists every experiment in paper order.
var Registry = []Experiment{
	{"table1", "Table 1: dataset inventory (synthetic stand-ins)", RunTable1},
	{"fig2", "Figure 2: fanout local minimum that p-fanout escapes", RunFig2},
	{"fig4a", "Figure 4a: multi-get latency percentiles vs fanout (synthetic)", RunFig4a},
	{"fig4b", "Figure 4b: latency vs fanout replaying social queries on 40 servers", RunFig4b},
	{"table2", "Table 2: fanout quality of SHP-2 / SHP-k against the hash floor", RunTable2},
	{"table3", "Table 3: run-time and total time of distributed SHP-2 and SHP-k on large hypergraphs", RunTable3},
	{"fig5a", "Figure 5a: total time vs |E| for several bucket counts", RunFig5a},
	{"fig5b", "Figure 5b: run-time and total time vs machine count", RunFig5b},
	{"fig6", "Figure 6: fanout reduction vs fanout probability p", RunFig6},
	{"fig7", "Figure 7: convergence of p=0.5 vs p=1.0 (fanout, moved vertices)", RunFig7},
	{"fig8", "Figure 8: p=0.5 vs direct fanout (a) and clique-net (b) objectives", RunFig8},
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunTable1 prints the dataset inventory at the configured scale.
func RunTable1(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "Table 1: hypergraph stand-ins (scale multiplier %.3g)\n", cfg.Scale)
	fmt.Fprintf(w, "paper sizes -> generated sizes after pruning degree<2 queries\n\n")
	tb := stats.NewTable("hypergraph", "|Q| paper", "|D| paper", "|E| paper", "|Q| built", "|D| built", "|E| built")
	list := Datasets
	if cfg.Quick {
		list = list[:4]
	}
	for _, ds := range list {
		g, err := ds.Build(cfg.Scale, cfg.Seed+1)
		if err != nil {
			return err
		}
		tb.AddRow(ds.Name, ds.Q, ds.D, ds.E, g.NumQueries(), g.NumData(), g.NumEdges())
	}
	_, err := io.WriteString(w, tb.String())
	return err
}

// smallDatasets returns the Table 2 style dataset list (the paper's
// single-machine comparison set).
func smallDatasets(quick bool) []string {
	if quick {
		return []string{"email-Enron", "soc-Epinions"}
	}
	return []string{
		"email-Enron", "soc-Epinions", "web-Stanford", "web-BerkStan",
		"soc-Pokec", "soc-LJ", "FB-10M", "FB-50M",
	}
}

// shp2Fanout runs SHP-2 and measures fanout (helper shared by runners).
func shp2Fanout(g graphRef, k int, opts core.Options) (float64, error) {
	res, err := core.Partition(g, opts)
	if err != nil {
		return 0, err
	}
	return partition.Fanout(g, res.Assignment, k), nil
}
