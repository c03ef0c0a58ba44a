package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"shp/internal/core"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/sharding"
	"shp/internal/stats"
)

// Figure2Instance returns the paper's Figure 2 example (0-indexed) and the
// stuck initial sides: V1 = {0..3}, V2 = {4..7}.
func Figure2Instance() (*hypergraph.Bipartite, partition.Assignment) {
	g, err := hypergraph.FromHyperedges(8, [][]int32{
		{0, 1, 4, 5},
		{2, 3, 4, 5},
		{2, 3, 6, 7},
	})
	if err != nil {
		panic(err) // static instance, cannot fail
	}
	return g, partition.Assignment{0, 0, 0, 0, 1, 1, 1, 1}
}

// RunFig2 demonstrates Figure 2: the stuck state is a local minimum for
// direct fanout optimization but not for p-fanout.
func RunFig2(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	g, initial := Figure2Instance()
	fmt.Fprintf(w, "Figure 2: 3 queries over 8 data vertices, V1={1..4}, V2={5..8} (paper numbering)\n")
	fmt.Fprintf(w, "initial fanout: %.4f (total %d)\n\n",
		partition.Fanout(g, initial, 2), int(partition.Fanout(g, initial, 2)*3))
	for _, p := range []float64{1.0, 0.5} {
		opts := core.Options{K: 2, P: p, Seed: cfg.Seed, Initial: initial}
		if p == 1 {
			opts.Objective = core.ObjFanout
		}
		res, err := core.Partition(g, opts)
		if err != nil {
			return err
		}
		f := partition.Fanout(g, res.Assignment, 2)
		fmt.Fprintf(w, "optimize with p=%.1f: final fanout %.4f\n", p, f)
	}
	fmt.Fprintf(w, "\np=1.0 stays at the local minimum (fanout 2.0); p=0.5 escapes to the optimum (4/3).\n")
	return nil
}

// RunFig4a reproduces Figure 4a: latency percentiles (in units of t) of
// synthetic multi-get queries vs fanout 1..40.
func RunFig4a(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	samples := 20000
	if cfg.Quick {
		samples = 2000
	}
	rows := sharding.LatencyVsFanout(sharding.LatencyModel{}, 40, samples, cfg.Seed+4)
	fmt.Fprintf(w, "Figure 4a: multi-get latency vs fanout, units of single-request mean t (%d samples/fanout)\n\n", samples)
	tb := stats.NewTable("fanout", "p50", "p90", "p95", "p99")
	for _, r := range rows {
		if r.Fanout%5 == 0 || r.Fanout == 1 {
			tb.AddRow(r.Fanout, r.P50, r.P90, r.P95, r.P99)
		}
	}
	if _, err := io.WriteString(w, tb.String()); err != nil {
		return err
	}
	f40, f10 := rows[39], rows[9]
	fmt.Fprintf(w, "\nreducing fanout 40 -> 10 cuts mean latency %.2ft -> %.2ft (%.1fx)\n",
		f40.Mean, f10.Mean, f40.Mean/f10.Mean)
	return nil
}

// RunFig4b reproduces Figure 4b: replay ego-net queries over a 40-server
// cluster sharded by SHP vs randomly.
func RunFig4b(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	ds, _ := DatasetByName("FB-10M")
	g, err := ds.Build(cfg.Scale, cfg.Seed+5)
	if err != nil {
		return err
	}
	const servers = 40
	res, err := core.Partition(g, core.Options{K: servers, Seed: cfg.Seed, Parallelism: cfg.Workers})
	if err != nil {
		return err
	}
	social, err := sharding.NewCluster(servers, res.Assignment, sharding.LatencyModel{})
	if err != nil {
		return err
	}
	random, err := sharding.NewCluster(servers, partition.Random(g.NumData(), servers, cfg.Seed+6), sharding.LatencyModel{})
	if err != nil {
		return err
	}
	ms := social.ReplayQueries(g, cfg.Seed+7, 20)
	mr := random.ReplayQueries(g, cfg.Seed+7, 20)
	fmt.Fprintf(w, "Figure 4b: replaying %d ego-net queries on 40 servers (FB-10M stand-in)\n\n", g.NumQueries())
	tb := stats.NewTable("fanout", "queries", "p50", "p90", "p95", "p99")
	for _, r := range ms.Rows {
		if r.Fanout%5 == 0 || r.Fanout == 1 || r.Fanout == 2 {
			tb.AddRow(r.Fanout, r.Queries, r.P50, r.P90, r.P95, r.P99)
		}
	}
	if _, err := io.WriteString(w, tb.String()); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nSHP sharding:    avg fanout %.1f, avg latency %.2ft\n", ms.AvgFanout, ms.AvgLat)
	fmt.Fprintf(w, "random sharding: avg fanout %.1f, avg latency %.2ft\n", mr.AvgFanout, mr.AvgLat)
	fmt.Fprintf(w, "latency ratio: %.2fx (paper: ~2x from fanout 40 -> ~10)\n", mr.AvgLat/ms.AvgLat)
	return nil
}

// RunFig5a reproduces Figure 5a: SHP-2 total time (run time x machines) as
// a function of |E| across the FB-* family, for several bucket counts —
// verifying the O(log k * |E|) complexity.
func RunFig5a(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	names := []string{"FB-50M", "FB-2B", "FB-5B", "FB-10B"}
	ks := []int{2, 32, 512, 8192}
	if cfg.Quick {
		names = names[:2]
		ks = []int{2, 32}
	}
	fmt.Fprintf(w, "Figure 5a: SHP-2 total time (run time x %d workers) vs |E|\n\n", cfg.Workers)
	tb := stats.NewTable(append([]string{"hypergraph", "|E|"}, ksHeaders(ks)...)...)
	for _, name := range names {
		ds, _ := DatasetByName(name)
		g, err := ds.Build(cfg.Scale, cfg.Seed+8)
		if err != nil {
			return err
		}
		cells := []any{name, g.NumEdges()}
		for _, k := range ks {
			if k > g.NumData()/4 {
				cells = append(cells, "-")
				continue
			}
			start := time.Now()
			if _, err := core.Partition(g, core.Options{K: k, Seed: cfg.Seed, Parallelism: cfg.Workers}); err != nil {
				return err
			}
			total := time.Since(start) * time.Duration(cfg.Workers)
			cells = append(cells, formatDuration(total))
		}
		tb.AddRow(cells...)
	}
	_, err := io.WriteString(w, tb.String())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntotal time should grow linearly in |E| and logarithmically in k (Section 3.3)\n")
	return nil
}

// RunFig5b reproduces Figure 5b: run-time and total time of SHP-2 on the
// largest stand-in with 4, 8, and 16 machines.
func RunFig5b(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	name := "FB-10B"
	if cfg.Quick {
		name = "FB-2B"
	}
	ds, _ := DatasetByName(name)
	g, err := ds.Build(cfg.Scale, cfg.Seed+9)
	if err != nil {
		return err
	}
	const k = 32
	fmt.Fprintf(w, "Figure 5b: SHP-2 on %s stand-in (|E|=%d), k=%d\n\n", name, g.NumEdges(), k)
	tb := stats.NewTable("machines", "run-time", "total time", "speedup vs 4")
	var base time.Duration
	for _, machines := range []int{4, 8, 16} {
		start := time.Now()
		if _, err := core.Partition(g, core.Options{K: k, Seed: cfg.Seed, Parallelism: machines}); err != nil {
			return err
		}
		elapsed := time.Since(start)
		if machines == 4 {
			base = elapsed
		}
		speedup := float64(base) / float64(elapsed)
		tb.AddRow(machines, formatDuration(elapsed), formatDuration(elapsed*time.Duration(machines)),
			fmt.Sprintf("%.2fx", speedup))
	}
	if _, err := io.WriteString(w, tb.String()); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nspeedup is sublinear (communication overhead grows with machines), as in the paper\n")
	return nil
}

// RunFig6 reproduces Figure 6: fanout reduction (%) relative to random
// partitioning as a function of the fanout probability p, on the soc-Pokec
// stand-in, for several bucket counts.
func RunFig6(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	ds, _ := DatasetByName("soc-Pokec")
	g, err := ds.Build(cfg.Scale, cfg.Seed+10)
	if err != nil {
		return err
	}
	ps := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	ks := []int{2, 8, 32, 128, 512}
	if cfg.Quick {
		ps = []float64{0.1, 0.5, 1.0}
		ks = []int{2, 32}
	}
	fmt.Fprintf(w, "Figure 6: SHP-2 fanout reduction vs random partitioning on soc-Pokec stand-in\n")
	fmt.Fprintf(w, "(more negative = better; p=1.0 is direct fanout optimization)\n\n")
	header := []string{"p"}
	for _, k := range ks {
		header = append(header, fmt.Sprintf("k=%d", k))
	}
	tb := stats.NewTable(header...)
	randF := map[int]float64{}
	for _, k := range ks {
		randF[k] = partition.Fanout(g, partition.Random(g.NumData(), k, cfg.Seed+11), k)
	}
	for _, p := range ps {
		cells := []any{fmt.Sprintf("%.1f", p)}
		for _, k := range ks {
			opts := core.Options{K: k, P: p, Seed: cfg.Seed, Parallelism: cfg.Workers}
			if p == 1.0 {
				opts.Objective = core.ObjFanout
			}
			f, err := shp2Fanout(g, k, opts)
			if err != nil {
				return err
			}
			cells = append(cells, fmt.Sprintf("%.1f%%", 100*(f/randF[k]-1)))
		}
		tb.AddRow(cells...)
	}
	_, err = io.WriteString(w, tb.String())
	return err
}

// RunFig7 reproduces Figure 7: per-iteration average fanout and moved
// vertices for SHP-k with p = 0.5 vs p = 1.0 on the soc-LJ stand-in, k = 8.
func RunFig7(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	ds, _ := DatasetByName("soc-LJ")
	g, err := ds.Build(cfg.Scale, cfg.Seed+12)
	if err != nil {
		return err
	}
	iters := 50
	if cfg.Quick {
		iters = 10
	}
	fmt.Fprintf(w, "Figure 7: SHP-k convergence on soc-LJ stand-in, k=8 (%d iterations)\n\n", iters)
	type series struct {
		fanout []float64
		moved  []float64
	}
	runs := map[string]*series{}
	for _, p := range []float64{0.5, 1.0} {
		opts := core.Options{
			K: 8, Direct: true, P: p, Seed: cfg.Seed, Parallelism: cfg.Workers,
			MaxIters: iters, MinMoveFraction: 1e-9,
		}
		if p == 1.0 {
			opts.Objective = core.ObjFanout
		}
		res, err := core.Partition(g, opts)
		if err != nil {
			return err
		}
		s := &series{}
		for _, h := range res.History {
			s.fanout = append(s.fanout, h.Fanout)
			s.moved = append(s.moved, 100*h.MovedFraction)
		}
		runs[fmt.Sprintf("p=%.1f", p)] = s
	}
	tb := stats.NewTable("iteration", "fanout p=0.5", "fanout p=1.0", "moved% p=0.5", "moved% p=1.0")
	a, b := runs["p=0.5"], runs["p=1.0"]
	for i := 0; i < len(a.fanout) || i < len(b.fanout); i++ {
		get := func(xs []float64) any {
			if i < len(xs) {
				return xs[i]
			}
			return ""
		}
		if i%2 == 0 || i < 10 {
			tb.AddRow(i+1, get(a.fanout), get(b.fanout), get(a.moved), get(b.moved))
		}
	}
	_, err = io.WriteString(w, tb.String())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\np=0.5 keeps moving vertices (escaping local minima) and reaches lower fanout;\n")
	fmt.Fprintf(w, "p=1.0 freezes early at a worse solution, as in the paper.\n")
	return nil
}

// RunFig8 reproduces Figure 8: fanout increase (%) of (a) direct fanout
// optimization and (b) clique-net optimization over p = 0.5, on six
// hypergraphs for k ∈ {2, 8, 32}.
func RunFig8(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	names := []string{"email-Enron", "soc-Epinions", "web-Stanford", "web-BerkStan", "soc-Pokec", "soc-LJ"}
	ks := []int{2, 8, 32}
	if cfg.Quick {
		names = names[:2]
		ks = []int{2, 8}
	}
	fmt.Fprintf(w, "Figure 8: fanout increase over p=0.5 optimization (positive = p=0.5 wins)\n\n")
	tbA := stats.NewTable(append([]string{"(a) p=1.0 vs p=0.5"}, ksHeaders(ks)...)...)
	tbB := stats.NewTable(append([]string{"(b) clique-net vs p=0.5"}, ksHeaders(ks)...)...)
	sumA, sumB, cells := 0.0, 0.0, 0.0
	for _, name := range names {
		ds, _ := DatasetByName(name)
		g, err := ds.Build(cfg.Scale, cfg.Seed+13)
		if err != nil {
			return err
		}
		rowA := []any{name}
		rowB := []any{name}
		for _, k := range ks {
			base, err := shp2Fanout(g, k, core.Options{K: k, P: 0.5, Seed: cfg.Seed, Parallelism: cfg.Workers})
			if err != nil {
				return err
			}
			direct, err := shp2Fanout(g, k, core.Options{K: k, Objective: core.ObjFanout, Seed: cfg.Seed, Parallelism: cfg.Workers})
			if err != nil {
				return err
			}
			clique, err := shp2Fanout(g, k, core.Options{K: k, Objective: core.ObjCliqueNet, Seed: cfg.Seed, Parallelism: cfg.Workers})
			if err != nil {
				return err
			}
			incA := 100 * (direct/base - 1)
			incB := 100 * (clique/base - 1)
			rowA = append(rowA, fmt.Sprintf("%+.1f%%", incA))
			rowB = append(rowB, fmt.Sprintf("%+.1f%%", incB))
			// The conversions keep arm64 from fusing the products into the sums.
			sumA += float64(incA)
			sumB += float64(incB)
			cells++
		}
		tbA.AddRow(rowA...)
		tbB.AddRow(rowB...)
	}
	if _, err := io.WriteString(w, tbA.String()+"\n"); err != nil {
		return err
	}
	if _, err := io.WriteString(w, tbB.String()+"\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "mean increase: direct fanout %+.1f%%, clique-net %+.1f%% (paper: ~45%% and small positive)\n",
		sumA/cells, sumB/cells)
	if math.IsNaN(sumA) {
		return fmt.Errorf("fig8: NaN in results")
	}
	return nil
}
