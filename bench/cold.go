package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"shp"
	"shp/internal/stats"
)

// cold-bisect-social — the paper's headline scenario and the open-sourced
// variant: a community-structured ego-net hypergraph (the storage-sharding
// workload) is loaded from hMETIS bytes and bisected recursively into 128
// buckets. internal/core's recursive driver and refine2.go do most of the
// wall and internal/hgio a visible share; direct.go, pregel and serve do
// nothing, so a change there must not move this workload. The rep
// allocates far more than it keeps, so layout and GC work show here. It is
// a tenth of the issue's 400 000 users, so that about twenty reps fit in
// the timed region (see README.md, "Sizes").
const (
	coldBisectUsers = 40000
	coldBisectK     = 128
	coldBisectSizes = "gen.SocialEgoNets(40000, 20, 100, 0.85) pruned at degree 2; shp.Options{K:128, Parallelism:1} (SHP-2); GOMAXPROCS 1"
)

func runColdBisectSocial(e *env) error {
	return runCold(e, coldSpec{
		gen: func(seed uint64) (*shp.Hypergraph, error) {
			return shp.GenerateSocialEgoNets(e.scaled(coldBisectUsers, 2000), 20, 100, 0.85, seed)
		},
		opts: shp.Options{K: coldBisectK, Parallelism: 1},
	})
}

// cold-kway-powerlaw — the other half of ROADMAP's "SHP-k vs SHP-2"
// decision: direct k-way refinement on a power-law graph with pinned hubs
// and no community structure. direct.go, gainbins and ndstate do nearly all
// of the wall; refine2.go does nothing and hgio a few percent, so an hgio
// or recursion change must not move it. The iteration count is fixed at the
// paper's schedule rather than left to the moved-fraction threshold,
// because on a graph this size the threshold trips anywhere between
// iteration 12 and 60 depending on the seed. The exponent is 3.0, not the
// issue's 2.1: at 2.1 the largest hyperedge spans between an eighth and a
// half of all data vertices depending on the seed, and wall and fanout vary
// 2× from graph to graph (README.md, "Sizes").
const (
	coldKwayQueries  = 12000
	coldKwayData     = 20000
	coldKwayEdges    = 160000
	coldKwayExponent = 3.0
	coldKwayHubShare = 0.0002
	coldKwayHubSize  = 80
	coldKwayK        = 32
	coldKwayIters    = 15
	coldKwaySizes    = "gen.HubPowerLawBipartite(12000, 20000, 160000, 3.0, 0.0002, 80) pruned at degree 2; shp.Options{K:32, Direct:true, MaxIters:15, MinMoveFraction:1e-12, Parallelism:1} (SHP-k); GOMAXPROCS 1"
)

func runColdKwayPowerlaw(e *env) error {
	return runCold(e, coldSpec{
		gen: func(seed uint64) (*shp.Hypergraph, error) {
			return shp.GenerateHubPowerLawBipartite(e.scaled(coldKwayQueries, 600), e.scaled(coldKwayData, 1000),
				int64(e.scaled(coldKwayEdges, 8000)), coldKwayExponent, coldKwayHubShare, e.scaled(coldKwayHubSize, 8), seed)
		},
		opts: shp.Options{K: coldKwayK, Direct: true, MaxIters: coldKwayIters, MinMoveFraction: 1e-12, Parallelism: 1},
	})
}

type coldSpec struct {
	gen  func(seed uint64) (*shp.Hypergraph, error)
	opts shp.Options
}

// Reps: one warm-up, then reps until the run's seconds are up, at least
// coldMinReps. The traced pass adds coldParReps reps at Parallelism:0 on all
// cores, after coldParWarm dropped ones: the first two reps after GOMAXPROCS
// goes back up still run at serial speed (0.55 s, 0.48 s, then 0.31 s).
const (
	coldMinReps = 3
	coldParWarm = 2
	coldParReps = 3
)

// runCold is the closed loop both cold workloads share: set-up generates
// the graph and serialises it to hMETIS bytes; each rep parses the bytes,
// partitions, and measures fanout, as a user starting from a file would.
//
// The timed reps run serially (Parallelism:1) on one core. On the 2-vCPU
// reference box the median of thirty 2-worker reps drifts by 20 % between
// back-to-back sets of the same seed, against 2 % for serial reps, because a
// parallel phase waits for whichever vCPU the host took away; the parallel
// path is priced in the traced pass as par.speedup_cores, on all cores.
func runCold(e *env, spec coldSpec) error {
	opts := spec.opts
	opts.Seed = e.cfg.Seed
	k := opts.K

	var data []byte
	var edges int64
	if err := e.setup(func() error {
		var g *shp.Hypergraph
		var err error
		e.tr.Span("gen.Graph", func() {
			if g, err = spec.gen(e.cfg.Seed); err == nil {
				g = shp.PruneTrivialQueries(g, 2)
			}
		})
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		e.tr.Span("hgio.WriteHMetis", func() { err = shp.WriteHMetis(&buf, g) })
		data, edges = buf.Bytes(), g.NumEdges()
		return err
	}); err != nil {
		return err
	}
	e.setMedian("gen.graph_s", e.tr.Seconds("gen.Graph"))
	e.setMedian("hgio.write_s", e.tr.Seconds("hgio.WriteHMetis"))

	// rep is one load → partition → fanout pass; it returns the pieces the
	// checks and per-layer metrics need.
	type repOut struct {
		g       *shp.Hypergraph
		res     *shp.Result
		fanout  float64
		wall    time.Duration
		secs    float64 // wall, settled
		partSec float64
	}
	rep := func(o shp.Options) (out repOut, err error) {
		mk := e.speed.mark()
		defer func() { out.secs = e.settle(mk, out.wall) }()
		out.wall = e.tr.Span("bench.rep", func() {
			e.tr.Span("hgio.ReadHMetis", func() { out.g, err = shp.ReadHMetis(bytes.NewReader(data)) })
			if err != nil {
				return
			}
			out.partSec = e.tr.Span("shp.Partition", func() { out.res, err = shp.Partition(out.g, o) }).Seconds()
			if err != nil {
				return
			}
			e.tr.Span("shp.Fanout", func() { out.fanout = shp.Fanout(out.g, out.res.Assignment, k) })
		})
		return out, err
	}

	var first repOut
	var err error
	warm := e.tr.Span("bench.warmup", func() { first, err = rep(opts) })
	if err != nil {
		return err
	}
	e.set("bench.warmup_s", warm.Seconds())

	var walls, tracedWalls, rawWalls, partSecs []float64
	last := first
	if err := e.timedLoop(e.scaled(coldMinReps, 2), func(i int, traced bool) error {
		out, err := rep(opts)
		if err != nil {
			return err
		}
		if traced {
			tracedWalls = append(tracedWalls, out.secs)
		} else {
			walls = append(walls, out.secs)
		}
		rawWalls = append(rawWalls, out.wall.Seconds())
		partSecs = append(partSecs, out.partSec)
		e.check(out.fanout == first.fanout, "rep %d fanout %v differs from the warm-up's %v", i, out.fanout, first.fanout)
		last = out
		return nil
	}); err != nil {
		return err
	}
	e.setMedian("wall_s", walls)
	if err := e.quality(last.g, last.res.Assignment, k); err != nil {
		return err
	}
	if !e.cfg.Trace {
		return nil
	}

	e.traceOverhead(walls, tracedWalls)
	e.setMedian("bench.wall_raw_s", rawWalls)
	readSecs := e.tr.Seconds("hgio.ReadHMetis")
	e.setMedian("hgio.read_s", readSecs)
	e.set("hgio.read_mb_per_s", float64(len(data))/1e6/stats.Percentile(readSecs, 50))
	e.setMedian("core.partition_s", partSecs)
	coreCounters(e, last.res, last.g.NumData(), stats.Percentile(partSecs, 50))

	// The parallel path: extra reps at Parallelism:0, same bytes, same seed.
	// The assignment must not depend on the worker count.
	par := opts
	par.Parallelism = 0
	var parSecs []float64
	if err := onAllCores(func() error {
		for i := -coldParWarm; i < coldParReps; i++ {
			e.tr.Record(i >= 0, -1-i)
			out, err := rep(par)
			if err != nil {
				return err
			}
			if i >= 0 {
				parSecs = append(parSecs, out.partSec)
			}
			e.check(out.fanout == first.fanout, "Parallelism:0 fanout %v differs from Parallelism:1's %v", out.fanout, first.fanout)
		}
		return nil
	}); err != nil {
		return err
	}
	e.set("par.speedup_cores", stats.Percentile(partSecs, 50)/stats.Percentile(parSecs, 50))

	// The graph's own size: the live heap with only the bytes, then with the
	// parsed graph as well. Two collections each time, because the first
	// only moves sync.Pool contents to the victim cache.
	liveHeap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	without := liveHeap()
	g, err := shp.ReadHMetis(bytes.NewReader(data))
	if err != nil {
		return err
	}
	e.set("hypergraph.bytes_per_edge", float64(liveHeap()-without)/float64(edges))
	runtime.KeepAlive(data) // its last use is the parse: without this the second reading loses the bytes

	// Allocation and GC of one partition call.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := shp.Partition(g, opts); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	e.set("core.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	e.set("core.gc_cycles", float64(after.NumGC-before.NumGC))

	// Parse against CSR build: the same incidences through FromEdges alone.
	incidences := g.Edges()
	e.tr.Record(true, -1-coldParReps)
	var buildErr error
	d := e.tr.Span("hypergraph.FromEdges", func() { _, buildErr = shp.FromEdges(g.NumQueries(), g.NumData(), incidences) })
	e.tr.Record(false, 0)
	if buildErr != nil {
		return fmt.Errorf("FromEdges over the parsed incidences: %w", buildErr)
	}
	e.set("hypergraph.build_s", d.Seconds())
	return nil
}

// coreCounters reports the exact work counters of one cold partition.
func coreCounters(e *env, res *shp.Result, numData int, partitionSec float64) {
	var moved, frontier, gain, scan int64
	var visitable float64
	for _, h := range res.History {
		moved += h.Moved
	}
	for _, w := range res.Work {
		frontier += w.Frontier
		gain += w.GainWork
		scan += w.ScanWork
		// An iteration at bisection level L works on one of 2^L balanced
		// subproblems, so it could visit |D|/2^L vertices; direct mode is
		// level 0 throughout and this is iterations·|D|.
		visitable += float64(numData) / float64(int64(1)<<w.Level)
	}
	e.set("core.iterations", float64(res.Iterations))
	e.set("core.moved_total", float64(moved))
	e.set("core.frontier_visits", float64(frontier))
	e.set("core.gain_work", float64(gain))
	e.set("core.scan_work", float64(scan))
	e.set("core.frontier_share", float64(frontier)/visitable)
	e.set("core.ns_per_work_unit", partitionSec*1e9/float64(gain+scan))
}
