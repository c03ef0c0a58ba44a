// Command shp partitions a hypergraph file and writes the bucket
// assignment, reporting the objectives before and after.
//
// Usage:
//
//	shp -in graph.hgr -k 32 [-format hmetis|edgelist] [-out assignment.txt]
//	    [-p 0.5] [-eps 0.05] [-direct] [-objective pfanout|fanout|cliquenet]
//	    [-iters N] [-seed S] [-workers W] [-warm previous.txt] [-penalty X]
//	    [-v] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	    [-distributed [-transport memory|tcp]
//	     [-checkpoint-dir dir] [-checkpoint-every N] [-fault kill:worker=2,step=9]]
//	    [-stream trace.txt -prune=false]
//
// Every run reports end-to-end throughput as edges/s (|E| divided by the
// partitioning wall-clock), so performance work is measurable outside
// `go test -bench`. -v adds a per-iteration table of the work counters
// (frontier size, gain work, scan work) next to the moved counts, making
// the active-frontier engine's sublinear idle iterations visible from the
// CLI. -cpuprofile and -memprofile write pprof files covering the
// partitioning call.
//
// With -stream the run becomes a dynamic-graph replay: after the initial
// partition, delta batches from the trace file (addq/rmq/addd/setw/commit
// lines; see hgen -trace to generate one) are applied to a live Partitioner
// session, and each batch reports its repartition wall time, the number of
// records that moved shard, and the fanout trajectory. Traces address
// vertices of the graph as loaded, so streaming requires -prune=false.
//
// With -distributed the partition runs on the vertex-centric BSP engine
// (the paper's Giraph mode); -transport selects the message plane between
// the in-process exchange and a loopback TCP backend with real framing and
// serialization, and the engine's traffic accounting is reported.
// Distributed runs checkpoint every -checkpoint-every iterations (default
// 16, which is 64 supersteps) so a worker failure rolls back and replays
// instead of failing the job; -checkpoint-dir persists snapshots to disk,
// and -fault injects deterministic failures (a worker kill, frame drops, or
// exchange delays) to exercise the recovery path — with -v the resilience
// counters (recoveries, retried frames, checkpoint bytes) are printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"shp"
	"shp/internal/par"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shp:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		inPath    = flag.String("in", "", "input hypergraph file (required)")
		format    = flag.String("format", "hmetis", "input format: hmetis or edgelist")
		outPath   = flag.String("out", "", "output assignment file (default stdout)")
		k         = flag.Int("k", 2, "number of buckets")
		p         = flag.Float64("p", 0.5, "fanout probability for p-fanout")
		eps       = flag.Float64("eps", 0.05, "allowed imbalance")
		direct    = flag.Bool("direct", false, "use direct k-way refinement (SHP-k) instead of recursive bisection (SHP-2)")
		objective = flag.String("objective", "pfanout", "objective: pfanout, fanout, or cliquenet")
		iters     = flag.Int("iters", 0, "max refinement iterations (0 = paper defaults)")
		seed      = flag.Uint64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "SHP-2 recursion tasks refining at once, capped at the core count (0 = all cores); SHP-k runs on one; with -distributed, the BSP worker count")
		warmPath  = flag.String("warm", "", "warm-start assignment file (incremental update)")
		penalty   = flag.Float64("penalty", 0, "move-cost penalty for incremental updates")
		prune     = flag.Bool("prune", true, "remove degree-<2 queries before partitioning")
		verbose   = flag.Bool("v", false, "print per-iteration frontier sizes and work counters")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the partitioning to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile taken after partitioning to this file")
		dist      = flag.Bool("distributed", false, "run on the vertex-centric BSP engine (SHP-2 only)")
		transport = flag.String("transport", "memory", "distributed message plane: memory or tcp")
		stream    = flag.String("stream", "", "delta trace file to replay through a live partitioner session")
		ckptDir   = flag.String("checkpoint-dir", "", "persist distributed checkpoints to this directory (default: in-memory store)")
		ckptEvery = flag.Int("checkpoint-every", 0, "distributed checkpoint cadence in iterations (0 = default 16)")
		fault     = flag.String("fault", "", "inject faults into the distributed transport, e.g. kill:worker=2,step=9 or drop:every=7")
	)
	flag.Parse()
	if *inPath == "" {
		flag.Usage()
		return fmt.Errorf("missing -in")
	}
	if *stream != "" && *prune {
		return fmt.Errorf("-stream traces address the unpruned graph; pass -prune=false")
	}
	if *stream != "" && *dist {
		return fmt.Errorf("-stream requires the in-process session engine, not -distributed")
	}

	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var g *shp.Hypergraph
	switch *format {
	case "hmetis":
		g, err = shp.ReadHMetis(f)
	case "edgelist":
		g, err = shp.ReadEdgeList(f)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	if *prune {
		g = shp.PruneTrivialQueries(g, 2)
	}
	fmt.Fprintf(os.Stderr, "loaded %s: |Q|=%d |D|=%d |E|=%d\n", *inPath, g.NumQueries(), g.NumData(), g.NumEdges())

	if *cpuProf != "" {
		pf, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf == "" {
			return
		}
		mf, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shp: memprofile:", err)
			return
		}
		defer mf.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			fmt.Fprintln(os.Stderr, "shp: memprofile:", err)
		}
	}()

	if *dist {
		return runDistributed(g, *k, *p, *eps, *iters, *seed, *workers, *transport,
			*ckptDir, *ckptEvery, *fault, *verbose, *outPath)
	}
	if *ckptDir != "" || *ckptEvery != 0 || *fault != "" {
		return fmt.Errorf("-checkpoint-dir, -checkpoint-every, and -fault require -distributed")
	}

	opts := shp.Options{
		K: *k, P: *p, Epsilon: *eps, Direct: *direct,
		MaxIters: *iters, Seed: *seed, Parallelism: *workers,
		MoveCostPenalty: *penalty,
	}
	switch *objective {
	case "pfanout":
		opts.Objective = shp.ObjPFanout
	case "fanout":
		opts.Objective = shp.ObjFanout
	case "cliquenet":
		opts.Objective = shp.ObjCliqueNet
	default:
		return fmt.Errorf("unknown objective %q", *objective)
	}
	if *warmPath != "" {
		wf, err := os.Open(*warmPath)
		if err != nil {
			return err
		}
		warm, err := shp.ReadAssignment(wf)
		wf.Close()
		if err != nil {
			return err
		}
		opts.Initial = warm
	}

	if *stream != "" {
		return runStream(g, opts, *stream, *outPath)
	}

	before := shp.Measure(g, shp.RandomAssignment(g.NumData(), *k, *seed), *k, *p)
	res, err := shp.Partition(g, opts)
	if err != nil {
		return err
	}
	after := shp.Measure(g, res.Assignment, *k, *p)
	fmt.Fprintf(os.Stderr, "partitioned into k=%d in %v (%d iterations)\n", *k, res.Elapsed, res.Iterations)
	fmt.Fprintf(os.Stderr, "throughput: %.4g edges/s, up to %d recursion tasks at once (|E| / wall-clock; assignment identical for any -workers)\n",
		float64(g.NumEdges())/res.Elapsed.Seconds(), par.Workers(*workers))
	fmt.Fprintf(os.Stderr, "fanout:    random %.4f -> shp %.4f (%.1f%%)\n",
		before.Fanout, after.Fanout, 100*(after.Fanout/before.Fanout-1))
	fmt.Fprintf(os.Stderr, "p-fanout:  random %.4f -> shp %.4f\n", before.PFanout, after.PFanout)
	fmt.Fprintf(os.Stderr, "imbalance: %.4f (eps %.2f)\n", after.Imbalance, *eps)
	if *verbose {
		printWork(res)
	}

	out := os.Stdout
	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer of.Close()
		out = of
	}
	return shp.WriteAssignment(out, res.Assignment)
}

// printWork dumps the per-iteration work counters next to the pinned
// history: the frontier the gain pass visited and the gain/scan work units
// spent, all of which shrink with the moving frontier (and jump back to |D|
// on a sweep iteration).
func printWork(res *shp.Result) {
	if len(res.Work) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%5s %5s %5s %10s %12s %12s %10s\n",
		"level", "task", "iter", "frontier", "gain-work", "scan-work", "moved")
	for i, w := range res.Work {
		var moved int64
		if i < len(res.History) {
			moved = res.History[i].Moved
		}
		fmt.Fprintf(os.Stderr, "%5d %5d %5d %10d %12d %12d %10d\n",
			w.Level, w.Task, w.Iter, w.Frontier, w.GainWork, w.ScanWork, moved)
	}
}

// parseFaultPlan parses a -fault spec into a deterministic injection plan.
// Forms: "kill:worker=W,step=S" kills worker W's exchange at superstep S
// (S >= 1); "drop:every=N" drops the first attempt of every N-th exchange
// (a transient fault, absorbed by retries); "delay:every=N,ms=M" sleeps M
// milliseconds before every N-th exchange.
func parseFaultPlan(spec string) (shp.FaultPlan, error) {
	var plan shp.FaultPlan
	kind, rest, _ := strings.Cut(spec, ":")
	fields := map[string]int{}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return plan, fmt.Errorf("bad -fault field %q (want key=value)", kv)
			}
			n, err := strconv.Atoi(val)
			if err != nil {
				return plan, fmt.Errorf("bad -fault value %q: %v", kv, err)
			}
			fields[key] = n
		}
	}
	switch kind {
	case "kill":
		plan.KillWorker = fields["worker"]
		plan.KillStep = fields["step"]
		if plan.KillStep < 1 {
			return plan, fmt.Errorf("-fault kill needs step>=1 (got %q)", spec)
		}
	case "drop":
		plan.DropEvery = fields["every"]
		if plan.DropEvery < 1 {
			return plan, fmt.Errorf("-fault drop needs every>=1 (got %q)", spec)
		}
	case "delay":
		plan.DelayEvery = fields["every"]
		plan.Delay = time.Duration(fields["ms"]) * time.Millisecond
		if plan.DelayEvery < 1 {
			return plan, fmt.Errorf("-fault delay needs every>=1 (got %q)", spec)
		}
	default:
		return plan, fmt.Errorf("unknown -fault kind %q (want kill, drop, or delay)", kind)
	}
	return plan, nil
}

// runStream replays a delta trace through a live Partitioner session: one
// initial partition, then per batch an Apply + Repartition with wall time,
// shard churn (records that moved), and the fanout trajectory reported.
func runStream(g *shp.Hypergraph, opts shp.Options, tracePath, outPath string) error {
	tf, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	deltas, err := shp.ReadDeltaTrace(tf, g.NumQueries(), g.NumData())
	tf.Close()
	if err != nil {
		return err
	}
	p, err := shp.NewPartitioner(g, opts)
	if err != nil {
		return err
	}
	prev := p.Assignment()
	init := p.Result()
	fmt.Fprintf(os.Stderr, "initial partition: k=%d in %v, fanout %.4f\n",
		opts.K, init.Elapsed, shp.Fanout(g, prev, opts.K))
	fmt.Fprintf(os.Stderr, "replaying %d delta batches from %s\n", len(deltas), tracePath)
	fmt.Fprintf(os.Stderr, "%5s %10s %12s %10s %9s %9s %10s\n",
		"batch", "ops", "repartition", "moved", "|E|", "fanout", "edges/s")

	var totalRepart time.Duration
	for i, d := range deltas {
		if err := p.Apply(d); err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		start := time.Now()
		res, err := p.Repartition()
		if err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
		elapsed := time.Since(start)
		totalRepart += elapsed
		moved := len(res.Assignment) - len(prev) // new records count as moved
		for v := range prev {
			if prev[v] != res.Assignment[v] {
				moved++
			}
		}
		fanout := shp.Fanout(p.Graph(), res.Assignment, opts.K)
		fmt.Fprintf(os.Stderr, "%5d %10d %12v %10d %9d %9.4f %10.4g\n",
			i, len(d.Ops), elapsed.Round(time.Microsecond), moved,
			p.Graph().NumEdges(), fanout,
			float64(p.Graph().NumEdges())/elapsed.Seconds())
		prev = res.Assignment
	}
	fmt.Fprintf(os.Stderr, "replayed %d batches in %v total repartition time (vs %v initial partition)\n",
		len(deltas), totalRepart.Round(time.Microsecond), init.Elapsed.Round(time.Microsecond))

	out := os.Stdout
	if outPath != "" {
		of, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer of.Close()
		out = of
	}
	return shp.WriteAssignment(out, prev)
}

// runDistributed partitions on the BSP engine and reports its measured
// message-plane traffic alongside the quality numbers: totals, per-protocol-
// phase byte attribution, and the moved-vertices trajectory that drives the
// dirty-query patch plane.
func runDistributed(g *shp.Hypergraph, k int, p, eps float64, iters int, seed uint64,
	workers int, transport, ckptDir string, ckptEvery int, fault string, verbose bool, outPath string) error {

	opts := shp.DistributedOptions{
		K: k, P: p, Epsilon: eps, ItersPerLevel: iters,
		Seed: seed, Workers: workers, CheckpointEvery: ckptEvery,
	}
	if ckptDir != "" {
		cp, err := shp.NewDiskCheckpointer(ckptDir)
		if err != nil {
			return err
		}
		opts.Checkpointer = cp
	}
	switch transport {
	case "memory":
		opts.Transport = shp.MemoryTransport()
	case "tcp":
		opts.Transport = shp.TCPTransport()
	default:
		return fmt.Errorf("unknown transport %q (want memory or tcp)", transport)
	}
	if fault != "" {
		plan, err := parseFaultPlan(fault)
		if err != nil {
			return err
		}
		opts.Transport = shp.FaultyTransport(opts.Transport, plan)
	}
	before := shp.Measure(g, shp.RandomAssignment(g.NumData(), k, seed), k, p)
	res, err := shp.PartitionDistributed(g, opts)
	if err != nil {
		return err
	}
	after := shp.Measure(g, res.Assignment, k, p)
	fmt.Fprintf(os.Stderr, "distributed (%s transport): k=%d in %v, %d supersteps, %d iterations\n",
		transport, k, res.Elapsed, res.Stats.Supersteps, res.Iterations)
	fmt.Fprintf(os.Stderr, "throughput: %.4g edges/s (|E| / wall-clock)\n",
		float64(g.NumEdges())/res.Elapsed.Seconds())
	fmt.Fprintf(os.Stderr, "fanout:    random %.4f -> shp %.4f\n", before.Fanout, after.Fanout)
	fmt.Fprintf(os.Stderr, "messages:  %d total, %d crossed workers, %.2f MB on the %s plane\n",
		res.Stats.TotalMessages, res.Stats.RemoteMessages,
		float64(res.Stats.TotalBytes)/1e6, transport)
	phases := res.Stats.PhaseTotals(4)
	fmt.Fprintf(os.Stderr, "phase KB:  bucket-updates %.1f, gain/patch %.1f, proposals %.1f, moves %.1f\n",
		float64(phases[0].BytesSent)/1e3, float64(phases[1].BytesSent)/1e3,
		float64(phases[2].BytesSent)/1e3, float64(phases[3].BytesSent)/1e3)
	var totalMoved int64
	for _, rec := range res.History {
		totalMoved += rec.Moved
	}
	late, lateBytes := res.LateGainBytes(0.01)
	fmt.Fprintf(os.Stderr, "moved:     %d vertices across %d iterations; %d late iterations (<=1%% moved) shipped %.1f KB on the gain/patch superstep\n",
		totalMoved, len(res.History), late, float64(lateBytes)/1e3)
	lateP, lateAgg := res.LateProposalBytes(0.01)
	fmt.Fprintf(os.Stderr, "proposals: %.1f KB aggregator traffic total; %d late iterations shipped %.1f KB of retract/assert deltas\n",
		float64(res.Stats.AggBytes)/1e3, lateP, float64(lateAgg)/1e3)
	if verbose {
		fmt.Fprintf(os.Stderr, "resilience: %d recoveries, %d retried frames, %.1f KB of checkpoint snapshots\n",
			res.Stats.Recoveries, res.Stats.RetriedFrames, float64(res.Stats.CheckpointBytes)/1e3)
	}

	out := os.Stdout
	if outPath != "" {
		of, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer of.Close()
		out = of
	}
	return shp.WriteAssignment(out, res.Assignment)
}
