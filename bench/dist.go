package bench

import (
	"fmt"
	"os"
	"slices"
	"time"

	"shp"
	"shp/internal/pregel"
	"shp/internal/stats"
)

// dist-tcp-social — the paper's actual deployment mode: SHP-2 through the
// vertex-centric BSP engine over loopback TCP with two workers and a disk
// checkpointer. internal/pregel (compute, exchange, barrier, checkpoint)
// and internal/distshp do everything; the in-process refiners do nothing.
// It is the only workload with real sockets and disk. Every level runs
// exactly distItersPerLevel iterations (96 supersteps), the way the paper
// fixes its schedule: left to the moved-fraction threshold, which is a dozen
// vertices on a graph this size, the superstep count and with it the wall
// differ by 15 % from seed to seed. K is 8 and not the issue's 16 because
// the protocol balances only in expectation: over thirty seeds of a
// 12 000-user graph, buckets of 1500 records end between 5.0 and 6.9 % above
// the mean, buckets of 750 between 5.1 and 14.9 %, past the 0.10 imbalance
// check. The two workers share the run's one core (see Run): with a core
// each, a rep's 96 barriers each wake a sleeping thread, which the reference
// box does at very uneven speed — ten runs of ten seeds spread 41 % between
// their quartiles. On one core a rep takes twice as long, so the graph has
// 12 000 users and about twelve reps fit in a run.
const (
	distUsers         = 12000
	distK             = 8
	distWorkers       = 2
	distItersPerLevel = 8
	distSizes         = "gen.SocialEgoNets(12000, 14, 100, 0.85) pruned at degree 2; distshp.Options{K:8, Workers:2, ItersPerLevel:8, MinMoveFraction:1e-12, TCPTransport, disk checkpointer}; GOMAXPROCS 1"

	distMinReps = 3
	// The ring program of the traced pass: every vertex forwards one int64
	// to its successor for ringSteps supersteps.
	ringVertices = 20000
	ringSteps    = 20
)

// tracedCheckpointer decorates a Checkpointer with a span and counters: the
// engine reports checkpoint bytes but not how long Save took.
type tracedCheckpointer struct {
	inner   pregel.Checkpointer
	tr      *Tracer
	saves   int
	bytes   int64
	seconds float64
}

func (c *tracedCheckpointer) Save(superstep int, snapshot []byte) error {
	var err error
	d := c.tr.Span("Checkpointer.Save", func() { err = c.inner.Save(superstep, snapshot) })
	c.saves++
	c.bytes += int64(len(snapshot))
	c.seconds += d.Seconds()
	return err
}

func (c *tracedCheckpointer) Latest() (int, []byte, bool, error) { return c.inner.Latest() }

func runDistTCPSocial(e *env) error {
	var g *shp.Hypergraph
	if err := e.setup(func() error {
		var err error
		e.tr.Span("gen.Graph", func() {
			if g, err = shp.GenerateSocialEgoNets(e.scaled(distUsers, 1000), 14, 100, 0.85, e.cfg.Seed); err == nil {
				g = shp.PruneTrivialQueries(g, 2)
			}
		})
		return err
	}); err != nil {
		return err
	}
	e.setMedian("gen.graph_s", e.tr.Seconds("gen.Graph"))

	// rep is one distributed partition → fanout pass with a fresh
	// checkpoint directory inside the output directory.
	type repOut struct {
		res     *shp.DistributedResult
		ckpt    *tracedCheckpointer
		fanout  float64
		wall    time.Duration
		secs    float64 // wall, settled
		partSec float64
	}
	rep := func(transport shp.Transport) (out repOut, err error) {
		mk := e.speed.mark()
		defer func() { out.secs = e.settle(mk, out.wall) }()
		dir, err := os.MkdirTemp(e.cfg.OutDir, "ckpt-")
		if err != nil {
			return out, err
		}
		defer os.RemoveAll(dir)
		disk, err := shp.NewDiskCheckpointer(dir)
		if err != nil {
			return out, err
		}
		out.ckpt = &tracedCheckpointer{inner: disk, tr: e.tr}
		opts := shp.DistributedOptions{K: distK, Workers: distWorkers, ItersPerLevel: distItersPerLevel, MinMoveFraction: 1e-12,
			Seed: e.cfg.Seed, Transport: transport, Checkpointer: out.ckpt}
		out.wall = e.tr.Span("bench.rep", func() {
			out.partSec = e.tr.Span("shp.PartitionDistributed", func() { out.res, err = shp.PartitionDistributed(g, opts) }).Seconds()
			if err != nil {
				return
			}
			e.tr.Span("shp.Fanout", func() { out.fanout = shp.Fanout(g, out.res.Assignment, distK) })
		})
		return out, err
	}

	var first repOut
	var err error
	warm := e.tr.Span("bench.warmup", func() { first, err = rep(shp.TCPTransport()) })
	if err != nil {
		return err
	}
	e.set("bench.warmup_s", warm.Seconds())

	var walls, tracedWalls, rawWalls, partSecs []float64
	last := first
	if err := e.timedLoop(e.scaled(distMinReps, 2), func(i int, traced bool) error {
		out, err := rep(shp.TCPTransport())
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
		e.check(out.res.Stats.Recoveries == 0, "rep %d took %d recoveries", i, out.res.Stats.Recoveries)
		last = out
		return nil
	}); err != nil {
		return err
	}
	e.setMedian("wall_s", walls)
	st := last.res.Stats
	e.set("wire_mb", float64(st.TotalBytes)/1e6)
	if err := e.quality(g, last.res.Assignment, distK); err != nil {
		return err
	}
	if !e.cfg.Trace {
		return nil
	}

	e.traceOverhead(walls, tracedWalls)
	e.setMedian("bench.wall_raw_s", rawWalls)
	tcpSec := stats.Percentile(partSecs, 50)
	e.setMedian("distshp.partition_s", partSecs)
	e.set("distshp.iterations", float64(last.res.Iterations))
	e.set("distshp.bytes_per_edge", float64(st.TotalBytes)/float64(g.NumEdges()))
	lateIters, lateGain := last.res.LateGainBytes(0.01)
	e.set("distshp.late_gain_bytes_per_iter", float64(lateGain)/float64(max(lateIters, 1)))
	lateIters, lateProposal := last.res.LateProposalBytes(0.01)
	e.set("distshp.late_proposal_bytes_per_iter", float64(lateProposal)/float64(max(lateIters, 1)))
	for p, phase := range st.PhaseTotals(4) {
		e.set("distshp.phase_mb."+[]string{"bucket", "gain", "proposal", "move"}[p], float64(phase.BytesSent)/1e6)
	}

	var active, busiest int64
	for _, s := range st.PerSuperstep {
		active += int64(s.ActiveVertices)
		busiest += int64(s.MaxWorkerActive)
	}
	e.set("pregel.supersteps", float64(st.Supersteps))
	e.set("pregel.messages", float64(st.TotalMessages))
	e.set("pregel.remote_messages", float64(st.RemoteMessages))
	e.set("pregel.wire_mb", float64(st.TotalBytes)/1e6)
	e.set("pregel.agg_mb", float64(st.AggBytes)/1e6)
	e.set("pregel.retried_frames", float64(st.RetriedFrames))
	e.set("pregel.recoveries", float64(st.Recoveries))
	e.set("pregel.load_balance", float64(busiest*distWorkers)/float64(max(active, 1)))
	e.set("pregel.ckpt_saves", float64(last.ckpt.saves))
	e.set("pregel.ckpt_mb", float64(last.ckpt.bytes)/1e6)
	e.set("pregel.ckpt_save_s", last.ckpt.seconds)

	// What the sockets cost: the same run on the in-process transport, as a
	// difference of two runs. The partition must not depend on the transport.
	e.tr.Record(true, -2)
	mem, err := rep(shp.MemoryTransport())
	if err != nil {
		return err
	}
	e.set("pregel.tcp_cost_s", tcpSec-mem.partSec)
	e.check(slices.Equal(mem.res.Assignment, last.res.Assignment), "memory and TCP transports returned different assignments")

	// What the BSP plane costs: in-process SHP-2 on the same graph.
	e.tr.Record(true, -3)
	var core *shp.Result
	d := e.tr.Span("shp.Partition", func() {
		core, err = shp.Partition(g, shp.Options{K: distK, Seed: e.cfg.Seed, Parallelism: 1})
	})
	if err != nil {
		return err
	}
	e.set("distshp.slowdown_vs_core", tcpSec/d.Seconds())
	e.set("distshp.fanout_vs_core", last.fanout/shp.Fanout(g, core.Assignment, distK))

	// The engine without distshp.
	for _, t := range []struct {
		name      string
		transport pregel.Transport
	}{{"mem", pregel.MemoryTransport()}, {"tcp", pregel.TCPTransport()}} {
		e.tr.Record(true, -4)
		rate, err := ringRate(e, t.transport)
		if err != nil {
			return fmt.Errorf("ring over %s: %w", t.name, err)
		}
		e.set("pregel.ring_msgs_per_s_"+t.name, rate)
	}
	e.tr.Record(false, 0)
	return nil
}

// ringRate runs a bench-owned vertex program through the engine — every
// vertex sends one int64 to its successor each superstep and counts what it
// receives — and returns messages per second. With ids sharded over two
// workers every message crosses the transport.
func ringRate(e *env, transport pregel.Transport) (float64, error) {
	n, steps := e.scaled(ringVertices, 200), ringSteps
	vertices := make([]*pregel.Vertex, n)
	for i := range vertices {
		vertices[i] = &pregel.Vertex{ID: pregel.VertexID(i), State: int64(0)}
	}
	codecs := pregel.NewRegistry()
	codecs.Register(int64(0), pregel.Int64Codec{}) //shp:nocodec(pregel's own codec, fuzzed in internal/distshp; the ring only borrows it for loopback frames it wrote itself)
	engine, err := pregel.NewEngine(pregel.Options{
		Workers:       distWorkers,
		MaxSupersteps: steps + 1,
		Transport:     transport,
		Codecs:        codecs,
		Compute: func(ctx *pregel.Context, v *pregel.Vertex, messages []pregel.Message) {
			v.State = v.State.(int64) + int64(len(messages))
			if ctx.Superstep() < steps {
				ctx.Send((v.ID+1)%pregel.VertexID(n), int64(1))
			} else {
				ctx.VoteToHalt()
			}
		},
	}, vertices)
	if err != nil {
		return 0, err
	}
	var st *pregel.Stats
	d := e.tr.Span("pregel.Engine.Run", func() { st, err = engine.Run() })
	if err != nil {
		return 0, err
	}
	delivered := true
	for i := range vertices {
		delivered = delivered && engine.Vertex(pregel.VertexID(i)).State.(int64) == int64(steps)
	}
	e.check(delivered && st.TotalMessages == int64(n*steps), "ring delivered %d messages, want %d at every vertex", st.TotalMessages, n*steps)
	return float64(st.TotalMessages) / d.Seconds(), nil
}
