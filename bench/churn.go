package bench

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shp"
	"shp/internal/serve"
	"shp/internal/stats"
)

// churn-serve-hub — the same core kernel used differently: a live
// AssignService absorbs 0.2 % hyperedge churn per epoch through warm
// patching, the frontier and budgeted move selection, plus
// hypergraph.ApplyDelta and serve's swap and lookup; the cold sweeps are
// bypassed after set-up. One client goroutine looks vertices up in a closed
// loop beside the mutator, so a swap-side gain that costs readers shows.
// The mutator is serial (Parallelism:1), and it shares the run's one core
// with the client (see Run): with a core each, ten runs of ten seeds spread
// 68 % between their quartiles on the reference box, and one run of one seed
// took 1.7 s per rep and the next 3.4 s.
//
// A rep is set-up (generate, NewAssignService) followed by one dropped and
// churnKeptEpochs kept epochs, and the run repeats whole reps: every rep of
// a seed then does the same work, set-up gets a median for free, and the
// service never drifts further than 41 epochs from its start. One long
// service would not do: its per-epoch cost depends on how far refinement
// has converged, which after a few hundred epochs differs 2.3× from seed to
// seed. For the same reason each epoch refines for at most churnMaxIters
// iterations, as an updater with a deadline would; left to the
// moved-fraction threshold an epoch takes anywhere between 3 and 60.
const (
	churnQueries  = 20000
	churnData     = 32500
	churnEdges    = 250000
	churnExponent = 3.0
	churnHubShare = 0.0002
	churnHubSize  = 130
	churnK        = 16
	churnFraction = 0.002
	churnMaxIters = 10
	// churnBudgetShare of the records may migrate per epoch.
	churnBudgetShare = 0.02
	churnSizes       = "gen.HubPowerLawBipartite(20000, 32500, 250000, 3.0, 0.0002, 130); serve.Options{K:16, Direct:true, MaxIters:10, MigrationBudget:2% of records, Parallelism:1}; per rep 1+40 epochs at churn 0.002; 1 lookup client, 1024 lookups then 200 µs think time; GOMAXPROCS 1"

	// The first epoch of a rep is dropped: it builds the warm engine. At 40
	// kept epochs p75 has ten samples beyond it even in a single rep.
	churnKeptEpochs = 40
	churnMinReps    = 3
	// The shadow partitioner of the traced pass replays this many deltas.
	churnShadowEpochs = 10
	// How long the traced pass lets the client run with no mutator.
	churnIdleWindow = time.Second
)

// lookupClient is the closed-loop reader: one goroutine calling Assign over
// the base vertex range until stopped, lookupBatch lookups back to back and
// then lookupThink of think time. The think time keeps the client at a few
// percent of the core it shares with the mutator: the scheduler lets it in
// when the mutator is preempted, every 10 ms or so. Rates are per second of
// client busy time, so a swap that slows lookups still shows.
type lookupClient struct {
	stop      atomic.Bool
	completed atomic.Uint64
	busyNS    atomic.Int64
	errors    atomic.Uint64
	wg        sync.WaitGroup
}

const (
	lookupBatch = 1024
	lookupThink = 200 * time.Microsecond
)

func startLookups(svc *shp.AssignService, base int32) *lookupClient {
	c := &lookupClient{}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		v := int32(0)
		for !c.stop.Load() {
			start := time.Now()
			for i := 0; i < lookupBatch; i++ {
				if _, _, err := svc.Assign(v); err != nil {
					c.errors.Add(1)
				}
				if v++; v == base {
					v = 0
				}
			}
			c.busyNS.Add(time.Since(start).Nanoseconds())
			c.completed.Add(lookupBatch)
			time.Sleep(lookupThink)
		}
	}()
	// On the run's one core the client first runs when the caller yields;
	// yield now, so that even a rep of a few milliseconds has a rate.
	runtime.Gosched()
	return c
}

// halt stops the client, waits for it, and returns its lookups per busy
// second.
func (c *lookupClient) halt() float64 {
	c.stop.Store(true)
	c.wg.Wait()
	return float64(c.completed.Load()) / (float64(c.busyNS.Load()) / 1e9)
}

func churnGraph(e *env) (*shp.Hypergraph, error) {
	return shp.GenerateHubPowerLawBipartite(e.scaled(churnQueries, 1000), e.scaled(churnData, 1600),
		int64(e.scaled(churnEdges, 12000)), churnExponent, churnHubShare, e.scaled(churnHubSize, 8), e.cfg.Seed)
}

func churnOptions(seed uint64, budget int64) shp.Options {
	return shp.Options{K: churnK, Direct: true, MaxIters: churnMaxIters, MigrationBudget: budget, Parallelism: 1, Seed: seed}
}

// churnRep is the state one rep leaves behind for the quality pass and the
// traced pass's extras.
type churnRep struct {
	g      *shp.Hypergraph
	svc    *shp.AssignService
	final  *shp.AssignEpoch
	budget int64
	// deltas are the rep's first churnShadowEpochs deltas, and shadowSum the
	// checksum the service published after the last of them.
	deltas    []*shp.Delta
	shadowSum uint64
	// moved and newQueries are summed over the kept epochs; exact for a seed.
	moved, newQueries int64
}

func runChurnServeHub(e *env) error {
	kept := e.scaled(churnKeptEpochs, 4)
	var (
		setupSecs, walls, tracedWalls, rawWalls, lookupRates []float64
		epochMS, rawEpochMS, applyMS, repartMS, buildMS      []float64
		nextMS                                               []float64
		last                                                 churnRep
		firstSum                                             uint64
	)
	if err := e.timedLoop(e.scaled(churnMinReps, 2), func(i int, traced bool) error {
		var rep churnRep
		var err error
		mk := e.speed.mark()
		setup := e.tr.Span("bench.setup", func() {
			e.tr.Span("gen.Graph", func() { rep.g, err = churnGraph(e) })
			if err != nil {
				return
			}
			rep.budget = int64(float64(rep.g.NumData()) * churnBudgetShare)
			e.tr.Span("serve.New", func() {
				rep.svc, err = shp.NewAssignService(rep.g, shp.AssignServiceOptions{Core: churnOptions(e.cfg.Seed, rep.budget)})
			})
		})
		if err != nil {
			return err
		}
		setupSecs = append(setupSecs, e.settle(mk, setup))
		churn, err := rep.svc.NewChurn(churnFraction, e.cfg.Seed)
		if err != nil {
			return err
		}

		client := startLookups(rep.svc, int32(rep.g.NumData()))
		defer client.halt() // for the error returns; a finished rep has halted it already
		prev := rep.svc.Current()
		var wall time.Duration
		var repEpochMS []float64
		for n := 0; n <= kept; n++ {
			var d *shp.Delta
			next := e.tr.Span("gen.Churn.Next", func() { d, err = churn.Next() })
			if err != nil {
				return err
			}
			var ep *shp.AssignEpoch
			var apply, repart time.Duration
			epoch := e.tr.Span("bench.epoch", func() {
				apply = e.tr.Span("Service.ApplyDelta", func() { err = rep.svc.ApplyDelta(d) })
				if err != nil {
					return
				}
				repart = e.tr.Span("Service.Repartition", func() { ep, err = rep.svc.Repartition() })
			})
			if err != nil {
				return err
			}
			e.check(ep.ID == prev.ID+1, "epoch id %d follows %d", ep.ID, prev.ID)
			e.check(serve.Checksum(ep.Assignment) == ep.Checksum, "epoch %d checksum does not match its assignment", ep.ID)
			e.check(ep.Migrated <= rep.budget, "epoch %d migrated %d records, budget %d", ep.ID, ep.Migrated, rep.budget)
			if traced {
				// The service's own work outside the engine, re-run on the
				// published epoch: fanout, checksum and the moved diff.
				d := e.tr.Span("serve.EpochBuild", func() {
					shp.Fanout(rep.g, ep.Assignment, churnK)
					serve.Checksum(ep.Assignment)
					countMoved(prev.Assignment, ep.Assignment)
				})
				buildMS = append(buildMS, d.Seconds()*1e3)
			}
			if len(rep.deltas) < churnShadowEpochs {
				rep.deltas, rep.shadowSum = append(rep.deltas, d), ep.Checksum
			}
			prev = ep
			if n == 0 {
				e.set("bench.warmup_s", epoch.Seconds()) // dropped: builds the warm engine
				mk = e.speed.mark()
				continue
			}
			wall += epoch
			rep.moved += ep.Moved
			rep.newQueries += int64(d.NewQueries())
			repEpochMS = append(repEpochMS, epoch.Seconds()*1e3)
			applyMS = append(applyMS, apply.Seconds()*1e3)
			repartMS = append(repartMS, repart.Seconds()*1e3)
			nextMS = append(nextMS, next.Seconds()*1e3)
		}
		lookupRates = append(lookupRates, client.halt())
		e.check(client.errors.Load() == 0 && rep.svc.Stats().LookupErrors == 0, "rep %d: %d lookups failed", i, client.errors.Load())

		rep.final = prev
		if i == 0 {
			firstSum = prev.Checksum
		}
		e.check(prev.Checksum == firstSum, "rep %d ended on another assignment than rep 0", i)
		// The kept epochs are settled as one interval: a 30 ms epoch holds too
		// few probe samples, and the untimed churn.Next between epochs is
		// stolen from and slowed like the epochs themselves.
		secs := e.settle(mk, wall)
		if traced {
			tracedWalls = append(tracedWalls, secs)
		} else {
			walls = append(walls, secs)
			for _, ms := range repEpochMS {
				epochMS = append(epochMS, ms*secs/wall.Seconds())
			}
		}
		rawWalls = append(rawWalls, wall.Seconds())
		rawEpochMS = append(rawEpochMS, repEpochMS...)
		last = rep
		return nil
	}); err != nil {
		return err
	}
	e.setMedian("setup_s", setupSecs)
	e.setMedian("wall_s", walls)
	e.setMedian("epoch_ms_p50", epochMS)
	e.set("epoch_ms_p75", stats.Percentile(epochMS, 75))
	e.samples["epoch_ms_p75"] = len(epochMS)
	e.check(HighestPercentile(len(epochMS)) >= 75, "%d epochs leave fewer than ten samples beyond p75", len(epochMS))
	e.set("moved_per_epoch", float64(last.moved)/float64(kept))
	if err := e.quality(last.g, last.final.Assignment, churnK); err != nil {
		return err
	}
	if !e.cfg.Trace {
		return nil
	}

	e.traceOverhead(walls, tracedWalls)
	e.setMedian("bench.wall_raw_s", rawWalls)
	e.setMedian("gen.graph_s", e.tr.Seconds("gen.Graph"))
	e.setMedian("serve.new_s", e.tr.Seconds("serve.New"))
	e.setMedian("gen.churn_next_ms_p50", nextMS)
	e.setMedian("hypergraph.apply_delta_ms_p50", applyMS)
	e.set("hypergraph.new_queries_per_epoch", float64(last.newQueries)/float64(kept))
	e.setMedian("core.repartition_ms_p50", repartMS)
	e.setMedian("serve.epoch_build_ms_p50", buildMS)
	e.set("core.warm_vs_cold", stats.Percentile(rawEpochMS, 50)/(e.m["serve.new_s"]*1e3)) // raw over raw

	idle := startLookups(last.svc, int32(last.g.NumData()))
	time.Sleep(time.Duration(float64(churnIdleWindow) * e.cfg.Scale))
	idleRate, busyRate := idle.halt(), stats.Percentile(lookupRates, 50)
	e.set("serve.lookup_mps", busyRate/1e6)
	e.set("serve.lookup_mps_idle", idleRate/1e6)
	e.set("serve.lookup_swap_slowdown", idleRate/busyRate)
	st := last.svc.Stats()
	e.set("serve.lookup_ns_p50", float64(st.P50))
	e.set("serve.lookup_ns_p99", float64(st.P99))
	e.set("serve.lookup_errors", float64(st.LookupErrors))
	e.set("serve.swaps", float64(st.Swaps))
	return churnShadow(e, last)
}

func countMoved(prev, next shp.Assignment) int64 {
	var n int64
	for i := range min(len(prev), len(next)) {
		if prev[i] != next[i] {
			n++
		}
	}
	return n
}

// churnShadow replays a rep's first deltas through a bare shp.Partitioner
// on a freshly generated base graph: the service hides core.Result, and the
// warm path's work counters are only there. The shadow must land on the
// assignment the service published for the same epoch.
func churnShadow(e *env, rep churnRep) error {
	g, err := churnGraph(e)
	if err != nil {
		return err
	}
	p, err := shp.NewPartitioner(g, churnOptions(e.cfg.Seed, rep.budget))
	if err != nil {
		return err
	}
	if _, err := p.Repartition(); err != nil { // serve.New publishes epoch 0 this way
		return err
	}
	var frontier, gain, iterations, migrated int64
	var visitable float64
	for _, d := range rep.deltas {
		if err := p.Apply(d); err != nil {
			return err
		}
		res, err := p.Repartition()
		if err != nil {
			return err
		}
		for _, w := range res.Work {
			frontier += w.Frontier
			gain += w.GainWork
		}
		iterations += int64(res.Iterations)
		visitable += float64(res.Iterations) * float64(p.Graph().NumData())
		migrated += res.Migrated
	}
	e.check(serve.Checksum(p.Assignment()) == rep.shadowSum, "shadow partitioner diverged from the service after %d deltas", len(rep.deltas))
	n := float64(len(rep.deltas))
	e.set("core.warm_frontier_share", float64(frontier)/max(visitable, 1))
	e.set("core.warm_gain_work_per_epoch", float64(gain)/n)
	e.set("core.warm_iterations_per_epoch", float64(iterations)/n)
	e.set("core.migrated_per_epoch", float64(migrated)/n)
	e.set("core.budget_used_share", float64(migrated)/n/float64(rep.budget))
	return nil
}
