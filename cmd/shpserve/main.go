// Command shpserve runs the assignment serving plane: an HTTP service that
// answers assign(vertex) lookups from an immutable epoch snapshot while the
// embedded partitioner absorbs churn and swaps refreshed epochs in
// atomically.
//
// Usage:
//
//	shpserve -in graph.hgr -k 32 [-format hmetis|edgelist] [-addr :7090]
//	    [-seed S] [-budget N] [-penalty X] [-eps E] [-iters N]
//	    [-churn 0.02 -churn-every 5s] [-sim] [-v]
//	shpserve -users 20000 -k 32 ...       (synthetic social workload)
//
// Endpoints:
//
//	GET  /assign?v=ID     bucket serving vertex ID + the epoch id
//	GET  /epoch           current epoch metadata
//	GET  /stats           lookup counters, sampled p50/p99, migration totals
//	POST /delta           apply a delta trace (addq/rmq/addd/setw/commit
//	                      lines); ?repartition=1 swaps immediately
//	POST /repartition     run one refinement epoch and swap
//
// -budget caps the records an epoch may move off the previous assignment
// (the serving fleet's migration traffic); -1 freezes the assignment so
// only new vertices are placed. -churn/-churn-every runs a synthetic churn
// loop in the background, so a bare `shpserve -users 50000 -k 32 -churn
// 0.02 -churn-every 2s` demonstrates the full serve-while-repartitioning
// cycle with no external driver.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"shp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shpserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":7090", "HTTP listen address")
		inPath     = flag.String("in", "", "input hypergraph file (omit for -users synthetic workload)")
		format     = flag.String("format", "hmetis", "input format: hmetis or edgelist")
		users      = flag.Int("users", 20000, "synthetic social-graph size when -in is not given")
		k          = flag.Int("k", 16, "number of buckets (servers)")
		seed       = flag.Uint64("seed", 1, "random seed")
		budget     = flag.Int64("budget", 0, "migration budget per epoch: 0 unlimited, >0 max records moved, -1 frozen")
		penalty    = flag.Float64("penalty", 0, "soft move-cost penalty (objective units per move)")
		eps        = flag.Float64("eps", 0.05, "allowed imbalance")
		iters      = flag.Int("iters", 0, "max refinement iterations per epoch (0 = default)")
		churn      = flag.Float64("churn", 0, "background churn fraction per batch (0 = no background churn)")
		churnEvery = flag.Duration("churn-every", 5*time.Second, "background churn interval")
		sim        = flag.Bool("sim", false, "replay the workload through the sharding latency simulator on every epoch")
		verbose    = flag.Bool("v", false, "log every epoch swap")
	)
	flag.Parse()

	g, err := loadGraph(*inPath, *format, *users, *seed)
	if err != nil {
		return err
	}
	log.Printf("graph: %d queries, %d data vertices, %d edges", g.NumQueries(), g.NumData(), g.NumEdges())

	opts := shp.AssignServiceOptions{
		Core: shp.Options{
			K:               *k,
			Direct:          true, // epoch budgets bind the direct refiner
			Seed:            *seed,
			Epsilon:         *eps,
			MaxIters:        *iters,
			MigrationBudget: *budget,
			MoveCostPenalty: *penalty,
		},
	}
	if *sim {
		opts.Model = &shp.LatencyModel{}
		opts.ReplaySeed = *seed
		opts.ReplayMinCount = 1
	}

	start := time.Now()
	svc, err := shp.NewAssignService(g, opts)
	if err != nil {
		return err
	}
	ep := svc.Current()
	log.Printf("epoch 0 in %v: %d records over %d buckets, fanout %.3f",
		time.Since(start).Round(time.Millisecond), len(ep.Assignment), ep.K, ep.Fanout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	churnDone := make(chan error, 1)
	if *churn > 0 {
		c, err := svc.NewChurn(*churn, *seed+1)
		if err != nil {
			return err
		}
		go func() {
			churnDone <- svc.RunChurn(ctx, c, *churnEvery, func(ep *shp.AssignEpoch) {
				if *verbose {
					logEpoch(ep)
				}
			})
		}()
	} else {
		close(churnDone)
	}

	// A client that stalls mid-request holds a connection for at most the
	// read timeout; a /delta body (up to 32 MiB) must arrive within it.
	server := &http.Server{Addr: *addr, Handler: svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second, ReadTimeout: time.Minute}
	serveDone := make(chan error, 1)
	go func() { serveDone <- server.ListenAndServe() }()
	log.Printf("serving on %s", *addr)

	select {
	case err := <-serveDone:
		stop()
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := server.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-churnDone; err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	st := svc.Stats()
	log.Printf("served %d lookups over %d epochs (p50 %dns, p99 %dns, %d records migrated)",
		st.Lookups, st.Swaps, st.P50, st.P99, st.MovedTotal)
	return nil
}

func loadGraph(inPath, format string, users int, seed uint64) (*shp.Hypergraph, error) {
	if inPath == "" {
		return shp.GenerateSocialEgoNets(users, 12, 100, 0.85, seed)
	}
	f, err := os.Open(inPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch format {
	case "hmetis":
		return shp.ReadHMetis(f)
	case "edgelist":
		return shp.ReadEdgeList(f)
	default:
		return nil, fmt.Errorf("unknown format %q", format)
	}
}

func logEpoch(ep *shp.AssignEpoch) {
	line := fmt.Sprintf("epoch %d: %d records, moved %d, fanout %.3f",
		ep.ID, len(ep.Assignment), ep.Moved, ep.Fanout)
	if ep.Migrated > 0 {
		line += fmt.Sprintf(" (engine accounting %d)", ep.Migrated)
	}
	if ep.Replay != nil {
		line += fmt.Sprintf(", simulated avg latency %.3ft at fanout %.2f",
			ep.Replay.AvgLat, ep.Replay.AvgFanout)
	}
	log.Print(line)
}
