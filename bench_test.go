// Benchmarks of the partitioner on fixed workloads, plus the comparisons the
// README argues from ("Which engine", "The incremental refinement engine",
// "Parallel refinement"). Quality benches attach the achieved fanout via
// b.ReportMetric so `go test -bench` output doubles as a quality regression
// record. The paper's tables and figures are `cmd/experiments -run <id>`;
// experiments_test.go runs every one of them at quick scale.
package shp_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"shp"
)

// graph cache so repeated benchmarks do not regenerate inputs.
var (
	graphMu    sync.Mutex
	graphCache = map[string]*shp.Hypergraph{}
)

func benchGraph(b *testing.B, name string) *shp.Hypergraph {
	b.Helper()
	graphMu.Lock()
	defer graphMu.Unlock()
	if g, ok := graphCache[name]; ok {
		return g
	}
	var g *shp.Hypergraph
	var err error
	switch name {
	case "social-small":
		g, err = shp.GenerateSocialEgoNets(8000, 12, 80, 0.85, 1)
	case "social-medium":
		g, err = shp.GenerateSocialEgoNets(30000, 14, 100, 0.85, 2)
	case "powerlaw-small":
		g, err = shp.GeneratePowerLawBipartite(10000, 16000, 90000, 2.1, 3)
	case "powerlaw-medium":
		g, err = shp.GeneratePowerLawBipartite(40000, 64000, 380000, 2.1, 4)
	default:
		b.Fatalf("unknown bench graph %q", name)
	}
	if err != nil {
		b.Fatal(err)
	}
	g = shp.PruneTrivialQueries(g, 2)
	graphCache[name] = g
	return g
}

// ---- Core partitioner benches (throughput on fixed workloads) ----

func BenchmarkPartitionSHP2(b *testing.B) {
	g := benchGraph(b, "powerlaw-small")
	b.ResetTimer()
	var fanout float64
	for i := 0; i < b.N; i++ {
		res, err := shp.Partition(g, shp.Options{K: 16, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		fanout = shp.Fanout(g, res.Assignment, 16)
	}
	b.ReportMetric(fanout, "fanout")
	b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

func BenchmarkPartitionSHPk(b *testing.B) {
	g := benchGraph(b, "powerlaw-small")
	b.ResetTimer()
	var fanout float64
	for i := 0; i < b.N; i++ {
		res, err := shp.Partition(g, shp.Options{K: 16, Direct: true, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		fanout = shp.Fanout(g, res.Assignment, 16)
	}
	b.ReportMetric(fanout, "fanout")
	b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkRefineDelta measures the incremental engine where it matters:
// warm-started refinement at a controlled churn level. A converged
// assignment is perturbed by a known moved fraction and re-refined for a
// fixed number of iterations, on the default rebuild schedule and with a
// full rebuild every iteration (NDRebuildEvery 1; byte-identical results,
// so edges/s differences are pure engine overhead/savings).
func BenchmarkRefineDelta(b *testing.B) {
	g := benchGraph(b, "powerlaw-small")
	const k = 16
	base, err := shp.Partition(g, shp.Options{K: k, Direct: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	perturb := func(frac float64) shp.Assignment {
		warm := make(shp.Assignment, len(base.Assignment))
		copy(warm, base.Assignment)
		r := rand.New(rand.NewSource(7))
		n := int(frac * float64(len(warm)))
		for i := 0; i < n; i++ {
			v := r.Intn(len(warm))
			warm[v] = int32(r.Intn(k))
		}
		return warm
	}
	for _, frac := range []float64{0.01, 0.05, 0.25} {
		warm := perturb(frac)
		for _, engine := range []struct {
			name         string
			rebuildEvery int
		}{{"incremental", 0}, {"full-rebuild", 1}} {
			b.Run(fmt.Sprintf("moved%g%%-%s", frac*100, engine.name), func(b *testing.B) {
				var iters int
				for i := 0; i < b.N; i++ {
					res, err := shp.Partition(g, shp.Options{
						K: k, Direct: true, Seed: 2, MaxIters: 6,
						Initial: warm, NDRebuildEvery: engine.rebuildEvery,
					})
					if err != nil {
						b.Fatal(err)
					}
					iters = res.Iterations
				}
				b.ReportMetric(float64(iters), "iters")
				b.ReportMetric(float64(g.NumEdges())*float64(iters)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
			})
		}
	}
}

// BenchmarkRepartitionDelta measures the session API where it matters: a
// live Partitioner absorbing delta batches at a controlled churn level,
// against re-partitioning the mutated graph from scratch each time. The
// session and cold variants replay identical delta sequences (same churn
// seed over clones of the same graph), so edges/s differences are pure
// engine savings and the fanout metrics are directly comparable — the
// session is expected to run several times faster at small churn while
// staying within 1% of the cold fanout. The hub-budget arm is one epoch of
// shpbench's churn-serve-hub workload per op — its graph, options and churn
// at seed 11, the engine-building first epoch untimed — so
// `go test -run '^$' -bench RepartitionDelta/hub-budget -cpuprofile cpu.out .`
// profiles that workload's kept epochs.
func BenchmarkRepartitionDelta(b *testing.B) {
	b.Run("hub-budget", func(b *testing.B) {
		g, err := shp.GenerateHubPowerLawBipartite(20000, 32500, 250000, 3.0, 0.0002, 130, 11)
		if err != nil {
			b.Fatal(err)
		}
		p, err := shp.NewPartitioner(g, shp.Options{K: 16, Direct: true, MaxIters: 10,
			MigrationBudget: int64(float64(g.NumData()) * 0.02), Parallelism: 1, Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		churn, err := shp.NewChurn(g, 0.002, 11)
		if err != nil {
			b.Fatal(err)
		}
		epoch := func() {
			d, err := churn.Next()
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Apply(d); err != nil {
				b.Fatal(err)
			}
			if _, err := p.Repartition(); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := p.Repartition(); err != nil { // the service's set-up epoch
			b.Fatal(err)
		}
		epoch() // the workload's dropped first epoch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			epoch()
		}
		b.StopTimer()
		b.ReportMetric(shp.Fanout(p.Graph(), p.Assignment(), 16), "fanout")
	})
	base := benchGraph(b, "social-small")
	const k = 16
	for _, frac := range []float64{0.001, 0.01, 0.1} {
		b.Run(fmt.Sprintf("churn%g%%/session", frac*100), func(b *testing.B) {
			g := base.Clone()
			p, err := shp.NewPartitioner(g, shp.Options{K: k, Direct: true, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			churn, err := shp.NewChurn(g, frac, 9)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Repartition(); err != nil { // build the warm engine
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := churn.Next()
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Apply(d); err != nil {
					b.Fatal(err)
				}
				if _, err := p.Repartition(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(shp.Fanout(p.Graph(), p.Assignment(), k), "fanout")
			b.ReportMetric(float64(p.Graph().NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
		b.Run(fmt.Sprintf("churn%g%%/cold", frac*100), func(b *testing.B) {
			g := base.Clone()
			churn, err := shp.NewChurn(g, frac, 9)
			if err != nil {
				b.Fatal(err)
			}
			var res *shp.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := churn.Next()
				if err != nil {
					b.Fatal(err)
				}
				if err := g.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
				if res, err = shp.Partition(g, shp.Options{K: k, Direct: true, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(shp.Fanout(g, res.Assignment, k), "fanout")
			b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

func BenchmarkPartitionDistributed(b *testing.B) {
	g := benchGraph(b, "social-small")
	b.ResetTimer()
	var remote float64
	for i := 0; i < b.N; i++ {
		res, err := shp.PartitionDistributed(g, shp.DistributedOptions{
			K: 16, Seed: uint64(i) + 1, Workers: 4, ItersPerLevel: 5,
		})
		if err != nil {
			b.Fatal(err)
		}
		remote = float64(res.Stats.RemoteMessages)
	}
	b.ReportMetric(remote, "remote-msgs")
}

// ---- Message-plane benchmarks ----
//
// These record the distributed engine's communication volume per backend so
// future PRs have a perf trajectory to beat: remote envelope counts are
// post-sender-side-combining, and bytes are measured rather than callback
// estimates. The two backends measure different populations — the in-process
// plane charges the codec size of every message (local included), the TCP
// plane charges the frames that actually crossed sockets (remote only,
// headers included) — so compare msg-bytes within a backend, not across.

func BenchmarkMessagePlane(b *testing.B) {
	g := benchGraph(b, "social-small")
	cases := []struct {
		name      string
		transport func() shp.Transport
	}{
		{"memory", shp.MemoryTransport},
		{"tcp", shp.TCPTransport},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var remoteMsgs, bytes, bytesPerSuperstep float64
			for i := 0; i < b.N; i++ {
				res, err := shp.PartitionDistributed(g, shp.DistributedOptions{
					K: 16, Seed: 1, Workers: 4, ItersPerLevel: 5,
					Transport: tc.transport(),
				})
				if err != nil {
					b.Fatal(err)
				}
				remoteMsgs = float64(res.Stats.RemoteMessages)
				bytes = float64(res.Stats.TotalBytes)
				bytesPerSuperstep = bytes / float64(res.Stats.Supersteps)
			}
			b.ReportMetric(remoteMsgs, "remote-msgs")
			b.ReportMetric(bytes, "msg-bytes")
			b.ReportMetric(bytesPerSuperstep, "bytes/superstep")
		})
	}
}

// BenchmarkDistDelta quantifies the dirty-query delta plane: the
// "incremental" (default schedule) and "full" (RebuildEvery 1) runs are
// byte-identical in quality (pinned by TestDistIncrementalMatchesFull), so
// the interesting metrics are the gain-superstep bytes of late iterations
// (moved fraction <= 1%), where the delta plane ships churn-proportional
// traffic while the full rebroadcast stays O(|E|). Compare
// late-bytes/superstep between the two sub-benchmarks; the reduction should
// be well above 3x.
func BenchmarkDistDelta(b *testing.B) {
	g := benchGraph(b, "social-small")
	for _, tc := range []struct {
		name         string
		rebuildEvery int
	}{
		{"incremental", 0},
		{"full", 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var lateBytes, lateIters, totalBytes float64
			for i := 0; i < b.N; i++ {
				res, err := shp.PartitionDistributed(g, shp.DistributedOptions{
					K: 16, Seed: 1, Workers: 4, MinMoveFraction: 1e-9,
					RebuildEvery: tc.rebuildEvery,
				})
				if err != nil {
					b.Fatal(err)
				}
				n, lb := res.LateGainBytes(0.01)
				lateBytes = float64(lb)
				lateIters = float64(n)
				totalBytes = float64(res.Stats.TotalBytes)
			}
			if lateIters > 0 {
				b.ReportMetric(lateBytes/lateIters, "late-bytes/superstep")
			}
			b.ReportMetric(totalBytes, "msg-bytes")
		})
	}
}

// BenchmarkCheckpoint prices the fault-tolerance plane: the "on" run
// checkpoints at the default cadence (every 64 supersteps) while "off"
// ablates checkpointing entirely. The two are byte-identical in quality
// (pinned by TestDistCheckpointingIsPureObservation), so the interesting
// numbers are ckpt-bytes and the wall-clock delta — the snapshot plane is
// sparse varint encoding over already-materialized state, and at cadence 64
// its overhead stays under a few percent of the partition time.
func BenchmarkCheckpoint(b *testing.B) {
	g := benchGraph(b, "social-small")
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"on", false},
		{"off", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var ckptBytes float64
			for i := 0; i < b.N; i++ {
				res, err := shp.PartitionDistributed(g, shp.DistributedOptions{
					K: 16, Seed: 1, Workers: 4,
					DisableCheckpointing: tc.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				ckptBytes = float64(res.Stats.CheckpointBytes)
			}
			b.ReportMetric(ckptBytes, "ckpt-bytes")
		})
	}
}

func BenchmarkMetricsFanout(b *testing.B) {
	g := benchGraph(b, "powerlaw-medium")
	a := shp.RandomAssignment(g.NumData(), 32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shp.Fanout(g, a, 32)
	}
}

// ---- Ablations of the README's called-out design choices ----

// BenchmarkAblationObjective compares the three objectives' achieved fanout
// (Figure 8 in miniature).
func BenchmarkAblationObjective(b *testing.B) {
	g := benchGraph(b, "powerlaw-small")
	for _, obj := range []shp.Objective{shp.ObjPFanout, shp.ObjFanout, shp.ObjCliqueNet} {
		b.Run(obj.String(), func(b *testing.B) {
			var fanout float64
			for i := 0; i < b.N; i++ {
				res, err := shp.Partition(g, shp.Options{K: 8, Seed: 1, Objective: obj})
				if err != nil {
					b.Fatal(err)
				}
				fanout = shp.Fanout(g, res.Assignment, 8)
			}
			b.ReportMetric(fanout, "fanout")
		})
	}
}

// BenchmarkScalingWorkers measures parallel speedup of SHP-2 (the Figure 5b
// story at bench scale).
func BenchmarkScalingWorkers(b *testing.B) {
	g := benchGraph(b, "powerlaw-medium")
	for _, workers := range []int{1, 4, 8, 16} {
		b.Run(map[int]string{1: "w1", 4: "w4", 8: "w8", 16: "w16"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shp.Partition(g, shp.Options{K: 32, Seed: 1, Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelRefine prices SHP-2's task concurrency: cold partitions
// with 1/2/4/8 recursion tasks refining at once (capped at GOMAXPROCS) on
// the same graph and seed, reporting edges/s plus speedup against the
// serial sub-benchmark (w1 runs first and pins the baseline). Every point in
// the sweep computes the byte-identical assignment — the Parallelism
// determinism contract — so the curve measures pure execution speed, never
// quality drift.
func BenchmarkParallelRefine(b *testing.B) {
	g := benchGraph(b, "powerlaw-small")
	var serialSecPerOp float64
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shp.Partition(g, shp.Options{K: 16, Seed: 1, Parallelism: workers}); err != nil {
					b.Fatal(err)
				}
			}
			secPerOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(g.NumEdges())/secPerOp, "edges/s")
			if workers == 1 {
				serialSecPerOp = secPerOp
			} else if serialSecPerOp > 0 {
				b.ReportMetric(serialSecPerOp/secPerOp, "speedup")
			}
		})
	}
}

// BenchmarkScalingK measures run time vs bucket count: SHP-2 should be
// logarithmic in k, SHP-k linear (the Table 3 contrast).
func BenchmarkScalingK(b *testing.B) {
	g := benchGraph(b, "powerlaw-small")
	for _, k := range []int{8, 64, 512} {
		b.Run(map[int]string{8: "SHP2-k8", 64: "SHP2-k64", 512: "SHP2-k512"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shp.Partition(g, shp.Options{K: k, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, k := range []int{8, 64, 512} {
		b.Run(map[int]string{8: "SHPk-k8", 64: "SHPk-k64", 512: "SHPk-k512"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shp.Partition(g, shp.Options{K: k, Direct: true, Seed: 1, MaxIters: 20}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Serving plane ----

// servingService builds an AssignService over a private clone of a bench
// graph (the service's churn mutates its graph; the cache must stay clean).
func servingService(b *testing.B, budget int64) *shp.AssignService {
	b.Helper()
	g := benchGraph(b, "social-small").Clone()
	svc, err := shp.NewAssignService(g, shp.AssignServiceOptions{
		Core: shp.Options{K: 16, Direct: true, Seed: 5, MigrationBudget: budget},
	})
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

// BenchmarkAssignLookup measures raw lookup throughput against a static
// epoch — the serving plane's hot path: one atomic pointer load plus one
// slice index per call.
func BenchmarkAssignLookup(b *testing.B) {
	svc := servingService(b, 0)
	n := int32(len(svc.Current().Assignment))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink int32
		v := int32(0)
		for pb.Next() {
			bk, _, err := svc.Assign(v)
			if err != nil {
				b.Error(err)
				return
			}
			sink ^= bk
			v += 7
			if v >= n {
				v -= n
			}
		}
		_ = sink
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkEpochSwap measures the serve-while-repartitioning cycle: each
// op is one full churn epoch (generate delta, apply, refine under a
// migration budget, swap) while background goroutines hammer lookups the
// whole time. The reported p99 is the sampled lookup latency *including*
// swap interference — the number a serving fleet cares about.
func BenchmarkEpochSwap(b *testing.B) {
	svc := servingService(b, 500)
	churn, err := svc.NewChurn(0.02, 6)
	if err != nil {
		b.Fatal(err)
	}
	n := int32(len(svc.Current().Assignment))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var sink int32
			v := int32(worker)
			for {
				select {
				case <-stop:
					_ = sink
					return
				default:
				}
				bk, _, err := svc.Assign(v)
				if err == nil {
					sink ^= bk
				}
				v += 11
				if v >= n {
					v -= n
				}
			}
		}(w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.ChurnEpoch(churn); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	st := svc.Stats()
	b.ReportMetric(float64(st.P99), "lookup-p99-ns")
	b.ReportMetric(float64(st.Lookups)/b.Elapsed().Seconds(), "lookups/s")
}
