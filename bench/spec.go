// Package bench is the repository's benchmark: four workloads that drive the
// partitioner from outside through its public functions, end-to-end metrics
// with regression bounds, per-layer metrics from a traced pass, output
// checks counted as operations, and a ledger format with -check and -diff.
// cmd/shpbench is its thin main; README.md holds the tables and rationale.
package bench

// Seeds. Every generator, churn stream, hash baseline and replay draws from
// the one -seed. HeldOutSeed was not run while the benchmark was tuned; a
// later change that claims a gain must also hold on it.
const (
	DefaultSeed uint64 = 11
	HeldOutSeed uint64 = 1011
)

// Metric names one number the benchmark prints.
type Metric struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the baseline by which an end-to-end metric may
	// worsen before a change counts as a regression; 0 for per-layer metrics.
	Bound float64
	// Exact marks a value that a seed fixes completely: -check requires two
	// sets to agree on it to the last bit.
	Exact bool
	// On is the prefix of the workload names the metric is measured on: ""
	// for all four, "cold-" for the two cold workloads, or one full name.
	// Elsewhere that layer does nothing and the metric is reported as 0.
	On string
}

// EndToEnd lists the metrics a user of the system sees, measured with
// tracing off on every workload. These are BENCHMARK.json's end_to_end.
//
// The bounds are this benchmark's own noise floor, not a wish: each is at
// least three times the widest quartile spread two sets of ten runs with ten
// seeds showed on any workload (README.md, "Noise floor"). The quality
// metrics repeat exactly for one seed, and -check compares them exactly;
// their spread, up to 3 %, is graph-to-graph variation. setup_s and wall_s
// are settled (see speed.go): on the shared 2-vCPU reference box the wall
// clock's quartile spread was 68 % on churn-serve-hub, the settled times' is
// 2 to 15 %, most of it again from seed to seed. Their bounds and
// peak_rss_mb's are the most the run contract allows.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "fanout", Unit: "buckets", Better: "lower", Bound: 0.10, Exact: true},
	{Name: "fanout_vs_hash", Unit: "ratio", Better: "lower", Bound: 0.09, Exact: true},
	{Name: "multiget_mean_t", Unit: "t", Better: "lower", Bound: 0.06, Exact: true},
	{Name: "multiget_p99_t", Unit: "t", Better: "lower", Bound: 0.07, Exact: true},
	{Name: "imbalance", Unit: "ratio", Better: "lower", Bound: 0.05, Exact: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// Pairings that exist on one workload only. The run contract wants every
// end-to-end metric on every workload and never 0, so these are listed with
// the per-layer metrics in BENCHMARK.json (reported on the traced pass, 0
// off their workload); the untraced pass still measures them, the ledger
// stores them beside the metrics above, and -check and -diff hold them to
// the bounds here.
var WorkloadEndToEnd = []Metric{
	{Name: "epoch_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, On: ChurnServeHub},
	{Name: "epoch_ms_p75", Unit: "ms", Better: "lower", Bound: 0.25, On: ChurnServeHub},
	{Name: "moved_per_epoch", Unit: "records", Better: "lower", Bound: 0.05, Exact: true, On: ChurnServeHub},
	{Name: "wire_mb", Unit: "MB", Better: "lower", Bound: 0.01, Exact: true, On: DistTCPSocial},
	{Name: "failed_ops", Unit: "ratio", Better: "lower", Exact: true},
}

// PerLayer lists the traced pass's metrics, prefixed by the module they
// measure. README.md's predictions table says which end-to-end metric each
// should move and on which workload; everywhere else the prediction is "no
// change". With WorkloadEndToEnd these are BENCHMARK.json's per_layer.
var PerLayer = []Metric{
	{Name: "hgio.read_s", Unit: "s", Better: "lower", On: "cold-"},
	{Name: "hgio.read_mb_per_s", Unit: "MB/s", Better: "higher", On: "cold-"},
	{Name: "hgio.write_s", Unit: "s", Better: "lower", On: "cold-"},

	{Name: "hypergraph.build_s", Unit: "s", Better: "lower", On: "cold-"},
	{Name: "hypergraph.bytes_per_edge", Unit: "B", Better: "lower", On: "cold-"},
	{Name: "hypergraph.apply_delta_ms_p50", Unit: "ms", Better: "lower", On: ChurnServeHub},
	{Name: "hypergraph.new_queries_per_epoch", Unit: "count", Better: "lower", On: ChurnServeHub},

	{Name: "core.partition_s", Unit: "s", Better: "lower", On: "cold-"},
	{Name: "core.iterations", Unit: "count", Better: "lower", On: "cold-"},
	{Name: "core.moved_total", Unit: "count", Better: "lower", On: "cold-"},
	{Name: "core.frontier_visits", Unit: "count", Better: "lower", On: "cold-"},
	{Name: "core.gain_work", Unit: "count", Better: "lower", On: "cold-"},
	{Name: "core.scan_work", Unit: "count", Better: "lower", On: "cold-"},
	{Name: "core.frontier_share", Unit: "ratio", Better: "lower", On: "cold-"},
	{Name: "core.ns_per_work_unit", Unit: "ns", Better: "lower", On: "cold-"},
	{Name: "core.alloc_mb", Unit: "MB", Better: "lower", On: "cold-"},
	{Name: "core.gc_cycles", Unit: "count", Better: "lower", On: "cold-"},

	{Name: "core.repartition_ms_p50", Unit: "ms", Better: "lower", On: ChurnServeHub},
	{Name: "core.warm_frontier_share", Unit: "ratio", Better: "lower", On: ChurnServeHub},
	{Name: "core.warm_gain_work_per_epoch", Unit: "count", Better: "lower", On: ChurnServeHub},
	{Name: "core.warm_iterations_per_epoch", Unit: "count", Better: "lower", On: ChurnServeHub},
	{Name: "core.migrated_per_epoch", Unit: "records", Better: "lower", On: ChurnServeHub},
	{Name: "core.budget_used_share", Unit: "ratio", Better: "lower", On: ChurnServeHub},
	{Name: "core.warm_vs_cold", Unit: "ratio", Better: "lower", On: ChurnServeHub},

	{Name: "par.speedup_cores", Unit: "ratio", Better: "higher", On: "cold-"},

	{Name: "partition.fanout_s", Unit: "s", Better: "lower"},

	{Name: "sharding.replay_queries_per_s", Unit: "1/s", Better: "higher"},

	{Name: "serve.new_s", Unit: "s", Better: "lower", On: ChurnServeHub},
	{Name: "serve.lookup_mps", Unit: "M/s", Better: "higher", On: ChurnServeHub},
	{Name: "serve.lookup_mps_idle", Unit: "M/s", Better: "higher", On: ChurnServeHub},
	{Name: "serve.lookup_swap_slowdown", Unit: "ratio", Better: "lower", On: ChurnServeHub},
	{Name: "serve.lookup_ns_p50", Unit: "ns", Better: "lower", On: ChurnServeHub},
	{Name: "serve.lookup_ns_p99", Unit: "ns", Better: "lower", On: ChurnServeHub},
	{Name: "serve.lookup_errors", Unit: "count", Better: "lower", On: ChurnServeHub},
	{Name: "serve.swaps", Unit: "count", Better: "higher", On: ChurnServeHub},
	{Name: "serve.epoch_build_ms_p50", Unit: "ms", Better: "lower", On: ChurnServeHub},

	{Name: "pregel.supersteps", Unit: "count", Better: "lower", On: DistTCPSocial},
	{Name: "pregel.messages", Unit: "count", Better: "lower", On: DistTCPSocial},
	{Name: "pregel.remote_messages", Unit: "count", Better: "lower", On: DistTCPSocial},
	{Name: "pregel.wire_mb", Unit: "MB", Better: "lower", On: DistTCPSocial},
	{Name: "pregel.agg_mb", Unit: "MB", Better: "lower", On: DistTCPSocial},
	{Name: "pregel.retried_frames", Unit: "count", Better: "lower", On: DistTCPSocial},
	{Name: "pregel.recoveries", Unit: "count", Better: "lower", On: DistTCPSocial},
	{Name: "pregel.load_balance", Unit: "ratio", Better: "lower", On: DistTCPSocial},
	{Name: "pregel.ckpt_saves", Unit: "count", Better: "lower", On: DistTCPSocial},
	{Name: "pregel.ckpt_mb", Unit: "MB", Better: "lower", On: DistTCPSocial},
	{Name: "pregel.ckpt_save_s", Unit: "s", Better: "lower", On: DistTCPSocial},
	{Name: "pregel.tcp_cost_s", Unit: "s", Better: "lower", On: DistTCPSocial},
	{Name: "pregel.ring_msgs_per_s_mem", Unit: "1/s", Better: "higher", On: DistTCPSocial},
	{Name: "pregel.ring_msgs_per_s_tcp", Unit: "1/s", Better: "higher", On: DistTCPSocial},

	{Name: "distshp.partition_s", Unit: "s", Better: "lower", On: DistTCPSocial},
	{Name: "distshp.iterations", Unit: "count", Better: "lower", On: DistTCPSocial},
	{Name: "distshp.bytes_per_edge", Unit: "B", Better: "lower", On: DistTCPSocial},
	{Name: "distshp.late_gain_bytes_per_iter", Unit: "B", Better: "lower", On: DistTCPSocial},
	{Name: "distshp.late_proposal_bytes_per_iter", Unit: "B", Better: "lower", On: DistTCPSocial},
	{Name: "distshp.phase_mb.bucket", Unit: "MB", Better: "lower", On: DistTCPSocial},
	{Name: "distshp.phase_mb.gain", Unit: "MB", Better: "lower", On: DistTCPSocial},
	{Name: "distshp.phase_mb.proposal", Unit: "MB", Better: "lower", On: DistTCPSocial},
	{Name: "distshp.phase_mb.move", Unit: "MB", Better: "lower", On: DistTCPSocial},
	{Name: "distshp.slowdown_vs_core", Unit: "ratio", Better: "lower", On: DistTCPSocial},
	{Name: "distshp.fanout_vs_core", Unit: "ratio", Better: "lower", On: DistTCPSocial},

	{Name: "gen.graph_s", Unit: "s", Better: "lower"},
	{Name: "gen.churn_next_ms_p50", Unit: "ms", Better: "lower", On: ChurnServeHub},
	{Name: "bench.warmup_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.wall_raw_s", Unit: "s", Better: "lower"},
	{Name: "bench.stolen_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.probe_ms", Unit: "ms", Better: "lower"},
}

// TracedMetrics is what a traced run reports: BENCHMARK.json's per_layer.
func TracedMetrics() []Metric {
	return append(append([]Metric(nil), WorkloadEndToEnd...), PerLayer...)
}

// LedgerEndToEnd is what the ledger stores per workload and what -check and
// -diff compare: the end-to-end metrics and the one-workload pairings.
func LedgerEndToEnd() []Metric {
	return append(append([]Metric(nil), EndToEnd...), WorkloadEndToEnd...)
}

// Workload names.
const (
	ColdBisectSocial = "cold-bisect-social"
	ColdKwayPowerlaw = "cold-kway-powerlaw"
	ChurnServeHub    = "churn-serve-hub"
	DistTCPSocial    = "dist-tcp-social"
)

// Workload is one set of inputs the benchmark runs. Sizes, K, repetition
// floors and the rationale live next to each run function.
type Workload struct {
	Name string
	// Sizes records the generator call and options, for the ledger.
	Sizes string
	run   func(*env) error
}

// Workloads lists the four workloads in the order a full run takes them.
var Workloads = []Workload{
	{Name: ColdBisectSocial, Sizes: coldBisectSizes, run: runColdBisectSocial},
	{Name: ColdKwayPowerlaw, Sizes: coldKwaySizes, run: runColdKwayPowerlaw},
	{Name: ChurnServeHub, Sizes: churnSizes, run: runChurnServeHub},
	{Name: DistTCPSocial, Sizes: distSizes, run: runDistTCPSocial},
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
