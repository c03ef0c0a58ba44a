// Package shp is the public API of the Social Hash Partitioner: scalable
// balanced k-way hypergraph partitioning that minimizes fanout by local
// search on the probabilistic-fanout objective (Kabiljo et al., "Social
// Hash Partitioner: A Scalable Distributed Hypergraph Partitioner",
// VLDB 2017).
//
// A hypergraph is represented as a bipartite graph between queries
// (hyperedges) and data vertices. Partitioning splits the data vertices
// into K balanced buckets so that the average number of buckets a query
// touches — its fanout — is minimized. In storage sharding, buckets are
// servers and low fanout means fewer, faster multi-get requests.
//
// Quickstart:
//
//	g, _ := shp.FromHyperedges(6, [][]int32{{0, 1, 5}, {0, 1, 2, 3}, {3, 4, 5}})
//	p, _ := shp.NewPartitioner(g, shp.Options{K: 2, Seed: 42})
//	fmt.Println(shp.Fanout(g, p.Assignment(), 2))
//
// The central type is the Partitioner session: it owns a mutable
// hypergraph, the current assignment, and the warm refinement state, so a
// living graph can evolve through Apply(delta) and be re-partitioned
// cheaply with Repartition — the paper's production mode, where shardings
// are updated continuously instead of recomputed (Section 5). Partition,
// PartitionMultiDim and PartitionDistributed are the one-shot entry points.
//
// The two execution strategies from the paper are both available:
// recursive bisection (SHP-2, the default and the open-sourced variant) and
// direct k-way refinement (SHP-k, Options.Direct). PartitionDistributed
// runs the same algorithm through a vertex-centric BSP engine that
// simulates a Giraph cluster, including message accounting.
package shp

import (
	"io"

	"shp/internal/core"
	"shp/internal/distshp"
	"shp/internal/gen"
	"shp/internal/hgio"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/pregel"
	"shp/internal/serve"
	"shp/internal/sharding"
)

// Hypergraph is the bipartite query–data representation of a hypergraph:
// every query vertex corresponds to one hyperedge spanning the data
// vertices adjacent to it.
type Hypergraph = hypergraph.Bipartite

// Builder incrementally assembles a Hypergraph.
type Builder = hypergraph.Builder

// Edge is one (query, data) incidence.
type Edge = hypergraph.Edge

// NewBuilder creates a builder for a graph with numQueries hyperedges and
// numData data vertices.
func NewBuilder(numQueries, numData int) *Builder {
	return hypergraph.NewBuilder(numQueries, numData)
}

// FromEdges builds a hypergraph from an incidence list.
func FromEdges(numQueries, numData int, edges []Edge) (*Hypergraph, error) {
	return hypergraph.FromEdges(numQueries, numData, edges)
}

// FromHyperedges builds a hypergraph from explicit hyperedge vertex lists.
func FromHyperedges(numData int, hyperedges [][]int32) (*Hypergraph, error) {
	return hypergraph.FromHyperedges(numData, hyperedges)
}

// PruneTrivialQueries removes hyperedges smaller than minDegree; the paper
// prunes isolated and degree-one queries, whose fanout is fixed at one.
func PruneTrivialQueries(g *Hypergraph, minDegree int) *Hypergraph {
	return hypergraph.PruneTrivialQueries(g, minDegree)
}

// ReadHMetis parses the hMetis/PaToH ".hgr" hypergraph format.
func ReadHMetis(r io.Reader) (*Hypergraph, error) { return hgio.ReadHMetis(r) }

// WriteHMetis writes the hMetis format.
func WriteHMetis(w io.Writer, g *Hypergraph) error { return hgio.WriteHMetis(w, g) }

// ReadEdgeList parses a "q d" bipartite edge list.
func ReadEdgeList(r io.Reader) (*Hypergraph, error) { return hgio.ReadEdgeList(r) }

// WriteEdgeList writes the bipartite edge-list format.
func WriteEdgeList(w io.Writer, g *Hypergraph) error { return hgio.WriteEdgeList(w, g) }

// ReadAssignment reads one bucket id per line.
func ReadAssignment(r io.Reader) ([]int32, error) { return hgio.ReadAssignment(r) }

// ReadDeltaTrace parses chained delta batches in the line-oriented trace
// format (addq/rmq/addd/setw/commit) written against a graph with the given
// vertex counts.
func ReadDeltaTrace(r io.Reader, baseQueries, baseData int) ([]*Delta, error) {
	return hgio.ReadDeltaTrace(r, baseQueries, baseData)
}

// WriteDeltaTrace writes delta batches in the trace format.
func WriteDeltaTrace(w io.Writer, deltas []*Delta) error {
	return hgio.WriteDeltaTrace(w, deltas)
}

// WriteAssignment writes one bucket id per line.
func WriteAssignment(w io.Writer, a []int32) error { return hgio.WriteAssignment(w, a) }

// Assignment maps each data vertex to its bucket.
type Assignment = partition.Assignment

// Options configures Partition; the zero value plus K uses the paper's
// recommended defaults (p = 0.5, ε = 0.05, recursive bisection with
// final-p-fanout lookahead; moves are paired by Section 3.4's gain
// histograms, the one swap protocol). Refinement is incremental —
// per-iteration cost tracks churn, not |E| — and every patch is exact
// integer arithmetic, so it produces the partitions of the paper's full
// recomputation every iteration for a fixed seed. Parallelism is how many
// recursion tasks refine at once (each on one goroutine; SHP-k and sessions
// ignore it), and it never changes a result either.
type Options = core.Options

// Result is a finished partitioning with per-iteration history.
type Result = core.Result

// IterStats records one refinement iteration.
type IterStats = core.IterStats

// WorkStats records one refinement iteration's work counters: the frontier
// the gain pass visited and the gain/scan work units spent. Unlike History,
// Work is not pinned to full recomputation's — sublinear frontier work is
// the whole point.
type WorkStats = core.WorkStats

// Objective selects the optimization target.
type Objective = core.Objective

// Objectives: probabilistic fanout (default), plain fanout (p -> 1), and
// the clique-net weighted edge-cut (p -> 0, Lemma 2).
const (
	ObjPFanout   = core.ObjPFanout
	ObjFanout    = core.ObjFanout
	ObjCliqueNet = core.ObjCliqueNet
)

// Partitioner is a long-lived partitioning session over a mutable
// hypergraph: it owns the graph, the current Assignment, and the warm
// refinement state (neighbor-data CSR, patchable gain accumulators, bucket
// loads). Build one with NewPartitioner, evolve the graph with Apply, and
// call Repartition to absorb the changes at a cost proportional to the
// churn rather than to |E|.
type Partitioner struct {
	s *core.Session
}

// NewPartitioner computes the initial partition of g (recursive SHP-2 by
// default, SHP-k with Options.Direct) and returns the live session. The
// session owns g from here on: mutate it only through Apply.
func NewPartitioner(g *Hypergraph, opts Options) (*Partitioner, error) {
	s, err := core.NewSession(g, opts)
	if err != nil {
		return nil, err
	}
	return &Partitioner{s: s}, nil
}

// Delta is an ordered batch of structural changes to a hypergraph:
// AddHyperedge, RemoveHyperedge, AddData, and SetDataWeight ops, built
// against known vertex counts and applied atomically.
type Delta = hypergraph.Delta

// NewDelta starts an empty delta against a graph with the given vertex
// counts. Prefer Partitioner.NewDelta, which fills the counts in.
func NewDelta(numQueries, numData int) *Delta {
	return hypergraph.NewDelta(numQueries, numData)
}

// NewDelta starts an empty delta against the session's current graph.
func (p *Partitioner) NewDelta() *Delta { return p.s.NewDelta() }

// Apply splices the delta into the session's hypergraph — CSR splice with
// spare capacity, reverse-adjacency patch, cache invalidation — and marks
// the touched neighborhood dirty for the next Repartition. Atomic: on
// error nothing changes; a delta that would take the graph past the gain
// range fails with ErrGainRange. The assignment is not updated until
// Repartition (new vertices read as Unassigned).
func (p *Partitioner) Apply(d *Delta) error { return p.s.Apply(d) }

// Repartition absorbs every delta applied since the last call: new
// vertices are seeded by a greedy min-fanout placement, the warm engine
// state is patched for the structural changes, and direct k-way refinement
// runs from the current assignment, re-evaluating only what the churn
// touched. With Options.MoveCostPenalty, each epoch additionally penalizes
// moves away from its starting assignment to keep churn low.
func (p *Partitioner) Repartition() (*Result, error) { return p.s.Repartition() }

// Graph returns the session's hypergraph (read-only outside Apply).
func (p *Partitioner) Graph() *Hypergraph { return p.s.Graph() }

// Assignment returns a copy of the current assignment.
func (p *Partitioner) Assignment() Assignment { return p.s.Assignment() }

// Result returns the most recent partitioning result (the initial one, or
// the last Repartition).
func (p *Partitioner) Result() *Result { return p.s.Result() }

// ErrGainRange is the error (wrapped) that Partition, PartitionDistributed,
// NewPartitioner, Partitioner.Repartition and Partitioner.Apply return for a
// graph too large for the integer gain arithmetic: past about 5·10^8
// query-weighted incidences, or with a MoveCostPenalty whose |D| copies
// overflow it.
var ErrGainRange = core.ErrGainRange

// Partition runs SHP on g once: recursive bisection by default, direct
// k-way with Options.Direct. A graph that keeps evolving is better served by
// a Partitioner (NewPartitioner), which keeps warm state between
// repartitions.
func Partition(g *Hypergraph, opts Options) (*Result, error) {
	return core.Partition(g, opts)
}

// MultiDimOptions configures multi-dimensionally balanced partitioning.
type MultiDimOptions = core.MultiDimOptions

// MultiDimResult reports the merged partition and per-dimension loads.
type MultiDimResult = core.MultiDimResult

// PartitionMultiDim implements Section 5's heuristic for balance across
// several load dimensions: over-partition into C*K buckets, then merge to K
// while balancing every dimension.
func PartitionMultiDim(g *Hypergraph, opts MultiDimOptions) (*MultiDimResult, error) {
	return core.PartitionMultiDim(g, opts)
}

// DistributedOptions configures PartitionDistributed.
type DistributedOptions = distshp.Options

// DistributedResult is a finished distributed partitioning with engine
// statistics (per-superstep message and byte counts).
type DistributedResult = distshp.Result

// DistributedIterRecord is one refinement iteration's entry in a
// DistributedResult's History: level, moved count, and the fanout the
// master maintained from per-query live-entry diffs. Iteration j occupies
// supersteps 4j..4j+3 of Stats.PerSuperstep.
type DistributedIterRecord = distshp.IterRecord

// PartitionDistributed runs SHP-2 through the vertex-centric BSP engine
// (the paper's Giraph implementation, Figure 3): four supersteps per
// refinement iteration, master-side histogram pairing, and incremental
// neighbor-data maintenance. The engine's vertices are the data vertices:
// each query lives with its worker's mirror table rather than as a Giraph
// vertex, as in Figure 3, and runs in that worker's hook. K must be a power
// of two. It is the paper's distributed mode, one shot: there is no session
// over the BSP engine.
func PartitionDistributed(g *Hypergraph, opts DistributedOptions) (*DistributedResult, error) {
	return distshp.Partition(g, opts)
}

// Transport is a message-plane backend for the distributed engine; see
// MemoryTransport and TCPTransport.
type Transport = pregel.Transport

// MemoryTransport returns the in-process message backend (the default):
// messages move between workers as Go values, bytes are accounted from
// registered codec sizes.
func MemoryTransport() Transport { return pregel.MemoryTransport() }

// TCPTransport returns the loopback TCP backend: each engine worker gets a
// socket endpoint and message batches are framed, serialized, and shipped
// over real connections, so byte counts are measured on the wire. Partitions
// are identical to the in-process backend for the same seed.
func TCPTransport() Transport { return pregel.TCPTransport() }

// Checkpointer persists superstep snapshots for the distributed engine's
// worker-failure recovery; see DistributedOptions.Checkpointer.
type Checkpointer = pregel.Checkpointer

// NewMemoryCheckpointer returns an in-process checkpoint store (the default
// for distributed runs): snapshots survive engine restarts within the
// process but not process death.
func NewMemoryCheckpointer() Checkpointer { return pregel.NewMemoryCheckpointer() }

// NewDiskCheckpointer returns a checkpoint store persisting snapshots as
// atomically-written files under dir, so a rerun over the same directory
// can resume after process death.
func NewDiskCheckpointer(dir string) (Checkpointer, error) {
	return pregel.NewDiskCheckpointer(dir)
}

// FaultPlan schedules deterministic fault injection for FaultyTransport:
// a one-shot worker kill at a chosen superstep, periodic transient frame
// drops, and exchange delays.
type FaultPlan = pregel.FaultPlan

// FaultyTransport wraps a transport with deterministic fault injection, for
// exercising the checkpoint/recovery plane: an injected worker kill rolls
// the run back to the latest snapshot and replays, and the recovered result
// is byte-identical to an undisturbed run.
func FaultyTransport(inner Transport, plan FaultPlan) Transport {
	return pregel.FaultyTransport(inner, plan)
}

// WorkerFailure is the typed error a distributed run surfaces when a worker
// becomes unreachable and recovery is disabled or exhausted.
type WorkerFailure = pregel.WorkerFailure

// Fanout returns the average query fanout, the paper's headline metric.
func Fanout(g *Hypergraph, a Assignment, k int) float64 {
	return partition.Fanout(g, a, k)
}

// PFanout returns the average probabilistic fanout with probability p.
func PFanout(g *Hypergraph, a Assignment, p float64) float64 {
	return partition.PFanout(g, a, p)
}

// CliqueNetCut returns the weighted edge-cut of the clique-net graph
// (Lemma 2) without materializing it.
func CliqueNetCut(g *Hypergraph, a Assignment) float64 {
	return partition.CliqueNetCut(g, a)
}

// SOED returns the sum of external degrees.
func SOED(g *Hypergraph, a Assignment, k int) float64 {
	return partition.SOED(g, a, k)
}

// Imbalance returns max bucket size over the ideal n/k, minus one.
func Imbalance(a Assignment, k int) float64 {
	return partition.Imbalance(a, k)
}

// Metrics bundles every objective for reporting.
type Metrics = partition.Metrics

// Measure computes all metrics in one call.
func Measure(g *Hypergraph, a Assignment, k int, p float64) Metrics {
	return partition.Measure(g, a, k, p)
}

// RandomAssignment assigns each of n vertices a uniform random bucket, the
// paper's initialization and the natural baseline.
func RandomAssignment(n, k int, seed uint64) Assignment {
	return partition.Random(n, k, seed)
}

// GeneratePowerLawBipartite synthesizes a bipartite hypergraph with
// power-law degrees (web/social graph shape).
func GeneratePowerLawBipartite(numQ, numD int, numEdges int64, exponent float64, seed uint64) (*Hypergraph, error) {
	return gen.PowerLawBipartite(numQ, numD, numEdges, exponent, seed)
}

// GenerateHubPowerLawBipartite synthesizes a power-law bipartite hypergraph
// with a pinned fraction of maximum-degree hub queries (each spanning
// exactly hubDegree distinct data vertices; hubDegree <= 0 defaults to
// numD/4) — the shape on which hub-frontier refinement costs show up.
func GenerateHubPowerLawBipartite(numQ, numD int, numEdges int64, exponent, hubFraction float64, hubDegree int, seed uint64) (*Hypergraph, error) {
	return gen.HubPowerLawBipartite(numQ, numD, numEdges, exponent, hubFraction, hubDegree, seed)
}

// GenerateSocialEgoNets synthesizes a community-structured friendship graph
// and returns its ego-net hypergraph (the storage-sharding workload).
func GenerateSocialEgoNets(n, avgDeg, communitySize int, intraProb float64, seed uint64) (*Hypergraph, error) {
	return gen.SocialEgoNets(n, avgDeg, communitySize, intraProb, seed)
}

// GeneratePlantedPartition synthesizes a hypergraph with k planted
// communities of perGroup vertices each.
func GeneratePlantedPartition(k, perGroup, numQ, qdeg int, purity float64, seed uint64) (*Hypergraph, error) {
	return gen.PlantedPartition(k, perGroup, numQ, qdeg, purity, seed)
}

// ChurnGenerator produces an endless stream of chained Delta batches over a
// living hypergraph: each batch replaces a churn-fraction of the live
// hyperedges with perturbed successors and occasionally introduces new data
// vertices — the dynamic-graph workload of the paper's production setting.
type ChurnGenerator = gen.Churn

// NewChurn prepares a churn generator over g with the given per-batch churn
// fraction. Call Next for each batch and apply it (Partitioner.Apply or
// Hypergraph.ApplyDelta) before requesting the following one.
func NewChurn(g *Hypergraph, churnFraction float64, seed uint64) (*ChurnGenerator, error) {
	return gen.NewChurn(g, churnFraction, seed)
}

// LatencyModel generates per-request latencies for the sharding simulator
// (lognormal body, straggler tail, mean 1).
type LatencyModel = sharding.LatencyModel

// Cluster is a sharded key-value store simulation.
type Cluster = sharding.Cluster

// ShardingMeasurement aggregates a replayed multi-get workload.
type ShardingMeasurement = sharding.Measurement

// NewCluster wraps an assignment of records to servers together with a
// latency model.
func NewCluster(servers int, a Assignment, m LatencyModel) (*Cluster, error) {
	return sharding.NewCluster(servers, a, m)
}

// LatencyVsFanout samples multi-get latency percentiles per fanout
// (Figure 4a's experiment).
func LatencyVsFanout(m LatencyModel, maxFanout, samples int, seed uint64) []sharding.PercentileRow {
	return sharding.LatencyVsFanout(m, maxFanout, samples, seed)
}

// MigrationFrozen is the MigrationBudget value that freezes the assignment
// outright: a repartition epoch may place new vertices but moves no
// existing record.
const MigrationFrozen = core.MigrationFrozen

// AssignService is the assignment serving plane: a Partitioner embedded in
// a service that answers assign(vertex) lookups lock-free from an immutable
// epoch snapshot while the graph churns behind it. Repartitions build the
// next epoch off to the side and publish it with one atomic pointer swap,
// so lookups never block and never see a torn assignment. See
// internal/serve for the full API (epoch metadata, churn driving, HTTP
// handlers) and Options.MigrationBudget for bounding the per-epoch record
// moves a swap may cause.
type AssignService = serve.Service

// AssignServiceOptions configures an AssignService.
type AssignServiceOptions = serve.Options

// AssignEpoch is one immutable routing-table generation of an
// AssignService.
type AssignEpoch = serve.Epoch

// AssignStats is a snapshot of AssignService counters: lookup volume,
// sampled p50/p99 latency, swap and migration totals.
type AssignStats = serve.Stats

// NewAssignService builds a serving plane over g and publishes its first
// epoch before returning, so Assign is immediately answerable.
func NewAssignService(g *Hypergraph, opts AssignServiceOptions) (*AssignService, error) {
	return serve.New(g, opts)
}
