// Package distshp implements the paper's distributed SHP: recursive
// bisection driven entirely inside the vertex-centric model (Sections 3.2
// and 3.3, Figure 3), running on the pregel engine.
//
// The engine holds no vertex: data vertices and queries, Giraph vertices in
// Figure 3, are state of their workers (pregel.HashWorker of a data id, and
// of |D| plus a query id), and each worker's hook runs their programs, as
// block-centric engines run a worker's block (Giraph++, Blogel). No record
// is addressed to a vertex, and the hook visits only the data vertices that
// can act (runState.dataStep).
//
// Each refinement iteration is four supersteps with barriers between them:
//
//	superstep 0: movers send their new bucket to the workers that hold
//	             their adjacent queries, which maintain neighbor data
//	             incrementally;
//	superstep 1: each worker's PreSuperstep hook is the gain superstep: its
//	             queries take their updates and send each adjacent data
//	             vertex's worker what the vertex needs to bring its
//	             sibling-pair gain state up to date (see below); data
//	             vertices idle;
//	superstep 2: each worker's hook adds what it received into its data
//	             vertices' accumulators; those that heard a record or moved
//	             then register (direction, gain) proposals with the master,
//	             folding them into their worker's dense proposal table —
//	             changed proposals only, see below;
//	superstep 3: the master's per-pair histogram matching produces move
//	             probabilities, kept in its state; data vertices read them,
//	             flip their coins and move.
//
// # The incremental message plane
//
// By default superstep 1 ships work proportional to churn, not to |E|: the
// same dirty-query patch scheme the in-process engine uses (core/direct.go),
// pushed across superstep message boundaries.
//
//   - Every data vertex carries one persistent Equation 1 accumulator, acc =
//     Σ_q (T[n_cur(q)−1] − T[n_sib(q)]) over its adjacent queries for its
//     current sibling pair, which is its move gain: every gain and patch
//     record carries the vertex's id and one int64, 16 bytes in memory and
//     9 on the wire while the ids it follows in its batch are near.
//   - Bucket updates travel by mirror, as PowerGraph's do (Gonzalez et al.,
//     OSDI 2012). Each worker holds a mirror table: for every data vertex,
//     the (query, slot) pairs of the worker's queries, slot being the
//     vertex's position in the query's sorted member list. A mover sends one
//     (id, bucket) record to each worker that hosts one of its queries
//     (pregel's SendWorker), not one per incidence. The worker's hook fans
//     the records out through its table, grouped by query in one counting
//     pass, and then takes its queries in one ascending pass, each applying
//     its updates in a row and sending what they change (mirror.gainStep). A
//     query's registry holds each member's local row bucket, so an in-level
//     move is l → l^1 and no record is looked up; bucket ids meet the
//     registry's pairs only at a level's registration, which the hook runs
//     too, after drawing each mirrored vertex's split coin once for all the
//     worker's queries (mirror.drawCoins).
//   - After a move round, a dirty query (one that received bucket updates)
//     diffs its pin-count row and folds the changes into one patch per
//     local bucket through core.GainTables.DeltaOwn / DeltaAway, as core's
//     SHP-2 folds a dirty query's patch group: it knows its members'
//     buckets, so the gain delta is computed where the pin count changes, as
//     in Mt-KaHyPar. Each clean member whose pair holds a changed bucket
//     gets its bucket's patch record Δacc, one load per member, and adds it
//     to its accumulator.
//   - Members that moved (their own frame changed, so a patched sum would
//     refer to the wrong pair side) instead receive a full gain
//     contribution from every adjacent query — all of which are dirty,
//     because the mover's record reached each of them — and resum from
//     scratch.
//   - Contributions fold per worker, as Giraph's combiners fold them per
//     destination: a query adds each gain or patch into its worker's dense
//     accumulator by data id (gainFold), and the hook, once its last query
//     has run, sends one record per touched vertex, by ascending id, to the
//     worker that hosts it (SendWorker, through a host table built once), so
//     superstep 1 ships one envelope per (worker, worker). In a full
//     superstep (a level start's, a restored run's or a sweep's) a query
//     computes the contribution once per local bucket (queryState.values),
//     each member adds its bucket's into a plain per-worker slab, and the
//     hook sends one gain per vertex the worker mirrors. The receiving
//     worker's superstep-2 hook adds what each worker sent into the vertex's
//     accumulator before the vertex runs (runState.hear); no record is
//     addressed to a vertex, and the engine folds nothing. The fold is empty
//     at every barrier, so no checkpoint holds it.
//   - All gain-table values are integer units (core's gains.go), so patched
//     accumulators equal what a full resummation produces, in any order:
//     the incremental and full paths yield byte-identical partitions and
//     histories.
//   - The master runs the iteration policy the in-process refiners run
//     (core.IterPolicy) at the wire's fallback divisor: after a batch too
//     large to patch (core.Sweep), the next superstep 1 is a full
//     rebroadcast that re-derives every accumulator from the histograms. A
//     sweep forced every iteration (the unexported Options.sweepEvery the
//     equivalence tests set) is the paper's plain per-iteration rebroadcast.
//
// # The changed-only proposal plane
//
// Superstep 2 applies the same admissibility idea to the proposal plane. A
// data vertex whose accumulator heard no superstep-1 traffic and whose bucket
// is unchanged is stable: its gain is bit-identical to what it last proposed,
// so it neither recomputes nor ships anything. Everyone else recomputes and,
// only if the (direction, gain) actually changed, retracts the previously
// registered proposal and asserts the new one (plus per-bucket weight deltas
// when the bucket changed), into its worker's proposal table. The direction
// "from bucket b to its sibling" is b itself, so every table is a slice
// indexed by bucket id, and a vertex keeps its registered proposal's bin
// code (core.BinCode), which its retract and superstep 3's coin read: a bin
// is computed once per changed proposal. The master folds the workers'
// assert/retract deltas into persistent per-direction histograms and
// per-bucket weight totals, matches over the persistent state each
// iteration, and resets it at level start — where every vertex proposes
// afresh. Late supersteps therefore ship proposal traffic
// proportional to the moving frontier, while full-rebroadcast iterations
// (sweeps) recompute every gain — verifying the maintained proposal state —
// but still ship only the changes, so the maintained and recomputed regimes
// stay byte-identical.
//
// Recursive levels are scheduled by the master: when the policy stops a
// level (moved fraction below threshold, or its iterations exhausted), every
// data vertex splits its bucket b into 2b or 2b+1 and the next level begins.
// The split is a pure function of the seed, level, vertex id and b
// (splitBucket), so queries split their registries themselves, and a level's
// superstep 0 carries only the last iteration's movers, whose move they have
// not seen. K must be a power of two (the configuration the paper's
// distributed experiments use).
package distshp

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"shp/internal/core"
	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/pregel"
	"shp/internal/rng"
)

// Options configures a distributed run.
type Options struct {
	// K is the number of buckets; must be a power of two, >= 2.
	K int
	// Epsilon is the allowed imbalance (default 0.05). Distributed SHP
	// preserves balance in expectation, exactly as the paper's protocol.
	Epsilon float64
	// P is the fanout probability (default 0.5).
	P float64
	// ItersPerLevel bounds refinement iterations per bisection level. 0
	// means the default, 20 (the paper's SHP-2 setting); a negative value is
	// rejected, as core.Options.MaxIters's is.
	ItersPerLevel int
	// MinMoveFraction advances to the next level early when the moved
	// fraction drops below it; an iteration that moves nothing always does
	// (default 0.001).
	MinMoveFraction float64
	// Workers is the number of simulated machines (default 4, the paper's
	// cluster size).
	Workers int
	// Seed makes runs reproducible.
	Seed uint64
	// Transport selects the engine's message-plane backend (nil means the
	// in-process transport; pregel.TCPTransport() ships real frames over
	// loopback sockets). Partitions are transport-invariant for a fixed
	// seed.
	Transport pregel.Transport
	// Checkpointer stores snapshots for worker-failure recovery (nil means
	// an in-process store, pregel.NewMemoryCheckpointer; use
	// pregel.NewDiskCheckpointer to survive process death). A snapshot is
	// taken at the start of an iteration, where no message is pending, and
	// holds each data vertex's bucket and the master's level, iteration and
	// history: everything else is recomputed. A recovered run replays the
	// iteration it restored as a level start — every bucket resent, every
	// query re-registered, every gain and proposal sent in full — and
	// finishes byte-identical to an undisturbed one.
	Checkpointer pregel.Checkpointer
	// CheckpointEvery is the snapshot cadence in iterations (<= 0 means 16,
	// which is 64 supersteps).
	CheckpointEvery int
	// DisableCheckpointing turns the checkpoint plane off entirely
	// (ablation: any worker failure then aborts the run).
	DisableCheckpointing bool

	// noFold runs the queries without the per-worker fold, so superstep 1
	// sends one record per incidence, batched per destination by the engine.
	// Folding never changes a result, only the traffic, so nothing outside
	// this package can set it: it is the plain side of the folded-vs-plain
	// equivalence tests.
	noFold bool
	// sweepEvery forces a full gain rebroadcast (core.Sweep) after every
	// sweepEvery-th iteration within a level; 0 never. Superstep 1 then
	// re-sends every member's full contribution instead of patching
	// accumulators, which re-derives exactly the maintained state, so like
	// noFold it is test-only: 1 (no patch records at all) is the
	// full-recompute side of the incremental-vs-full equivalence tests.
	sweepEvery int
}

func (o Options) withDefaults() Options {
	if o.Epsilon == 0 {
		o.Epsilon = 0.05
	}
	if o.P == 0 {
		o.P = 0.5
	}
	if o.ItersPerLevel == 0 {
		o.ItersPerLevel = 20
	}
	if o.MinMoveFraction == 0 {
		o.MinMoveFraction = 0.001
	}
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 16
	}
	return o
}

// iterPolicy is the master's iteration schedule: the in-process refiners'
// policy at the wire's patch-vs-rebroadcast threshold.
func (o Options) iterPolicy() core.IterPolicy {
	return core.NewIterPolicy(o.ItersPerLevel, o.MinMoveFraction, o.sweepEvery, core.WireFallbackDiv)
}

// IterRecord is one refinement iteration's master-side summary.
type IterRecord struct {
	// Level is the bisection level the iteration ran at.
	Level int
	// Iter is the iteration index within the level.
	Iter int
	// Moved counts the data vertices that moved in this iteration.
	Moved int64
	// Fanout is the average fanout over the current level's buckets of the
	// assignment this iteration's proposals were computed from (i.e. before
	// its moves), maintained by the master from per-query live-entry diffs
	// at zero extra graph passes.
	Fanout float64
}

// Result is a finished distributed partitioning.
type Result struct {
	Assignment partition.Assignment
	K          int
	// Levels actually executed (log2 K).
	Levels int
	// Iterations across all levels.
	Iterations int
	// History records every refinement iteration in order. Iteration j
	// occupies supersteps 4j..4j+3 of Stats.PerSuperstep, so per-iteration
	// traffic can be attributed to protocol phases.
	History []IterRecord
	// Engine statistics: per-superstep message and byte counts.
	Stats *pregel.Stats
	// Elapsed wall-clock time.
	Elapsed time.Duration
	// TotalTime is Elapsed multiplied by the worker count: the paper's
	// "total time" metric (Figure 5).
	TotalTime time.Duration
}

// LateGainBytes sums the gain/patch-superstep traffic of the run's "late"
// iterations — those whose superstep-1 workload was driven by at most
// maxMovedFraction of the data vertices moving — and returns the iteration
// count alongside the bytes. Iteration j's gain superstep (4j+1) ships the
// consequences of iteration j-1's moves, so the filter reads the previous
// iteration's Moved; level-start iterations are excluded because their
// superstep 1 is the O(|E|) registration rebroadcast on every plane. This is
// the one place the late-traffic attribution lives: tests, benchmarks and
// the CLI all report through it.
func (r *Result) LateGainBytes(maxMovedFraction float64) (iters int, bytes int64) {
	return r.lateBytes(maxMovedFraction, 1, func(s pregel.SuperstepStats) int64 { return s.BytesSent })
}

// LateProposalBytes sums the proposal-superstep aggregator traffic (AggBytes
// of supersteps 4j+2) of the run's late iterations, under the same
// late-iteration filter as LateGainBytes: iteration j's proposal superstep
// ships the retract/assert deltas caused by iteration j-1's moves, and
// level-start iterations are excluded because their proposal superstep
// registers every vertex. With the changed-only proposal plane this shrinks
// with the moving frontier instead of staying O(directions x bins).
func (r *Result) LateProposalBytes(maxMovedFraction float64) (iters int, bytes int64) {
	return r.lateBytes(maxMovedFraction, 2, func(s pregel.SuperstepStats) int64 { return s.AggBytes })
}

// lateBytes sums field over superstep 4j+phase of every late iteration j.
func (r *Result) lateBytes(maxMovedFraction float64, phase int, field func(pregel.SuperstepStats) int64) (iters int, bytes int64) {
	if r.Stats == nil || len(r.Assignment) == 0 {
		return 0, 0
	}
	budget := maxMovedFraction * float64(len(r.Assignment))
	for j, rec := range r.History {
		// A level start (Iter 0) resends every gain and proposal. Otherwise
		// History[j-1] is the same level's previous iteration, whose moves
		// produced this iteration's traffic.
		if rec.Iter == 0 || float64(r.History[j-1].Moved) > budget {
			continue
		}
		if s := 4*j + phase; s < len(r.Stats.PerSuperstep) {
			iters++
			bytes += field(r.Stats.PerSuperstep[s])
		}
	}
	return iters, bytes
}

// record is the one message type distshp sends through the engine: a tagged
// union of the protocol's three kinds, each about one data vertex id, with
// one payload word; 16 bytes in memory and no pointer, so the engine buffers,
// ships and delivers it by value. Every record addresses a worker
// (pregel's SendWorker), never a vertex; the wire form is codec.go's.
//
//   - bucket, data -> worker, "data vertex id is now in bucket word", sent
//     once to each worker that hosts one of the mover's queries. The
//     worker's mirror table turns it into one (slot, bucket) update per such
//     query: at a level start it overrides the registry's derived split,
//     later it moves the member.
//   - gain, worker -> worker hosting id: word = the int64 gain units, summed
//     over the sender's queries, of T[n(current bucket)−1] − T[n(sibling)],
//     the queries' neighbor-data contributions to id's Equation 1 gain
//     already mapped through the level's gain table. This is the combinable
//     reduction of the paper's r = 2 neighbor-data counts (Section 3.3):
//     contributions from different queries add, and the receiver reads only
//     their sum. A vertex that hears gains resums its accumulator from
//     scratch (every adjacent query sent one).
//   - patch, worker -> worker hosting id: word = the int64 change Δacc to
//     that sum, from dirty queries to a clean member whose sibling pair holds
//     a changed count. Patches add like gains, and the receiver adds them to
//     its accumulator.
type record struct {
	word uint64
	id   int32
	kind uint8
}

func moverRecord(d, bucket int32) record {
	return record{kind: kindBucket, id: d, word: uint64(uint32(bucket))}
}

func gainRecord(d int32, acc int64) record { return record{kind: kindGain, id: d, word: uint64(acc)} }

func patchRecord(d int32, delta int64) record {
	return record{kind: kindPatch, id: d, word: uint64(delta)}
}

func (r record) mover() (d, bucket int32) { return r.id, int32(r.word) }

// acc returns a gain's or a patch's value.
func (r record) acc() int64 { return int64(r.word) }

// dataState is the per-data-vertex state.
type dataState struct {
	bucket int32 // bucket id within the current level, in [0, 2^(level+1))
	// heard is the kind of the gain or patch records the vertex's worker
	// added into acc in the current superstep 2, before the vertex ran; 0
	// (kindBucket) when none arrived. propose clears it.
	heard uint8
	// The persistent Equation 1 accumulator for the current sibling pair, in
	// gain units: acc = Σ_q (T[n_bucket(q)−1] − T[n_sibling(q)]), which is
	// the gain for moving to the sibling bucket. Resummed from gain records
	// after a move (or rebroadcast), patched otherwise; integer arithmetic
	// keeps the two maintenance regimes identical.
	acc int64
	// The proposal currently registered on the master's persistent
	// histograms: its direction (the bucket it would leave), its gain, the
	// gain's bin code (core.BinCode) and the level it was asserted at
	// (propLevel != level means nothing is registered at this level yet).
	// Superstep 2 retracts/asserts against these, shipping only changes,
	// and superstep 3's coin reads the code.
	propBucket int32
	propCode   int32
	propGain   int64
	propLevel  int
}

// memberRef is one mirror table entry: a query, by its index in the
// worker's query list, and the data vertex's slot in its member list.
type memberRef struct{ q, slot int32 }

// update is one member's bucket update, fanned out from a mover's record.
type update struct{ slot, bucket int32 }

// mirror is one worker's mirror table and the state its gain step keeps.
// ref lists, for each data vertex, the worker's queries that it belongs to,
// in ascending query order, each with the vertex's slot: a CSR of one entry
// per local incidence, 8 bytes each. The vertices with entries are the
// worker's mirrored vertices.
type mirror struct {
	queries []int32 // the worker's queries, ascending
	off     []int64 // data vertex d's entries are ref[off[d]:off[d+1]]
	ref     []memberRef
	// level is the level the worker's queries registered at, -1 while they
	// are unregistered (a fresh or restored run): they register together.
	level int
	// coin holds each mirrored vertex's split coin at the current level,
	// drawn once per worker at a level start for its queries' registrations.
	coin []uint8
	// The queries' per-local-bucket tables, K entries each: vals the full
	// contributions (queryState.values), pat the patches, all zero between
	// queries (patches).
	vals []int64
	pat  []patch
	// The counting pass's scratch: update groups by local query, query i's
	// at upd[start[i]:start[i+1]], and start's two spare entries; empty
	// between gain steps.
	start []int32
	upd   []update
	// pairAt is the worker's pair table, which its queries' registrations
	// mark (queryState.recount).
	pairAt []int32
	// A patch superstep's per-query scratch (applyTracked): snap is the
	// query's row before its updates, moved flags its movers by member
	// index, all false between queries, and changes is the row diff.
	snap    core.PinRow
	moved   []bool
	changes []core.NDChange
	// fold is the worker's superstep-1 accumulator over all data ids.
	fold gainFold
}

// newMirrors builds every worker's mirror table over g at k buckets, with
// workerOf the worker query q is placed on, in one pass over the queries in
// ascending order, which is the order each data vertex lists them in.
func newMirrors(g *hypergraph.Bipartite, k, workers int, workerOf func(q int32) int) []mirror {
	numD := g.NumData()
	ms := make([]mirror, workers)
	for w := range ms {
		ms[w].level = -1
		ms[w].off = make([]int64, numD+1)
		ms[w].pairAt = make([]int32, k/2)
		ms[w].coin = make([]uint8, numD)
		ms[w].vals = make([]int64, k)
		ms[w].pat = make([]patch, k)
		ms[w].moved = make([]bool, g.MaxQueryDegree())
	}
	for q := int32(0); q < int32(g.NumQueries()); q++ {
		m := &ms[workerOf(q)]
		m.queries = append(m.queries, q)
		for _, d := range g.QueryNeighbors(q) {
			m.off[d+1]++
		}
	}
	for w := range ms {
		m := &ms[w]
		for d := 0; d < numD; d++ {
			m.off[d+1] += m.off[d]
		}
		m.ref = make([]memberRef, m.off[numD])
		m.start = make([]int32, len(m.queries)+2)
		// off[d] is vertex d's cursor during the pass, which leaves it at
		// off[d+1]; the copy shifts the offsets back.
		for i, q := range m.queries {
			for slot, d := range g.QueryNeighbors(q) {
				m.ref[m.off[d]] = memberRef{q: int32(i), slot: int32(slot)}
				m.off[d]++
			}
		}
		copy(m.off[1:], m.off[:numD])
		m.off[0] = 0
	}
	return ms
}

// of returns data vertex d's entries on the worker.
func (m *mirror) of(d int32) []memberRef { return m.ref[m.off[d]:m.off[d+1]] }

// mirrors reports whether data vertex d has entries on the worker.
func (m *mirror) mirrors(d int) bool { return m.off[d+1] > m.off[d] }

// drawCoins draws every mirrored vertex's split coin at level, once for all
// the worker's queries that hold it.
func (m *mirror) drawCoins(seed uint64, level int) {
	for d := range m.coin {
		if m.mirrors(d) {
			m.coin[d] = splitCoin(seed, level, int32(d))
		}
	}
}

// gainStep is the worker's gain superstep, which its PreSuperstep hook runs
// in superstep 1. A counting pass groups the movers' records by query
// through the table, so each dirty query takes its updates in a row; applied
// mover by mover, the query states miss the cache. Then one ascending pass
// over the worker's queries applies each one's updates — or, at a level
// start or in a restored run, registers it, its movers overriding the
// derived split, which reads the coins the step draws for the level first —
// and runs computeQuery for it, at the level's table tb; a patch superstep
// skips the clean queries, whose members' accumulators are already exact.
// The fold is flushed last. The live-entry diff of the worker's rows goes to
// the master.
func (m *mirror) gainStep(ctx *pregel.ContextOf[record, workerAgg], g *hypergraph.Bipartite, queries []queryState,
	movers []record, s *schedule, tb core.GainTables) {

	start := m.start
	for _, r := range movers {
		d, _ := r.mover()
		for _, e := range m.of(d) {
			start[e.q+2]++
		}
	}
	for i := 2; i < len(start); i++ {
		start[i] += start[i-1]
	}
	m.upd = slices.Grow(m.upd[:0], int(start[len(start)-1]))[:start[len(start)-1]]
	for _, r := range movers {
		d, b := r.mover()
		for _, e := range m.of(d) {
			at := &start[e.q+1]
			m.upd[*at] = update{slot: e.slot, bucket: b}
			*at++
		}
	}
	level := s.level
	levelStart := m.level != level
	full := levelStart || s.rebuildNext
	if levelStart {
		m.drawCoins(s.opts.Seed, level)
		m.level = level
	}
	diff := 0
	for i, q := range m.queries {
		st := &queries[q]
		ups := m.upd[start[i]:start[i+1]]
		switch {
		case levelStart:
			live := st.row.Live()
			st.register(q, level, g.QueryNeighbors(q), m.coin, ups, m.pairAt)
			diff += st.row.Live() - live
		case full:
			for _, u := range ups {
				diff += st.applyUpdate(q, u, nil)
			}
		case len(ups) == 0:
			continue
		default:
			diff += m.applyTracked(q, st, ups)
		}
		computeQuery(ctx, g, q, st, tb, full, m)
	}
	clear(start)
	if full {
		m.fold.flushGains(ctx, m)
	} else {
		m.fold.flush(ctx)
	}
	ctx.Aggregate().fanoutDiff += int64(diff)
}

// queryState is one query's state on its worker: the paper's "neighbor
// data" n_b(q), held in SHP-k's pin-count row (core.PinRow) so the gain superstep
// performs zero hash operations. During a level a member only moves inside
// its sibling pair, so the pairs the registered members occupy are fixed
// from registration to the level's end, and the row counts over just those:
// bucket b is the row's local bucket 2i + b&1, where pairs[i] = b>>1. A row
// is bounded by the query's degree, never by K, and its ascending local
// order is ascending bucket order. The member registry is an int32 slice
// aligned with the query's sorted adjacency list, addressed by the slot its
// worker's mirror table holds, and holds local buckets, so the per-level
// reset is a linear fill instead of a map rebuild. The states are indexed by
// query id, so a state does not store it, and come from run slabs
// (newQueryStates).
type queryState struct {
	// memberLocal[i] is the local row bucket of the i-th member of the
	// query's sorted adjacency list, as last heard.
	memberLocal []int32
	// pairs lists the sibling pairs of the registered members, ascending
	// and distinct, within room for min(degree, K/2) of them. row is the live
	// neighbor data over 2·len(pairs) local buckets. At every barrier both
	// are exactly what recount derives from the members' buckets.
	pairs []int32
	row   core.PinRow
}

// newQueryStates carves n unregistered query states, query q of degree(q)
// members, from per-run slabs: registries beside room for min(degree, k/2)
// sibling pairs, and rows over the room.
func newQueryStates(n, k int, degree func(q int) int) []queryState {
	room := func(q int) int { return min(degree(q), k/2) }
	ints := 0
	for q := 0; q < n; q++ {
		ints += degree(q) + room(q)
	}
	buf := make([]int32, ints)
	rows := core.NewPinRows(n, func(q int) int { return 2 * room(q) })
	states := make([]queryState, n)
	for q := range states {
		deg, r := degree(q), room(q)
		states[q] = queryState{row: rows[q], memberLocal: buf[:deg:deg], pairs: buf[deg : deg : deg+r]}
		buf = buf[deg+r:]
	}
	return states
}

// register (re)initializes the registry for a new level and recounts the
// row. Each member's bucket is the split of the one the registry holds, as
// the member itself made it with its coin in coins (by data id; see
// splitCoin), unless the member moved in the previous iteration: then its
// update in movers carries the bucket. An unregistered query (a fresh or
// restored run), which holds no pairs, splits nothing it holds: at level 0
// the split ignores the parent, and a restored run's every member is a
// mover. pairAt is the worker's pair table (see recount).
func (st *queryState) register(q int32, level int, members []int32, coins []uint8, movers []update, pairAt []int32) {
	registered := len(st.pairs) > 0
	for i, d := range members {
		parent := int32(-1)
		if registered {
			parent = st.bucket(st.memberLocal[i])
		}
		st.memberLocal[i] = split(level, parent, coins[d])
	}
	for _, u := range movers {
		st.memberLocal[st.slot(q, u.slot)] = u.bucket
	}
	st.recount(pairAt)
}

// recount derives pairs and the row from the registry, which holds bucket
// ids on entry and local buckets on return. pairAt, the worker's table of
// the run's K/2 sibling pairs, is all zero on entry and on return. One pass
// marks and lists the distinct pairs the members occupy, at most
// min(members, K/2), so the list stays within its room; only that list is
// sorted, and the table then holds each listed pair's rank + 1, which maps
// a member to its local bucket with one load.
func (st *queryState) recount(pairAt []int32) {
	st.pairs = st.pairs[:0]
	for _, b := range st.memberLocal {
		if p := b >> 1; pairAt[p] == 0 {
			pairAt[p] = 1
			st.pairs = append(st.pairs, p)
		}
	}
	slices.Sort(st.pairs)
	for i, p := range st.pairs {
		pairAt[p] = int32(i) + 1
	}
	st.row = st.row.Reshape(2 * len(st.pairs))
	for i, b := range st.memberLocal {
		l := (pairAt[b>>1]-1)<<1 | b&1
		st.memberLocal[i] = l
		st.row.Inc(l)
	}
	for _, p := range st.pairs {
		pairAt[p] = 0
	}
}

// bucket maps local bucket l back to its bucket id.
func (st *queryState) bucket(l int32) int32 { return st.pairs[l>>1]<<1 | l&1 }

// slot returns the member slot i an update for query q carries, checked
// against the query's member count.
func (st *queryState) slot(q, i int32) int32 {
	if uint32(i) >= uint32(len(st.memberLocal)) {
		//shp:panics(invariant: only adjacent data vertices update a query, each at its own slot; a stray slot corrupts neighbor histograms)
		panic(fmt.Sprintf("distshp: bucket update for slot %d reached query %d of %d members", i, q, len(st.memberLocal)))
	}
	return i
}

// contribution returns the full contribution to the accumulator of a
// member in local bucket l.
func (st *queryState) contribution(tb core.GainTables, l int32) int64 {
	return tb.T[st.row.Count(l)-1] - tb.T[st.row.Count(l^1)]
}

// values fills buf, of at least the row's length, with the full
// contribution to a member in each local bucket that holds one, and returns
// it over the row: one table term pair per local bucket, however many
// members share it.
func (st *queryState) values(tb core.GainTables, buf []int64) []int64 {
	vals := buf[:2*len(st.pairs)]
	for l := range vals {
		if st.row.Count(int32(l)) > 0 {
			vals[l] = st.contribution(tb, int32(l))
		}
	}
	return vals
}

// patch is one local bucket's entry in a query's patch table: the change
// the superstep's row changes make to the accumulator of a clean member in
// the bucket, and whether the bucket's count or its sibling's changed.
type patch struct {
	delta int64
	hit   bool
}

// patches folds the row changes into buf, a table over at least the row's
// length that is all zero on entry, as core's SHP-2 folds a dirty query's
// patch group: a change at local bucket b moves b's own term (DeltaOwn) and
// b^1's sibling term (DeltaAway). unpatch zeroes the entries again.
func patches(tb core.GainTables, changes []core.NDChange, buf []patch) []patch {
	for _, c := range changes {
		own, away := &buf[c.B], &buf[c.B^1]
		own.delta += tb.DeltaOwn(c.COld, c.CNew)
		away.delta -= tb.DeltaAway(c.COld, c.CNew)
		own.hit, away.hit = true, true
	}
	return buf
}

// unpatch zeroes the entries of buf that patches set for changes.
func unpatch(changes []core.NDChange, buf []patch) {
	for _, c := range changes {
		buf[c.B], buf[c.B^1] = patch{}, patch{}
	}
}

// applyUpdate folds one within-level bucket update into query q's neighbor
// data: a transfer from the member's local bucket l to l^1, its sibling. It
// returns the change in the row's live entries. A non-nil moved flags the
// updating member by index.
func (st *queryState) applyUpdate(q int32, u update, moved []bool) int {
	i, bucket := st.slot(q, u.slot), u.bucket
	from := st.memberLocal[i]
	if to := from ^ 1; st.bucket(to) != bucket {
		//shp:panics(invariant: members move only to the sibling of their registered bucket; anything else means the level protocol broke)
		panic(fmt.Sprintf("distshp: member %d of query %d moved to bucket %d, not to the sibling of its bucket %d",
			i, q, bucket, st.bucket(from)))
	}
	if moved != nil {
		moved[i] = true
	}
	st.memberLocal[i] = from ^ 1
	return st.row.Transfer(q, from, from^1)
}

// applyTracked applies query q's updates ups in a patch superstep, with the
// row snapshotted in m.snap first and each updating member flagged in
// m.moved, so changed can diff the net per-bucket changes and computeQuery
// can route full contributions to movers only. It returns the change in the
// row's live entries.
func (m *mirror) applyTracked(q int32, st *queryState, ups []update) int {
	m.snap = m.snap.Reshape(2 * len(st.pairs))
	m.snap.CopyFrom(st.row)
	diff := 0
	for _, u := range ups {
		diff += st.applyUpdate(q, u, m.moved)
	}
	return diff
}

// changed diffs the snapshot applyTracked took against query st's row into
// canonical ascending (local bucket, cOld, cNew) changes, skipping buckets
// whose net count is unchanged. 0 means "entry absent" on either side.
func (m *mirror) changed(st *queryState) []core.NDChange {
	m.changes = st.row.Diff(m.changes[:0], m.snap)
	return m.changes
}

// gainFold is one worker's superstep-1 accumulator: the gains and patches
// its queries address each data vertex, summed in acc by data id. In a
// patch superstep each entry's kind is kept too (kindBucket, 0, marks an
// empty entry), and touched lists the touched ids; flush, at the end of the
// worker's gain step, sends each touched vertex one record, by ascending id,
// to the worker that hosts it (host, the engine's placement, looked up
// rather than hashed), so one envelope per (worker, worker) carries them. In
// a full superstep every mirrored vertex gets one gain, so the queries add
// into acc alone and flushGains sends them.
type gainFold struct {
	acc     []int64
	kind    []uint8
	touched []int32
	host    []int32
	// plain sends each record as it comes (Options.noFold).
	plain bool
}

// newGainFold returns an empty fold over the data vertices host places.
func newGainFold(host []int32) gainFold {
	return gainFold{acc: make([]int64, len(host)), kind: make([]uint8, len(host)), host: host}
}

// add folds r, a gain or a patch for data vertex r.id, in: two gains, or two
// patches, add. The protocol never mixes the two for one vertex in one
// superstep (a vertex is either a mover — gains from every adjacent query —
// or clean — patches only); add and the receiving worker (runState.hear)
// both refuse a mix.
func (f *gainFold) add(ctx *pregel.ContextOf[record, workerAgg], r record) {
	d := r.id
	if f.plain {
		ctx.SendWorker(int(f.host[d]), r)
		return
	}
	switch k := &f.kind[d]; *k {
	case kindBucket:
		*k = r.kind
		f.touched = append(f.touched, d)
	case r.kind:
	default:
		//shp:panics(invariant: a vertex is either a mover, sent gains only, or clean, sent patches only; a mix means the barrier protocol broke)
		panic(fmt.Sprintf("distshp: vertex %d was sent records of kinds %d and %d in one superstep", d, *k, r.kind))
	}
	f.acc[d] += r.acc()
}

// flush sends one record per touched vertex, by ascending id, and empties
// the fold. When at least an eighth of the data ids are touched it walks
// every id instead of sorting the touched ones.
func (f *gainFold) flush(ctx *pregel.ContextOf[record, workerAgg]) {
	if 8*len(f.touched) >= len(f.kind) {
		for d, k := range f.kind {
			if k != kindBucket {
				f.send(ctx, int32(d), k)
			}
		}
	} else {
		slices.Sort(f.touched)
		for _, d := range f.touched {
			f.send(ctx, d, f.kind[d])
		}
	}
	f.touched = f.touched[:0]
}

// send ships vertex d's entry as a record of kind and empties it.
func (f *gainFold) send(ctx *pregel.ContextOf[record, workerAgg], d int32, kind uint8) {
	ctx.SendWorker(int(f.host[d]), record{kind: kind, id: d, word: uint64(f.acc[d])})
	f.acc[d], f.kind[d] = 0, kindBucket
}

// flushGains ends a full superstep: every vertex m mirrors received a
// contribution from each of its queries on the worker, so it sends each
// one gain, by ascending id, and empties acc.
func (f *gainFold) flushGains(ctx *pregel.ContextOf[record, workerAgg], m *mirror) {
	for d := range f.acc {
		if m.mirrors(d) {
			ctx.SendWorker(int(f.host[d]), gainRecord(int32(d), f.acc[d]))
			f.acc[d] = 0
		}
	}
}

// hear is worker w's hook in superstep 2: it adds every gain and patch the
// workers sent it into its vertex's accumulator before any vertex runs, and
// lists each vertex it touched in s.heard[w]. The first gain a vertex hears
// resets the accumulator, so its gains resum it; patches add to it. It
// refuses a record for a vertex w does not host and a gain/patch mix for
// one vertex.
func (s *runState) hear(w int, recs []record) {
	for _, r := range recs {
		if uint32(r.id) >= uint32(len(s.data)) || int(s.host[r.id]) != w {
			//shp:panics(invariant: a worker flushes each record to the worker that hosts its vertex; a stray one would fold into state no vertex of this worker reads)
			panic(fmt.Sprintf("distshp: worker %d received a record for vertex %d, which it does not host", w, r.id))
		}
		st := &s.data[r.id]
		if st.heard != r.kind || r.kind == kindBucket {
			if st.heard != kindBucket || r.kind == kindBucket {
				//shp:panics(invariant: a vertex is either a mover, sent gains only, or clean, sent patches only; a mix means the barrier protocol broke)
				panic(fmt.Sprintf("distshp: vertex %d received records of kinds %d and %d in one superstep", r.id, st.heard, r.kind))
			}
			st.heard = r.kind
			s.heard[w] = append(s.heard[w], r.id)
			if r.kind == kindGain {
				st.acc = 0
			}
		}
		st.acc += r.acc()
	}
}

// workerAgg is one worker's part of a superstep's aggregate, what its
// vertices ship the master: in a proposal superstep the worker's proposal
// deltas (props, which the worker's hook points at its own table), the
// movers, and the queries' live-entry diff.
type workerAgg struct {
	props      *proposals
	moved      int64
	fanoutDiff int64
}

// proposals is one worker's proposal deltas in a proposal superstep, dense
// by bucket id: hists[b] is the delta histogram of direction b, "from bucket
// b to its sibling", to which an assert adds a gain and a retract removes
// one (so counts may go negative), and weights[b] is bucket b's weight
// delta. dirs and buckets list the entries touched, whatever their net, in
// first-touch order, and mark flags them: they are what the master merges
// and WireSize charges.
type proposals struct {
	hists         []core.DirHist
	weights       []int64
	mark          []uint8
	dirs, buckets []int32
}

// Marks of a proposals entry.
const (
	dirTouched    = 1
	weightTouched = 2
)

// reset empties the table and makes room for n buckets.
func (p *proposals) reset(n int) *proposals {
	for _, b := range p.dirs {
		p.hists[b], p.mark[b] = core.DirHist{}, 0
	}
	for _, b := range p.buckets {
		p.weights[b], p.mark[b] = 0, 0
	}
	p.dirs, p.buckets = p.dirs[:0], p.buckets[:0]
	if len(p.hists) < n {
		p.hists = make([]core.DirHist, n)
		p.weights = make([]int64, n)
		p.mark = make([]uint8, n)
	}
	return p
}

// propose folds n = ±1 proposals of gain units, of bin code, into direction
// b: an assert or a retract.
func (p *proposals) propose(b, code int32, gain, n int64) {
	if p.mark[b]&dirTouched == 0 {
		p.mark[b] |= dirTouched
		p.dirs = append(p.dirs, b)
	}
	p.hists[b].FoldCode(code, gain, n)
}

// weigh adds w to bucket b's weight delta.
func (p *proposals) weigh(b int32, w int64) {
	if p.mark[b]&weightTouched == 0 {
		p.mark[b] |= weightTouched
		p.buckets = append(p.buckets, b)
	}
	p.weights[b] += w
}

// WireSize reports what shipping the part to the master would cost: an
// 8-byte direction key plus the delta histogram's non-empty bins per
// touched direction, and a 4-byte bucket id plus an 8-byte weight per
// touched bucket. Feeds pregel's AggBytes accounting.
func (a *workerAgg) WireSize() int {
	p := a.props
	if p == nil {
		return 0
	}
	n := 12 * len(p.buckets)
	for _, b := range p.dirs {
		n += 8 + p.hists[b].WireSize()
	}
	return n
}

// fold merges the workers' proposal deltas into the persistent state.
// DirHist sums are integers, so every merge order gives the same state.
func (s *schedule) fold(parts []*workerAgg) {
	for _, part := range parts {
		p := part.props
		if p == nil {
			continue
		}
		for _, b := range p.dirs {
			s.hists[b].Merge(&p.hists[b])
		}
		for _, b := range p.buckets {
			s.weights[b] += p.weights[b]
		}
	}
}

// resetPlane empties the persistent proposal state for the current level's
// 2^(level+1) buckets, where every vertex proposes afresh.
func (s *schedule) resetPlane() {
	n := 2 << s.level
	s.hists = make([]core.DirHist, n)
	s.weights = make([]int64, n)
	s.probs = make([]core.ProbTable, n)
}

// match pairs each direction's histogram with its sibling's and sets the
// move probabilities superstep 3 reads. Within a sibling pair (b, b+1) the
// even direction always plays the A side of MatchHistograms, so the tables
// are bit-reproducible. Direction b receives into bucket b^1, whose weight
// bounds its extra allowance.
func (s *schedule) match() {
	eps := s.opts.Epsilon * float64(s.level+1) / float64(s.levels)
	// Rounding the product keeps arm64 from fusing it into FNMSUBD below.
	cap0 := float64(s.ideal * float64(s.opts.K>>(s.level+1)) * (1 + eps))
	extra := func(dst int) int64 {
		if head := cap0 - float64(s.weights[dst]); head > 0 {
			return int64(head * 0.9)
		}
		return 0
	}
	for b := 0; b < len(s.hists); b += 2 {
		s.probs[b], s.probs[b+1] = core.MatchHistograms(&s.hists[b], &s.hists[b+1], extra(b+1), extra(b))
	}
}

// Partition runs distributed SHP-2 on g.
func Partition(g *hypergraph.Bipartite, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.K < 2 || opts.K&(opts.K-1) != 0 {
		return nil, fmt.Errorf("distshp: K must be a power of two >= 2, got %d", opts.K)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("distshp: Workers must be >= 0, got %d", opts.Workers)
	}
	if opts.Epsilon < 0 {
		return nil, errors.New("distshp: Epsilon must be >= 0")
	}
	if opts.P <= 0 || opts.P > 1 {
		return nil, fmt.Errorf("distshp: P must be in (0, 1], got %v", opts.P)
	}
	policy := opts.iterPolicy()
	if err := policy.Validate(); err != nil {
		return nil, fmt.Errorf("distshp: ItersPerLevel: %w", err)
	}
	if g.NumData() == 0 {
		return nil, errors.New("distshp: empty graph")
	}
	start := time.Now() //shp:nondet(wall timing for Result.Elapsed only; never feeds the partition)

	levels := 0
	for 1<<levels < opts.K {
		levels++
	}
	numD := g.NumData()
	numQ := g.NumQueries()
	maxN := g.MaxQueryDegree()

	// Gain tables per level (lookahead t halves as levels deepen). The range
	// check is the in-process engines', query weights included, although
	// the sums here ignore them: the three engines accept the same graphs.
	tables := make([]core.GainTables, levels)
	for l := 0; l < levels; l++ {
		tables[l] = core.NewPFanoutTables(opts.P, opts.K>>(l+1), maxN)
		if err := tables[l].CheckRange(g); err != nil {
			return nil, fmt.Errorf("distshp: %w", err)
		}
	}

	// Master-side schedule state (package-level type so the checkpoint
	// plane can snapshot and restore it; see snapshot.go).
	sched := &schedule{opts: opts, levels: levels, ideal: float64(g.TotalDataWeight()) / float64(opts.K)}
	sched.resetPlane()

	// The program's state: the data and query states in two slabs, indexed
	// by id, each worker's mirror table, fold, proposal table and data
	// vertex lists, and the schedule. The engine holds none of it.
	states := newRunState(g, sched)

	maxSupersteps := levels*opts.ItersPerLevel*4 + 8

	// A worker's hook is its whole superstep: the gain step of its queries
	// in superstep 1, its data vertices' programs in the others.
	hook := func(ctx *pregel.ContextOf[record, workerAgg], recs []record) {
		if w := ctx.Worker(); ctx.Superstep()%4 == 1 {
			states.mirrors[w].gainStep(ctx, g, states.query, recs, sched, tables[sched.level])
		} else {
			states.dataStep(ctx, g, tables, w, recs)
		}
	}

	// The master runs at every barrier after superstep step, and leaves
	// sched as the next superstep's hooks read it. Only it ends the run.
	master := func(step int, parts []*workerAgg) bool {
		switch step % 4 {
		case 1:
			for _, p := range parts {
				sched.ndEntries += p.fanoutDiff
			}
			sched.rebuildNext = false // this superstep 1 rebroadcast as scheduled
		case 2:
			// Proposal deltas are in: fold them into the persistent state,
			// then match histograms pair by pair over it.
			sched.fold(parts)
			sched.match()
		case 3:
			// Moves applied; record the iteration and decide whether to
			// advance level.
			moved := int64(0)
			for _, p := range parts {
				moved += p.moved
			}
			sched.history = append(sched.history, IterRecord{
				Level: sched.level, Iter: sched.iter, Moved: moved,
				Fanout: float64(sched.ndEntries) / float64(numQ),
			})
			mode, stop := policy.Next(sched.iter, moved, numD)
			sched.iter++
			// A sweep makes the next superstep 1 a full rebroadcast; it
			// produces the bits patching would. A level start needs no flag:
			// every query rebuilds its registry there, which forces full
			// gain contributions everywhere.
			sched.rebuildNext = !stop && mode == core.Sweep
			if stop {
				sched.level++
				sched.iter = 0
				if sched.level >= levels {
					return true
				}
				// The proposal plane re-registers from scratch too: drop the
				// persistent state.
				sched.resetPlane()
			}
		}
		return false
	}

	engOpts := pregel.OptionsOf[record, workerAgg]{
		Workers:       opts.Workers,
		PreSuperstep:  hook,
		Master:        master,
		MaxSupersteps: maxSupersteps,
		Transport:     opts.Transport,
		Codecs:        recordCodec{k: int32(opts.K), numData: int32(numD)},
	}
	if !opts.DisableCheckpointing {
		engOpts.Checkpointer = opts.Checkpointer
		if engOpts.Checkpointer == nil {
			engOpts.Checkpointer = pregel.NewMemoryCheckpointer()
		}
		// Snapshots land only on an iteration's superstep 0 (snapshot.go).
		engOpts.CheckpointEvery = 4 * min(opts.CheckpointEvery, maxSupersteps)
		engOpts.Program = states
	}
	eng, err := pregel.NewEngineOf(engOpts, nil)
	if err != nil {
		return nil, err
	}
	stats, err := eng.Run()
	if err != nil {
		return nil, err
	}

	// The final level's buckets are the result. If the run stopped at level
	// L, bucket ids are already in [0, 2^L) = [0, K).
	assignment := make(partition.Assignment, numD)
	for d, st := range states.data {
		assignment[d] = st.bucket
	}
	elapsed := time.Since(start) //shp:nondet(wall timing for Result.Elapsed only; never feeds the partition)
	return &Result{
		Assignment: assignment,
		K:          opts.K,
		Levels:     levels,
		Iterations: len(sched.history),
		History:    sched.history,
		Stats:      stats,
		Elapsed:    elapsed,
		TotalTime:  elapsed * time.Duration(opts.Workers),
	}, nil
}

// dataStep runs worker w's data vertices in supersteps 0, 2 and 3, only
// those that can act. Superstep 0 sends the movers' buckets, after a level
// start has split every bucket. Superstep 2, once hear has added recs in,
// proposes for the vertices that heard a record and then the movers (the
// rest, and a second visit, return at propose's admissibility gate), or for
// every vertex at a level start. Superstep 3 flips every vertex's coin and
// lists the movers, ascending. Restore makes every vertex a mover.
func (s *runState) dataStep(ctx *pregel.ContextOf[record, workerAgg], g *hypergraph.Bipartite,
	tables []core.GainTables, w int, recs []record) {

	sc := s.sched
	switch ctx.Superstep() % 4 {
	case 0:
		if sc.iter == 0 {
			// The queries split their registries the same way, so a vertex
			// that did not just move has nothing to tell them.
			for _, d := range s.hosted[w] {
				s.data[d].bucket = splitBucket(sc.opts.Seed, sc.level, d, s.data[d].bucket)
			}
		}
		for _, d := range s.movers[w] {
			for v := range s.mirrors {
				if s.mirrors[v].mirrors(int(d)) {
					ctx.SendWorker(v, moverRecord(d, s.data[d].bucket))
				}
			}
		}
	case 2:
		s.hear(w, recs)
		props := s.props[w].reset(len(sc.hists))
		ctx.Aggregate().props = props
		ids := append(s.heard[w], s.movers[w]...)
		s.heard[w] = ids[:0]
		if sc.iter == 0 {
			ids = s.hosted[w]
		}
		for _, d := range ids {
			s.propose(props, g, tables, d)
		}
	case 3:
		s.movers[w] = s.movers[w][:0]
		for _, d := range s.hosted[w] {
			if s.move(ctx, d) {
				s.movers[w] = append(s.movers[w], d)
			}
		}
	}
}

// propose registers data vertex d's gain, its accumulator, with the master
// through its worker's proposal table, in superstep 2. The hook has brought
// the persistent Equation 1 accumulator up to date — gains resummed it
// (movers and rebroadcast iterations: every adjacent query sent a
// contribution), patches added in place — and the master writes what it
// reads only between supersteps.
func (s *runState) propose(props *proposals, g *hypergraph.Bipartite, tables []core.GainTables, d int32) {
	// Admissibility gate: nothing heard and an unchanged bucket mean the
	// accumulator — the gain — is bit-identical to the registered
	// proposal. Stable vertices neither recompute nor ship, so late
	// supersteps cost only the moving frontier on this plane. (The
	// bucket check catches zero-degree movers, whose bucket flips
	// without any message traffic.)
	st, level := &s.data[d], s.sched.level
	heard := st.heard != kindBucket
	st.heard = kindBucket
	if !heard && st.propLevel == level && st.bucket == st.propBucket {
		return
	}
	if st.propLevel == level {
		if st.bucket == st.propBucket && st.acc == st.propGain {
			// Recomputed (rebroadcast verification) but unchanged:
			// nothing to ship. Keeps the maintained and full-rebroadcast
			// regimes' aggregate streams identical.
			return
		}
		// Retract the registered proposal; on a bucket change, move the
		// vertex's weight between the buckets' persistent totals.
		props.propose(st.propBucket, st.propCode, st.propGain, -1)
		if old := st.propBucket; old != st.bucket {
			props.weigh(old, -int64(g.DataWeight(d)))
			props.weigh(st.bucket, int64(g.DataWeight(d)))
		}
	} else {
		// First proposal of the level: register the full weight.
		props.weigh(st.bucket, int64(g.DataWeight(d)))
	}
	code := core.BinCode(st.acc, tables[level].Unit())
	props.propose(st.bucket, code, st.acc, 1)
	st.propBucket, st.propCode, st.propGain, st.propLevel = st.bucket, code, st.acc, level
}

// move reads the master's probability for data vertex d's registered
// proposal, which superstep 2 left equal to (bucket, acc), flips d's coin
// and reports whether d moved, in superstep 3.
func (s *runState) move(ctx *pregel.ContextOf[record, workerAgg], d int32) bool {
	st, sc := &s.data[d], s.sched
	p := sc.probs[st.bucket].ProbAt(st.propCode)
	if p <= 0 {
		return false
	}
	key := rng.Mix(rng.Mix(uint64(sc.level)+1, uint64(sc.iter)+1), uint64(d))
	if p >= 1 || rng.CoinAt(sc.opts.Seed^0x30E5, key) < p {
		st.bucket ^= 1
		ctx.Aggregate().moved++
		return true
	}
	return false
}

// splitBucket is the bucket data vertex d takes at the start of level when
// it was in bucket parent: 2·parent + coin, or the plain coin in {0, 1} at
// level 0, which ignores parent. It is the split's only definition: data
// vertices apply it to their bucket, and queries apply split to their
// registries with the coins their worker drew (mirror.drawCoins).
func splitBucket(seed uint64, level int, d, parent int32) int32 {
	return split(level, parent, splitCoin(seed, level, d))
}

// splitCoin is data vertex d's split coin at level, 0 or 1.
func splitCoin(seed uint64, level int, d int32) uint8 {
	if rng.CoinAt(seed^0x51DE, rng.Mix(uint64(level)+1, uint64(d))) >= 0.5 {
		return 1
	}
	return 0
}

// split is splitBucket's bucket for a drawn coin.
func split(level int, parent int32, coin uint8) int32 {
	b := int32(coin)
	if level > 0 {
		b += 2 * parent
	}
	return b
}

// computeQuery is query q's program in superstep 1, which its worker's gain
// step m runs once it has applied q's updates (see mirror.gainStep): bring
// each member's gain state up to date through m's fold, with m's tables as
// scratch.
//
// When full is set (a level start, a restored run, or a master-scheduled
// rebroadcast) every query adds every member's full contribution, exactly
// the paper's per-iteration r = 2 neighbor-data reduction: one value per
// local bucket, computed once and added per member. Otherwise q is dirty
// and adds a full contribution for each member that moved (it is
// rebuilding) and a patch, one per local bucket, for each clean member
// whose sibling pair holds a changed count. Integer sums make the order
// irrelevant to the result.
func computeQuery(ctx *pregel.ContextOf[record, workerAgg], g *hypergraph.Bipartite, q int32, st *queryState,
	tb core.GainTables, full bool, m *mirror) {

	fold := &m.fold
	members := g.QueryNeighbors(q)
	if full {
		vals := st.values(tb, m.vals)
		if fold.plain {
			for i, d := range members {
				fold.add(ctx, gainRecord(d, vals[st.memberLocal[i]]))
			}
			return
		}
		acc := fold.acc
		for i, d := range members {
			acc[d] += vals[st.memberLocal[i]]
		}
		return
	}
	changes := m.changed(st)
	pat := patches(tb, changes, m.pat)
	for i, d := range members {
		l := st.memberLocal[i]
		if m.moved[i] {
			fold.add(ctx, gainRecord(d, st.contribution(tb, l)))
		} else if p := pat[l]; p.hit {
			fold.add(ctx, patchRecord(d, p.delta))
		}
	}
	unpatch(changes, pat)
	clear(m.moved[:len(members)])
}
