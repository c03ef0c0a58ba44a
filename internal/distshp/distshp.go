// Package distshp implements the paper's distributed SHP: recursive
// bisection driven entirely inside the vertex-centric model (Sections 3.2
// and 3.3, Figure 3), running on the pregel engine.
//
// Each refinement iteration is four supersteps with barriers between them:
//
//	superstep 0: movers send their new bucket to the workers that hold
//	             their adjacent queries, which maintain neighbor data
//	             incrementally;
//	superstep 1: queries send each adjacent data vertex what it needs to
//	             bring its sibling-pair gain state up to date (see below);
//	superstep 2: data vertices compute Equation 1 move gains and register
//	             (direction, gain) proposals with the master, folding them
//	             into their worker's part of the aggregate — changed
//	             proposals only, see below;
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
//   - Every data vertex carries persistent Equation 1 accumulators: sumCur =
//     Σ_q T[n_cur(q)−1] and sumOth = Σ_q T[n_sib(q)] over its adjacent
//     queries, for its current sibling pair.
//   - Bucket updates travel by mirror, as PowerGraph's do (Gonzalez et al.,
//     OSDI 2012). Each worker holds a mirror table: for every data vertex,
//     the (query, slot) pairs of its queries the engine placed on that
//     worker, slot being the vertex's position in the query's sorted member
//     list. A mover sends one (id, bucket) record to each worker that hosts
//     one of its queries (pregel's SendWorker), not one per incidence. The
//     worker's PreSuperstep hook fans the records out through its table,
//     grouped by query in one counting pass so each dirty query takes its
//     updates in a row, and applies them before any query runs. A query's
//     registry holds each member's local row bucket, so an in-level move is
//     l → l^1 and no record is looked up; bucket ids meet the registry's
//     pairs only at a level's registration, which the hook runs too.
//   - After a move round, a dirty query (one that received bucket updates)
//     diffs its pin-count row. Each clean member whose pair holds a changed
//     bucket gets one patch record (ΔsumCur, ΔsumOth), which the query
//     computes itself through core.GainTables.DeltaOwn / DeltaAway, since it
//     knows the member's bucket: the gain delta is computed where the pin
//     count changes, as in Mt-KaHyPar. Receivers add patches to their
//     accumulators.
//   - Members that moved (their own frame changed, so patched sums would
//     refer to the wrong pair side) instead receive a full gain
//     contribution from every adjacent query — all of which are dirty,
//     because the mover's record reached each of them — and resum from
//     scratch.
//   - Contributions fold per worker in the program, as Giraph's combiners
//     fold them per destination: a query adds each gain or patch into its
//     worker's dense accumulator by data id (gainFold), and the engine's
//     PostSuperstep hook sends one record per touched vertex, so every
//     superstep-1 envelope holds one record. The receiver
//     adds what each worker sent; the engine folds nothing. The
//     accumulators are empty at every barrier, so no checkpoint holds them.
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
// data vertex whose accumulators saw no superstep-1 traffic and whose bucket
// is unchanged is stable: its gain is bit-identical to what it last proposed,
// so it neither recomputes nor ships anything. Everyone else recomputes and,
// only if the (direction, gain) actually changed, retracts the previously
// registered proposal and asserts the new one (plus per-bucket weight deltas
// when the bucket changed), into its worker's workerAgg. The master folds
// the workers' assert/retract deltas into persistent per-direction
// histograms and per-bucket weight totals, matches over the persistent state
// each iteration, and resets it at level start — where every vertex
// proposes afresh. Late supersteps therefore ship proposal traffic
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
	"maps"
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
// union of the protocol's three kinds in 24 bytes and no pointer, so the
// engine buffers, ships and delivers it by value. lo and hi hold the payload
// words in the order the wire lays them out (codec.go):
//
//   - bucket, data -> worker, "data vertex ID is now in bucket New": lo =
//     ID | New<<32, sent once to each worker that hosts one of the mover's
//     queries. The worker's mirror table turns it into one (slot, New)
//     update per such query: at a level start it overrides the registry's
//     derived split, later it moves the member.
//   - gain, query -> data: lo, hi = the int64 gain units Cur =
//     T[n(current bucket)-1] and Oth = T[n(sibling)], the query's
//     neighbor-data contribution to the receiver's Equation 1 gain already
//     mapped through the level's gain table. This is the combinable
//     reduction of the paper's r = 2 neighbor-data counts (Section 3.3):
//     contributions from different queries add. A vertex that receives
//     gains resums its persistent accumulators from scratch (every adjacent
//     query sent one).
//   - patch, query -> data: lo, hi = the int64 changes (ΔCur, ΔOth) to
//     those sums, from a dirty query to a clean member whose sibling pair
//     holds a changed count. Patches add like gains, and the receiver adds
//     them to its accumulators.
type record struct {
	lo, hi uint64
	kind   uint8
}

func pack(a, b int32) uint64 { return uint64(uint32(a)) | uint64(uint32(b))<<32 }

func moverRecord(d, bucket int32) record {
	return record{kind: kindBucket, lo: pack(d, bucket)}
}

func gainRecord(cur, oth int64) record {
	return record{kind: kindGain, lo: uint64(cur), hi: uint64(oth)}
}

func patchRecord(cur, oth int64) record {
	return record{kind: kindPatch, lo: uint64(cur), hi: uint64(oth)}
}

func (r record) mover() (d, bucket int32) { return int32(r.lo), int32(r.lo >> 32) }

// sums returns a gain's or a patch's two int64 values.
func (r record) sums() (cur, oth int64) { return int64(r.lo), int64(r.hi) }

// dataState is the per-data-vertex state.
type dataState struct {
	bucket int32 // bucket id within the current level, in [0, 2^(level+1))
	moved  bool  // moved in the previous iteration (drives dirty-only sends)
	level  int
	// Persistent Equation 1 accumulators for the current sibling pair, in
	// gain units: sumCur = Σ_q T[n_bucket(q)−1], sumOth = Σ_q T[n_sibling(q)].
	// Resummed from gain records after a move (or rebroadcast), patched
	// otherwise; integer arithmetic keeps the two maintenance regimes
	// identical.
	sumCur, sumOth int64
	// Gain units for moving to the sibling bucket, derived in superstep 2.
	gain int64
	// The proposal currently registered on the master's persistent
	// histograms: direction key, gain, and the level it was asserted at
	// (propLevel != level means nothing is registered at this level yet).
	// Superstep 2 retracts/asserts against these, shipping only changes.
	propKey   uint64
	propGain  int64
	propLevel int
}

// memberRef is one mirror table entry: a query, by its index in the
// worker's query list, and the data vertex's slot in its member list.
type memberRef struct{ q, slot int32 }

// update is one member's bucket update, fanned out from a mover's record.
type update struct{ slot, bucket int32 }

// mirror is one worker's mirror table and the state its PreSuperstep hook
// keeps. ref lists, for each data vertex, the queries the engine placed on
// the worker that it belongs to, in ascending query order, each with the
// vertex's slot: a CSR of one entry per local incidence, 8 bytes each.
type mirror struct {
	queries []int32 // the worker's queries, ascending
	off     []int64 // data vertex d's entries are ref[off[d]:off[d+1]]
	ref     []memberRef
	// full is set while a superstep 1 sends every member's full
	// contribution: a level start's, a restored run's or a sweep's.
	full bool
	// The counting pass's scratch: update groups by local query, query i's
	// at upd[start[i]:start[i+1]], and start's two spare entries; empty
	// between hooks.
	start []int32
	upd   []update
	// pairAt is the worker's pair table, which its queries' registrations
	// mark (queryState.recount).
	pairAt []int32
}

// newMirrors builds every worker's mirror table over g at k buckets, with
// workerOf the worker the engine placed query q on, in one pass over the
// queries in ascending order, which is the order each data vertex lists
// them in.
func newMirrors(g *hypergraph.Bipartite, k, workers int, workerOf func(q int32) int) []mirror {
	numD := g.NumData()
	ms := make([]mirror, workers)
	for w := range ms {
		ms[w].off = make([]int64, numD+1)
		ms[w].pairAt = make([]int32, k/2)
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

// apply is the worker's PreSuperstep hook in a gain superstep: it fans the
// movers' records out to the worker's queries and applies them, before any
// of those queries runs. A counting pass groups the updates by query, so
// each dirty query takes its updates in a row; applied mover by mover, the
// query states miss the cache. At a level start, or in a restored run,
// every query registers instead, its movers overriding the derived split.
// The worker's queries register together, so the first one's level is
// theirs. The live-entry diff of the worker's rows goes to the master.
func (m *mirror) apply(ctx *pregel.ContextOf[record, workerAgg], g *hypergraph.Bipartite, queries []queryState,
	movers []record, s *schedule) {

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
	levelStart := len(m.queries) > 0 && queries[m.queries[0]].level != level
	m.full = levelStart || s.rebuildNext
	diff := 0
	for i, q := range m.queries {
		st := &queries[q]
		ups := m.upd[start[i]:start[i+1]]
		if levelStart {
			live := st.row.Live()
			st.register(q, level, s.opts.Seed, g.QueryNeighbors(q), ups, m.pairAt)
			diff += st.row.Live() - live
			continue
		}
		for _, u := range ups {
			diff += st.applyUpdate(q, u, !m.full)
		}
	}
	clear(start)
	ctx.Aggregate().fanoutDiff += int64(diff)
}

// queryState is the per-query-vertex state: the paper's "neighbor data"
// n_b(q), held in SHP-k's pin-count row (core.PinRow) so the gain superstep
// performs zero hash operations. During a level a member only moves inside
// its sibling pair, so the pairs the registered members occupy are fixed
// from registration to the level's end, and the row counts over just those:
// bucket b is the row's local bucket 2i + b&1, where pairs[i] = b>>1. A row
// is bounded by the query's degree, never by K, and its ascending local
// order is ascending bucket order. The member registry is an int32 slice
// aligned with the query's sorted adjacency list, addressed by the slot its
// worker's mirror table holds, and holds local buckets, so the per-level
// reset is a linear fill instead of a map rebuild. The query's id is its vertex id
// minus |D|, so the state does not store it. All but its diff buffer come
// from run slabs (newQueryStates).
type queryState struct {
	level int // -1 until the first registration
	// memberLocal[i] is the local row bucket of the i-th member of the
	// query's sorted adjacency list, as last heard.
	memberLocal []int32
	// pairs lists the sibling pairs of the registered members, ascending
	// and distinct, within room for min(degree, K/2) of them. row is the live
	// neighbor data over 2·len(pairs) local buckets. At every barrier both
	// are exactly what recount derives from the members' buckets.
	pairs []int32
	row   core.PinRow

	// Per-superstep scratch, reused so the steady state allocates nothing:
	// snap is the row as it stood before this superstep's first tracked
	// update (diffed by changed), moved flags this superstep's movers by
	// member index and movers counts them, changes is the diff output buffer.
	snap    core.PinRow
	moved   []bool
	movers  int
	changes []core.NDChange
}

// newQueryStates carves n unregistered query states, query q of degree(q)
// members, from per-run slabs: registries beside room for min(degree, k/2)
// sibling pairs, mover flags, and live and snapshot rows over the room.
func newQueryStates(n, k int, degree func(q int) int) []queryState {
	room := func(q int) int { return min(degree(q), k/2) }
	ints, flags := 0, 0
	for q := 0; q < n; q++ {
		ints += degree(q) + room(q)
		flags += degree(q)
	}
	buf, moved := make([]int32, ints), make([]bool, flags)
	rows := core.NewPinRows(2*n, func(i int) int { return 2 * room(i/2) })
	states := make([]queryState, n)
	for q := range states {
		deg, r := degree(q), room(q)
		states[q] = queryState{level: -1, row: rows[2*q], snap: rows[2*q+1],
			memberLocal: buf[:deg:deg], pairs: buf[deg : deg : deg+r], moved: moved[:deg:deg]}
		buf, moved = buf[deg+r:], moved[deg:]
	}
	return states
}

// register (re)initializes the registry for a new level and recounts the
// row. Each member's bucket is the split of the one the registry holds, as
// the member itself made it, unless the member moved in the previous
// iteration: then its update in movers carries the bucket. An unregistered
// query (a fresh or restored run) splits nothing it holds: at level 0 the
// split ignores the parent, and a restored run's every member is a mover.
// pairAt is the worker's pair table (see recount).
func (st *queryState) register(q int32, level int, seed uint64, members []int32, movers []update, pairAt []int32) {
	for i, d := range members {
		parent := int32(-1)
		if st.level >= 0 {
			parent = st.bucket(st.memberLocal[i])
		}
		st.memberLocal[i] = splitBucket(seed, level, d, parent)
	}
	for _, u := range movers {
		st.memberLocal[st.slot(q, u.slot)] = u.bucket
	}
	st.level = level
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
	st.snap = st.snap.Reshape(2 * len(st.pairs))
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

// gain returns the full contribution to a member in local bucket l.
func (st *queryState) gain(tb core.GainTables, l int32) record {
	return gainRecord(tb.T[st.row.Count(l)-1], tb.T[st.row.Count(l^1)])
}

// patch returns the change the superstep's row changes make to the
// accumulators of a clean member in local bucket l, and false when neither
// its bucket's count nor its sibling's changed.
func (st *queryState) patch(tb core.GainTables, l int32, changes []core.NDChange) (record, bool) {
	var cur, oth int64
	hit := false
	for _, c := range changes {
		switch c.B {
		case l:
			cur += tb.DeltaOwn(c.COld, c.CNew)
			hit = true
		case l ^ 1:
			oth += tb.DeltaAway(c.COld, c.CNew)
			hit = true
		}
	}
	return patchRecord(cur, oth), hit
}

// applyUpdate folds one within-level bucket update into query q's neighbor
// data: a transfer from the member's local bucket l to l^1, its sibling. It
// returns the change in the row's live entries. When track is set (the
// incremental plane), the row is snapshotted before the superstep's first
// tracked update and the updating member is flagged as a mover, so changed
// can diff the net per-bucket changes and the send loop can route full
// contributions to movers only.
func (st *queryState) applyUpdate(q int32, u update, track bool) int {
	i, bucket := st.slot(q, u.slot), u.bucket
	from := st.memberLocal[i]
	if to := from ^ 1; st.bucket(to) != bucket {
		//shp:panics(invariant: members move only to the sibling of their registered bucket; anything else means the level protocol broke)
		panic(fmt.Sprintf("distshp: member %d of query %d moved to bucket %d, not to the sibling of its bucket %d",
			i, q, bucket, st.bucket(from)))
	}
	if track {
		if st.movers == 0 {
			st.snap.CopyFrom(st.row)
		}
		if !st.moved[i] {
			st.moved[i] = true
			st.movers++
		}
	}
	st.memberLocal[i] = from ^ 1
	return st.row.Transfer(q, from, from^1)
}

// changed diffs the pre-superstep snapshot against the current row into
// canonical ascending (local bucket, cOld, cNew) changes, skipping buckets
// whose net count is unchanged. 0 means "entry absent" on either side.
func (st *queryState) changed() []core.NDChange {
	st.changes = st.row.Diff(st.changes[:0], st.snap)
	return st.changes
}

// resetSuperstep clears the tracked-superstep scratch, in the time the send
// loop already took to walk the members.
func (st *queryState) resetSuperstep() {
	clear(st.moved)
	st.movers = 0
}

// gainFold is one worker's superstep-1 accumulator: the gains and patches
// its queries address each data vertex, folded into one record per vertex
// in held, by data id (the zero record, of the bucket kind, marks an empty
// entry), and listed in first-touch order in touched. flush, the engine's
// PostSuperstep hook, sends them: one envelope of one record per (worker,
// data vertex).
type gainFold struct {
	held    []record
	touched []int32
	// plain sends each record as it comes (Options.noFold).
	plain bool
}

// add folds r, a gain or a patch for data vertex d, in: two gains, or two
// patches, add. The protocol never mixes the two for one vertex in one
// superstep (a vertex is either a mover — gains from every adjacent query —
// or clean — patches only); add, computeData and the codec all refuse a mix.
func (f *gainFold) add(ctx *pregel.ContextOf[record, workerAgg], d int32, r record) {
	if f.plain {
		ctx.Send(pregel.VertexID(d), r)
		return
	}
	switch h := &f.held[d]; h.kind {
	case kindBucket:
		*h = r
		f.touched = append(f.touched, d)
	case r.kind:
		cur, oth := h.sums()
		rc, ro := r.sums()
		h.lo, h.hi = uint64(cur+rc), uint64(oth+ro)
	default:
		//shp:panics(invariant: a vertex is either a mover, sent gains only, or clean, sent patches only; a mix means the barrier protocol broke)
		panic(fmt.Sprintf("distshp: vertex %d was sent records of kinds %d and %d in one superstep", d, h.kind, r.kind))
	}
}

// flush sends one record per touched vertex and empties the fold. When at
// least an eighth of the data ids are touched, as in every full
// rebroadcast, it walks held by ascending id instead of first-touch order,
// so the engine's placement and envelope slots are read in order too. Each
// vertex gets one record per worker either way, so only frame order moves.
func (f *gainFold) flush(ctx *pregel.ContextOf[record, workerAgg]) {
	if 8*len(f.touched) >= len(f.held) {
		for d, r := range f.held {
			if r.kind != kindBucket {
				ctx.Send(pregel.VertexID(d), r)
				f.held[d] = record{}
			}
		}
	} else {
		for _, d := range f.touched {
			ctx.Send(pregel.VertexID(d), f.held[d])
			f.held[d] = record{}
		}
	}
	f.touched = f.touched[:0]
}

// workerAgg is one worker's part of a superstep's aggregate, what its
// vertices ship the master: proposal deltas per direction (keyed by
// directionKey; an assert adds a gain and a retract removes one, so counts
// may go negative), per-bucket weight deltas, the movers, and the queries'
// live-entry diff.
type workerAgg struct {
	hists      map[uint64]*core.DirHist
	weights    map[int32]int64
	moved      int64
	fanoutDiff int64
}

// propose folds one proposal delta of gain units, of unit each, in.
func (a *workerAgg) propose(key uint64, gain int64, unit float64, retract bool) {
	h := a.hists[key]
	if h == nil {
		if a.hists == nil {
			a.hists = map[uint64]*core.DirHist{}
		}
		h = &core.DirHist{}
		a.hists[key] = h
	}
	if retract {
		h.Remove(gain, unit)
	} else {
		h.Add(gain, unit)
	}
}

// weigh adds w to bucket's weight delta.
func (a *workerAgg) weigh(bucket int32, w int64) {
	if a.weights == nil {
		a.weights = map[int32]int64{}
	}
	a.weights[bucket] += w
}

// WireSize reports what shipping the part to the master would cost: an
// 8-byte direction key plus the delta histogram's non-empty bins per
// direction, and a 4-byte bucket id plus an 8-byte weight per bucket; the
// two counts are not charged. Feeds pregel's AggBytes accounting.
func (a *workerAgg) WireSize() int {
	n := 12 * len(a.weights)
	//shp:ordered(integer sum over disjoint entries; exact and order-free)
	for _, h := range a.hists {
		n += 8 + h.WireSize()
	}
	return n
}

// fold merges the workers' proposal deltas into the persistent state.
// DirHist sums are integers, so every merge order gives the same state.
func (s *schedule) fold(parts []*workerAgg) {
	for _, p := range parts {
		//shp:ordered(integer histogram merges into distinct keys; equal in any order)
		for key, h := range p.hists {
			if mine := s.hists[key]; mine != nil {
				mine.Merge(h)
			} else {
				s.hists[key] = h
			}
		}
		//shp:ordered(integer sums into distinct keys; exact in any order)
		for b, w := range p.weights {
			s.weights[b] += w
		}
	}
}

// match pairs each direction's histogram with its opposite's and sets the
// move probabilities superstep 3 reads. Keys ascend, so within a sibling
// pair (key, key^1) the lower key always plays the A side of
// MatchHistograms and the tables are bit-reproducible.
func (s *schedule) match() {
	eps := s.opts.Epsilon * float64(s.level+1) / float64(s.levels)
	// Rounding the product keeps arm64 from fusing it into FNMSUBD below.
	cap0 := float64(s.ideal * float64(s.opts.K>>(s.level+1)) * (1 + eps))
	s.probs = map[uint64]*core.ProbTable{}
	var empty core.DirHist
	for _, key := range slices.Sorted(maps.Keys(s.hists)) {
		if _, done := s.probs[key]; done {
			continue
		}
		rkey := key ^ 1 // opposite direction of the same pair
		rh := s.hists[rkey]
		if rh == nil {
			rh = &empty
		}
		// directionKey(b) == b: the direction "from b to its sibling" is
		// identified by b itself, so direction key receives into bucket
		// key^1 and vice versa.
		dstA := int32(uint32(key ^ 1))
		dstB := int32(uint32(key))
		extraA := int64(0)
		extraB := int64(0)
		if head := cap0 - float64(s.weights[dstA]); head > 0 {
			extraA = int64(head * 0.9)
		}
		if head := cap0 - float64(s.weights[dstB]); head > 0 {
			extraB = int64(head * 0.9)
		}
		pa, pb := core.MatchHistograms(s.hists[key], rh, extraA, extraB)
		s.probs[key] = &pa
		if rh != &empty {
			s.probs[rkey] = &pb
		}
	}
}

// Partition runs distributed SHP-2 on g.
func Partition(g *hypergraph.Bipartite, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.K < 2 || opts.K&(opts.K-1) != 0 {
		return nil, fmt.Errorf("distshp: K must be a power of two >= 2, got %d", opts.K)
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
	sched := &schedule{
		opts: opts, levels: levels,
		ideal: float64(g.TotalDataWeight()) / float64(opts.K),
		hists: map[uint64]*core.DirHist{}, weights: map[int32]int64{},
	}

	// The program's state: the vertex states in two slabs, indexed by vertex
	// id, and the schedule. The engine's vertices are one slab too.
	states := newRunState(g, sched)
	slab := make([]pregel.Vertex, numD+numQ)
	vertices := make([]*pregel.Vertex, len(slab))
	for i := range slab {
		slab[i].ID = pregel.VertexID(i)
		vertices[i] = &slab[i]
	}

	maxSupersteps := levels*opts.ItersPerLevel*4 + 8

	// The message plane's per-run state: each worker's mirror table, built
	// once the engine has placed the vertices, and superstep-1 fold over
	// all data ids.
	var mirrors []mirror
	folds := make([]gainFold, opts.Workers)
	for w := range folds {
		folds[w].plain = opts.noFold
		if !opts.noFold {
			folds[w].held = make([]record, numD)
		}
	}

	compute := func(ctx *pregel.ContextOf[record, workerAgg], v *pregel.Vertex, msgs []record) {
		if id := int(v.ID); id < numD {
			computeData(ctx, g, int32(id), &states.data[id], msgs, sched, tables, mirrors)
		} else if ctx.Superstep()%4 == 1 {
			computeQuery(ctx, g, int32(id-numD), &states.query[id-numD], tables[sched.level],
				mirrors[ctx.Worker()].full, &folds[ctx.Worker()])
		}
	}

	// A worker's gain superstep starts with its mirror table's updates and
	// ends with its fold's records.
	fanOut := func(ctx *pregel.ContextOf[record, workerAgg], movers []record) {
		if ctx.Superstep()%4 == 1 {
			mirrors[ctx.Worker()].apply(ctx, g, states.query, movers, sched)
		}
	}
	flush := func(ctx *pregel.ContextOf[record, workerAgg]) {
		if ctx.Superstep()%4 == 1 {
			folds[ctx.Worker()].flush(ctx)
		}
	}

	// The master runs at every barrier after superstep step, and leaves
	// sched as the next superstep's vertices read it.
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
				// The proposal plane re-registers from scratch too: drop the
				// persistent state.
				sched.hists = map[uint64]*core.DirHist{}
				sched.weights = map[int32]int64{}
				if sched.level >= levels {
					return true
				}
			}
		}
		return false
	}

	engOpts := pregel.OptionsOf[record, workerAgg]{
		Workers:       opts.Workers,
		Compute:       compute,
		PreSuperstep:  fanOut,
		PostSuperstep: flush,
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
	eng, err := pregel.NewEngineOf(engOpts, vertices)
	if err != nil {
		return nil, err
	}
	mirrors = newMirrors(g, opts.K, opts.Workers, func(q int32) int { return eng.WorkerOf(pregel.VertexID(numD + int(q))) })
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

// computeData is the program of data vertex d. It reads the master's state
// in s, which the master writes only between supersteps.
func computeData(ctx *pregel.ContextOf[record, workerAgg], g *hypergraph.Bipartite, d int32, st *dataState,
	msgs []record, s *schedule, tables []core.GainTables, mirrors []mirror) {

	switch ctx.Superstep() % 4 {
	case 0:
		if s.level != st.level {
			// Level start: split my bucket. The queries split their
			// registries the same way, so a vertex that did not just move
			// has nothing to tell them.
			st.bucket = splitBucket(s.opts.Seed, s.level, d, st.bucket)
			st.level = s.level
		}
		if st.moved {
			for w := range mirrors {
				if len(mirrors[w].of(d)) > 0 {
					ctx.SendWorker(w, moverRecord(d, st.bucket))
				}
			}
			st.moved = false
		}
	case 1:
		// The workers' hooks and queries act; data idles.
	case 2:
		// Bring the persistent Equation 1 accumulators up to date and
		// register the gain for moving to the sibling bucket with the master.
		// Gains mean "resum from scratch" (movers and rebroadcast iterations
		// — every adjacent query sent a contribution); patches add in place.
		// The protocol never mixes the two for one vertex in one superstep.
		//
		// Admissibility gate: no superstep-1 traffic and an unchanged bucket
		// mean the accumulators — and so the gain — are bit-identical to the
		// registered proposal. Stable vertices neither recompute nor ship,
		// so late supersteps cost only the moving frontier on this plane.
		// (The bucket check catches zero-degree movers, whose bucket flips
		// without any message traffic.)
		level := s.level
		key := directionKey(st.bucket)
		if len(msgs) == 0 && st.propLevel == level && key == st.propKey {
			return
		}
		tb := tables[level]
		var sumCur, sumOth int64
		gains, patches := 0, 0
		for _, m := range msgs {
			cur, oth := m.sums()
			sumCur += cur
			sumOth += oth
			if m.kind == kindGain {
				gains++
			} else {
				patches++
			}
		}
		switch {
		case gains > 0 && patches > 0:
			//shp:panics(invariant: the superstep schedule never mixes gains and patches; a mix means the barrier protocol broke)
			panic(fmt.Sprintf("distshp: vertex %d received %d gain and %d patch messages in one superstep",
				d, gains, patches))
		case gains > 0:
			st.sumCur, st.sumOth = sumCur, sumOth
		default:
			st.sumCur += sumCur
			st.sumOth += sumOth
		}
		st.gain = st.sumCur - st.sumOth
		agg := ctx.Aggregate()
		if st.propLevel == level {
			if key == st.propKey && st.gain == st.propGain {
				// Recomputed (rebroadcast verification) but unchanged:
				// nothing to ship. Keeps the maintained and full-rebroadcast
				// regimes' aggregate streams identical.
				return
			}
			// Retract the registered proposal; on a bucket change, move the
			// vertex's weight between the buckets' persistent totals.
			agg.propose(st.propKey, st.propGain, tb.Unit(), true)
			if oldB := int32(uint32(st.propKey)); oldB != st.bucket {
				agg.weigh(oldB, -int64(g.DataWeight(d)))
				agg.weigh(st.bucket, int64(g.DataWeight(d)))
			}
		} else {
			// First proposal of the level: register the full weight.
			agg.weigh(st.bucket, int64(g.DataWeight(d)))
		}
		agg.propose(key, st.gain, tb.Unit(), false)
		st.propKey, st.propGain, st.propLevel = key, st.gain, level
	case 3:
		// Read the master's probabilities and maybe move.
		pt := s.probs[directionKey(st.bucket)]
		if pt == nil {
			return
		}
		p := pt.ProbFor(st.gain, tables[s.level].Unit())
		if p <= 0 {
			return
		}
		key := rng.Mix(rng.Mix(uint64(s.level)+1, uint64(s.iter)+1), uint64(d))
		if p >= 1 || rng.CoinAt(s.opts.Seed^0x30E5, key) < p {
			st.bucket ^= 1
			st.moved = true
			ctx.Aggregate().moved++
		}
	}
}

// splitBucket is the bucket data vertex d takes at the start of level when
// it was in bucket parent: 2·parent + coin, or the plain coin in {0, 1} at
// level 0, which ignores parent. It is the split's only definition: data
// vertices apply it to their bucket, queries to their registries.
func splitBucket(seed uint64, level int, d, parent int32) int32 {
	b := int32(0)
	if level > 0 {
		b = 2 * parent
	}
	if rng.CoinAt(seed^0x51DE, rng.Mix(uint64(level)+1, uint64(d))) >= 0.5 {
		b++
	}
	return b
}

// directionKey identifies the direction "from bucket b to its sibling".
// Because the pair is (b &^ 1, b | 1), the source bucket id itself is a
// collision-free key, and the opposite direction is key ^ 1.
func directionKey(bucket int32) uint64 {
	return uint64(uint32(bucket))
}

// computeQuery is the program of query vertex q in superstep 1: bring each
// member's gain state up to date through its worker's fold. Its worker's
// PreSuperstep hook has already applied the members' bucket updates (see
// mirror.apply).
//
// A dirty query adds a full gain contribution for each member that moved
// (it is rebuilding) and a patch for each clean member whose sibling pair
// holds a changed count; clean queries add nothing. When full is set (a
// level start, a restored run, or a master-scheduled rebroadcast) every
// query adds every member's full contribution, exactly the paper's
// per-iteration r = 2 neighbor-data reduction. Integer sums make the order
// irrelevant to the result.
func computeQuery(ctx *pregel.ContextOf[record, workerAgg], g *hypergraph.Bipartite, q int32, st *queryState,
	tb core.GainTables, full bool, fold *gainFold) {

	members := g.QueryNeighbors(q)
	if full {
		for i, d := range members {
			fold.add(ctx, d, st.gain(tb, st.memberLocal[i]))
		}
		return
	}
	if st.movers == 0 {
		return // clean query: members' accumulators are already exact
	}
	changes := st.changed()
	for i, d := range members {
		l := st.memberLocal[i]
		if st.moved[i] {
			fold.add(ctx, d, st.gain(tb, l))
		} else if r, ok := st.patch(tb, l, changes); ok {
			fold.add(ctx, d, r)
		}
	}
	st.resetSuperstep()
}
