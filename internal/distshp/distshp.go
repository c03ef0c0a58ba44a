// Package distshp implements the paper's distributed SHP: recursive
// bisection driven entirely inside the vertex-centric model (Sections 3.2
// and 3.3, Figure 3), running on the pregel engine.
//
// Each refinement iteration is four supersteps with barriers between them:
//
//	superstep 0: movers send their new bucket to adjacent queries, which
//	             maintain neighbor data incrementally;
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
// same dirty-query delta scheme the in-process engine uses (core/direct.go),
// pushed across superstep message boundaries.
//
//   - Every data vertex carries persistent Equation 1 accumulators: sumCur =
//     Σ_q T[n_cur(q)−1] and sumOth = Σ_q T[n_sib(q)] over its adjacent
//     queries, for its current sibling pair.
//   - After a move round, a dirty query (one that received bucket updates)
//     diffs its per-bucket histogram and emits (query, bucket, cOld, cNew)
//     delta records — only for buckets whose counts changed, and only to the
//     clean members whose pair contains the changed bucket. Receivers patch
//     their accumulators through core.GainTables.DeltaOwn / DeltaAway.
//   - Members that moved (their own frame changed, so patched sums would
//     refer to the wrong pair side) instead receive a full gain
//     contribution from every adjacent query — all of which are dirty,
//     because the mover broadcast its new bucket — and resum from scratch.
//   - All gain-table values live on the shared dyadic grid (core's
//     gainGridBits), so patched accumulators land bit-for-bit on the same
//     floats a full resummation produces, in any order: the incremental and
//     full paths yield byte-identical partitions and histories.
//   - The master runs the iteration policy the in-process refiners run
//     (core.IterPolicy) at the wire's fallback divisor: after a batch too
//     large to patch (core.Sweep), and every Options.RebuildEvery iterations
//     (core.Rebuild), the next superstep 1 is a full rebroadcast that
//     re-derives every accumulator from the histograms (a period of 1 is the
//     paper's plain per-iteration rebroadcast).
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
// (sweep fallback, RebuildEvery schedule) recompute every gain — verifying
// the maintained proposal state — but still ship only the changes, so the
// maintained and recomputed regimes stay byte-identical.
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
	"math"
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
	// RebuildEvery is the period, in iterations within a level, of the
	// scheduled full gain rebroadcast (core.Rebuild): superstep 1 re-sends
	// every member's full contribution instead of patching accumulators. It
	// re-derives exactly the maintained state, so every period gives
	// byte-identical results; 1 (no delta records at all) is the ablation
	// reference. 0 means 64, as core's NDRebuildEvery; negative never.
	RebuildEvery int
	// Checkpointer stores superstep snapshots for worker-failure recovery
	// (nil means an in-process store, pregel.NewMemoryCheckpointer; use
	// pregel.NewDiskCheckpointer to survive process death). Snapshots cover
	// vertex state — including the persistent dyadic-grid accumulators —
	// pending inboxes, and the master's schedule with its persistent
	// histograms, so a recovered run resumes the incremental protocol
	// without a rebroadcast and finishes byte-identical to an undisturbed
	// one.
	Checkpointer pregel.Checkpointer
	// CheckpointEvery is the snapshot cadence in supersteps (default 64).
	CheckpointEvery int
	// DisableCheckpointing turns the checkpoint plane off entirely
	// (ablation: any worker failure then aborts the run).
	DisableCheckpointing bool

	// noCombine runs the engine without the sender-side combiner. Combining
	// never changes a result, only the traffic, so nothing outside this
	// package can set it: it is the plain side of the combined-vs-plain
	// equivalence tests.
	noCombine bool
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
	if o.RebuildEvery == 0 {
		o.RebuildEvery = 64
	}
	return o
}

// iterPolicy is the master's iteration schedule: the in-process refiners'
// policy at the wire's patch-vs-rebroadcast threshold.
func (o Options) iterPolicy() core.IterPolicy {
	return core.NewIterPolicy(o.ItersPerLevel, o.MinMoveFraction, o.RebuildEvery, core.WireFallbackDiv)
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

// LateGainBytes sums the gain/delta-superstep traffic of the run's "late"
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
//   - bucket, data -> query, "I am now in bucket New": lo = Data | New<<32.
//     Queries key their incremental neighbor-data maintenance on Data alone
//     (at a level start it overrides the registry's derived split, later it
//     moves the member), so that pair is the whole payload.
//   - gain, query -> data: lo, hi = the bits of Cur = T[n(current bucket)-1]
//     and Oth = T[n(sibling)], the query's neighbor-data contribution to the
//     receiver's Equation 1 gain already mapped through the level's gain
//     table. This is the combinable reduction of the paper's r = 2
//     neighbor-data counts (Section 3.3): contributions from different
//     queries add, so the combiner folds one worker's gains for a vertex into
//     one record. A vertex that receives gains resums its persistent
//     accumulators from scratch (every adjacent query sent one).
//   - delta, query -> data: lo = Bucket | COld<<32, hi = CNew, one changed
//     neighbor-data entry of a dirty query — bucket Bucket's adjacent-data
//     count went COld -> CNew (0 = entry absent). Sent only to clean members
//     whose sibling pair contains Bucket; receivers patch their persistent
//     accumulators through the exact dyadic-grid arithmetic of
//     core.GainTables.DeltaOwn/DeltaAway. No query id travels: the patch is a
//     sum of per-record table-value differences, whichever query sent them.
//
// Buckets and deltas do not fold. The combiner declines them and the engine
// appends them to their destination's envelope, which ships as one batch.
type record struct {
	lo, hi uint64
	kind   uint8
}

func pack(a, b int32) uint64 { return uint64(uint32(a)) | uint64(uint32(b))<<32 }

func bucketRecord(data, bucket int32) record {
	return record{kind: kindBucket, lo: pack(data, bucket)}
}

func gainRecord(cur, oth float64) record {
	return record{kind: kindGain, lo: math.Float64bits(cur), hi: math.Float64bits(oth)}
}

func deltaRecord(bucket, cOld, cNew int32) record {
	return record{kind: kindDelta, lo: pack(bucket, cOld), hi: uint64(uint32(cNew))}
}

func (r record) bucket() (data, bucket int32) { return int32(r.lo), int32(r.lo >> 32) }

func (r record) gain() (cur, oth float64) {
	return math.Float64frombits(r.lo), math.Float64frombits(r.hi)
}

func (r record) delta() (bucket, cOld, cNew int32) {
	return int32(r.lo), int32(r.lo >> 32), int32(r.hi)
}

// combine is the engine combiner: two gains add, in place; anything else
// declines, so bucket updates and deltas batch in their envelope. The
// protocol never mixes kinds for one destination in one superstep (a vertex
// is either a mover — gains from every adjacent query — or clean — deltas
// only); computeData and the codec both refuse a mix.
func combine(held *record, m record) bool {
	if m.kind != kindGain || held.kind != kindGain {
		return false
	}
	cur, oth := held.gain()
	mc, mo := m.gain()
	*held = gainRecord(cur+mc, oth+mo)
	return true
}

// dataState is the per-data-vertex state.
type dataState struct {
	bucket int32 // bucket id within the current level, in [0, 2^(level+1))
	moved  bool  // moved in the previous iteration (drives dirty-only sends)
	level  int
	// Persistent Equation 1 accumulators for the current sibling pair:
	// sumCur = Σ_q T[n_bucket(q)−1], sumOth = Σ_q T[n_sibling(q)]. Resummed
	// from gain records after a move (or rebroadcast), patched from deltas
	// otherwise; exact dyadic-grid arithmetic keeps the two
	// maintenance regimes bit-identical.
	sumCur, sumOth float64
	// Gain for moving to the sibling bucket, derived in superstep 2.
	gain float64
	// The proposal currently registered on the master's persistent
	// histograms: direction key, gain, and the level it was asserted at
	// (propLevel != level means nothing is registered at this level yet).
	// Superstep 2 retracts/asserts against these, shipping only changes.
	propKey   uint64
	propGain  float64
	propLevel int
}

// applyDelta folds one dirty-query delta record into data vertex d's
// persistent accumulators. Records are routed by the sender to members whose
// pair contains the changed bucket, so anything else is a protocol violation.
func (st *dataState) applyDelta(d int32, tb core.GainTables, r record) {
	bucket, cOld, cNew := r.delta()
	switch bucket {
	case st.bucket:
		st.sumCur += tb.DeltaOwn(cOld, cNew)
	case st.bucket ^ 1:
		st.sumOth += tb.DeltaAway(cOld, cNew)
	default:
		//shp:panics(invariant: routing guarantees deltas reach only members of the changed pair; a miss means corrupt accumulators)
		panic(fmt.Sprintf("distshp: delta for bucket %d reached vertex %d in bucket %d",
			bucket, d, st.bucket))
	}
}

// queryState is the per-query-vertex state: the paper's "neighbor data"
// n_b(q), held in SHP-k's pin-count row (core.PinRow) so the gain superstep
// performs zero hash operations. During a level a member only moves inside
// its sibling pair, so the pairs the registered members occupy are fixed
// from registration to the level's end, and the row counts over just those:
// bucket b is the row's local bucket 2i + b&1, where pairs[i] = b>>1. A row
// is bounded by the query's degree, never by K, and its ascending local
// order is ascending bucket order. The member registry is an int32 slice
// aligned with the query's sorted adjacency list — member lookups are binary
// searches, and the per-level reset is a linear fill instead of a map
// rebuild. The query's id is its vertex id minus |D|, so the state does not
// store it.
type queryState struct {
	level int
	// memberBucket[i] is the last known bucket of the i-th member of the
	// query's sorted adjacency list, -1 while unregistered at this level.
	memberBucket []int32
	// pairs lists the sibling pairs of the registered members, ascending
	// and distinct. row is the live neighbor data over 2·len(pairs) local
	// buckets. At every barrier both are exactly what recount derives from
	// memberBucket, which is why a snapshot stores only the registry.
	pairs []int32
	row   core.PinRow

	// Per-superstep scratch, reused so the steady state allocates nothing:
	// snap is the row as it stood before this superstep's first tracked
	// update (diffed by deltaRecords), moved/movedIdx flag this superstep's
	// movers by member index, changes is the diff output buffer.
	snap     core.PinRow
	moved    []bool
	movedIdx []int32
	changes  []core.NDChange
}

// register (re)initializes the registry for a new level of a run over k
// buckets and recounts the row. Each member's bucket is the split of the one
// the registry holds, as the member itself made it, unless the member moved
// in the previous iteration: then its record in movers carries the bucket.
// The registry and room for every pair the query can reach share one
// allocation.
func (st *queryState) register(q int32, level, k int, seed uint64, members []int32, movers []record) {
	st.level = level
	if st.memberBucket == nil {
		n := len(members)
		buf := make([]int32, n+min(n, k/2))
		st.memberBucket, st.pairs = buf[:n:n], buf[n:n]
		st.moved = make([]bool, n)
	}
	for i, d := range members {
		st.memberBucket[i] = splitBucket(seed, level, d, st.memberBucket[i])
	}
	for _, m := range movers {
		data, bucket := m.bucket()
		st.memberBucket[member(q, members, data)] = bucket
	}
	st.recount()
}

// recount derives pairs and the row from memberBucket.
func (st *queryState) recount() {
	st.pairs = st.pairs[:0]
	for _, b := range st.memberBucket {
		if b >= 0 {
			st.pairs = append(st.pairs, b>>1)
		}
	}
	slices.Sort(st.pairs)
	st.pairs = slices.Compact(st.pairs)
	st.row = st.row.Reshape(2 * len(st.pairs))
	st.snap = st.snap.Reshape(2 * len(st.pairs))
	for _, b := range st.memberBucket {
		if b >= 0 {
			l, _ := st.local(b)
			st.row.Inc(l)
		}
	}
}

// local maps bucket b to the row's local bucket; ok is false when b's pair
// holds no registered member this level.
func (st *queryState) local(b int32) (l int32, ok bool) {
	i, ok := slices.BinarySearch(st.pairs, b>>1)
	return int32(i)<<1 | b&1, ok
}

// counts returns the pin counts of a registered member's bucket b and of
// its sibling.
func (st *queryState) counts(b int32) (own, sib int32) {
	l, _ := st.local(b)
	return st.row.Count(l), st.row.Count(l ^ 1)
}

// member returns data's index in query q's sorted adjacency list.
func member(q int32, members []int32, data int32) int {
	i, ok := slices.BinarySearch(members, data)
	if !ok {
		//shp:panics(invariant: only adjacent data vertices may update a query; a stray update corrupts neighbor histograms)
		panic(fmt.Sprintf("distshp: bucket update from non-member %d reached query %d", data, q))
	}
	return i
}

// applyUpdate folds one within-level bucket update into query q's neighbor
// data: a transfer from the member's previous bucket, or a plain increment
// if it had not registered. members is the query's sorted adjacency list.
// When track is set (the incremental plane), the row is snapshotted before
// the superstep's first tracked update and the updating member is flagged
// as a mover, so deltaRecords can diff the net per-bucket changes and the
// send loop can route full contributions to movers only.
func (st *queryState) applyUpdate(q int32, members []int32, r record, track bool) {
	data, bucket := r.bucket()
	i := member(q, members, data)
	l, ok := st.local(bucket)
	if !ok {
		//shp:panics(invariant: members move only inside the pairs they registered in; a new pair means the level protocol broke)
		panic(fmt.Sprintf("distshp: member %d of query %d moved to bucket %d outside its registered pairs", data, q, bucket))
	}
	if track {
		if len(st.movedIdx) == 0 {
			st.snap.CopyFrom(st.row)
		}
		if !st.moved[i] {
			st.moved[i] = true
			st.movedIdx = append(st.movedIdx, int32(i))
		}
	}
	if prev := st.memberBucket[i]; prev >= 0 {
		from, _ := st.local(prev)
		st.row.Transfer(q, from, l)
	} else {
		st.row.Inc(l)
	}
	st.memberBucket[i] = bucket
}

// deltaRecords diffs the pre-superstep snapshot against the current row
// into canonical ascending-bucket (bucket, cOld, cNew) changes, skipping
// buckets whose net count is unchanged. 0 means "entry absent" on either
// side.
func (st *queryState) deltaRecords() []core.NDChange {
	st.changes = st.row.Diff(st.changes[:0], st.snap)
	for i, c := range st.changes {
		st.changes[i].B = st.pairs[c.B>>1]<<1 | c.B&1
	}
	return st.changes
}

// resetSuperstep clears the tracked-superstep scratch in O(#movers).
func (st *queryState) resetSuperstep() {
	for _, i := range st.movedIdx {
		st.moved[i] = false
	}
	st.movedIdx = st.movedIdx[:0]
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

// propose folds one proposal delta in.
func (a *workerAgg) propose(key uint64, gain float64, retract bool) {
	h := a.hists[key]
	if h == nil {
		if a.hists == nil {
			a.hists = map[uint64]*core.DirHist{}
		}
		h = &core.DirHist{}
		a.hists[key] = h
	}
	if retract {
		h.Remove(gain)
	} else {
		h.Add(gain)
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
// DirHist sums are floats, so the order of additions is fixed: the parts
// merge worker-major — the first part holding a key is adopted, later ones
// merge into it key-ascending — and the merged deltas then fold into the
// persistent histograms key-ascending. Adopting a part's histogram for a key
// the persistent map lacks is safe because a retract always follows an
// assert of the same key, so such a key can only carry asserts.
func (s *schedule) fold(parts []*workerAgg) {
	merged := map[uint64]*core.DirHist{}
	for _, p := range parts {
		for _, key := range slices.Sorted(maps.Keys(p.hists)) {
			if m := merged[key]; m != nil {
				m.Merge(p.hists[key])
			} else {
				merged[key] = p.hists[key]
			}
		}
		//shp:ordered(integer sums into distinct keys; exact in any order)
		for b, w := range p.weights {
			s.weights[b] += w
		}
	}
	for _, key := range slices.Sorted(maps.Keys(merged)) {
		if mine := s.hists[key]; mine != nil {
			mine.Merge(merged[key])
		} else {
			s.hists[key] = merged[key]
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

	// Gain tables per level (lookahead t halves as levels deepen).
	tables := make([]core.GainTables, levels)
	for l := 0; l < levels; l++ {
		tables[l] = core.NewPFanoutTables(opts.P, opts.K>>(l+1), maxN)
	}

	// Master-side schedule state (package-level type so the checkpoint
	// plane can snapshot and restore it; see snapshot.go).
	sched := &schedule{
		opts: opts, levels: levels,
		ideal: float64(g.TotalDataWeight()) / float64(opts.K),
		hists: map[uint64]*core.DirHist{}, weights: map[int32]int64{},
	}

	// The vertex states live in two slabs. A query's live and snapshot rows
	// are carved from one row slab, each with room for the most pairs a
	// level can give it: one per member and no more than the K/2 there are.
	dataStates := make([]dataState, numD)
	queryStates := make([]queryState, numQ)
	rows := core.NewPinRows(2*numQ, func(i int) int { return 2 * min(g.QueryDegree(int32(i/2)), opts.K/2) })
	vertices := make([]*pregel.Vertex, 0, numD+numQ)
	for d := range dataStates {
		dataStates[d] = dataState{bucket: -1, level: -1, propLevel: -1}
		vertices = append(vertices, &pregel.Vertex{ID: pregel.VertexID(d), State: &dataStates[d]})
	}
	for q := range queryStates {
		queryStates[q] = queryState{level: -1, row: rows[2*q], snap: rows[2*q+1]}
		vertices = append(vertices, &pregel.Vertex{ID: pregel.VertexID(numD + q), State: &queryStates[q]})
	}

	maxSupersteps := levels*opts.ItersPerLevel*4 + 8

	compute := func(ctx *pregel.ContextOf[record, workerAgg], v *pregel.Vertex, msgs []record) {
		switch st := v.State.(type) {
		case *dataState:
			computeData(ctx, g, int32(v.ID), st, msgs, sched, tables)
		case *queryState:
			computeQuery(ctx, g, int32(int(v.ID)-numD), st, msgs, sched, tables)
		}
	}

	// The master runs at every barrier with the superstep just computed in
	// sched.phase, and leaves sched as the next superstep's vertices read it.
	master := func(step int, parts []*workerAgg) bool {
		switch sched.phase {
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
			sched.iterations++
			sched.history = append(sched.history, IterRecord{
				Level: sched.level, Iter: sched.iter, Moved: moved,
				Fanout: float64(sched.ndEntries) / float64(numQ),
			})
			mode, stop := policy.Next(sched.iter, moved, numD)
			sched.iter++
			// A sweep or a scheduled rebuild makes the next superstep 1 a
			// full rebroadcast; both regimes produce identical bits. A level
			// start needs no flag: every query rebuilds its registry there,
			// which forces full gain contributions everywhere.
			sched.rebuildNext = !stop && mode != core.Patch
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
		sched.phase = (sched.phase + 1) % 4
		return false
	}

	engOpts := pregel.OptionsOf[record, workerAgg]{
		Workers:       opts.Workers,
		Compute:       compute,
		Master:        master,
		MaxSupersteps: maxSupersteps,
		Transport:     opts.Transport,
		Codecs:        recordCodec{k: int32(opts.K), maxDeg: int32(maxN)},
	}
	if !opts.noCombine {
		engOpts.Combiner = combine
	}
	if !opts.DisableCheckpointing {
		engOpts.Checkpointer = opts.Checkpointer
		if engOpts.Checkpointer == nil {
			engOpts.Checkpointer = pregel.NewMemoryCheckpointer()
		}
		engOpts.CheckpointEvery = opts.CheckpointEvery
		engOpts.Snapshots = newSnapshotRegistry(opts.K)
		engOpts.MasterSnapshot = func() []byte { return sched.appendBinary(nil) }
		engOpts.MasterRestore = sched.restoreBinary
	}
	eng, err := pregel.NewEngineOf(engOpts, vertices)
	if err != nil {
		return nil, err
	}
	stats, err := eng.Run()
	if err != nil {
		return nil, err
	}

	assignment := make(partition.Assignment, numD)
	for d := 0; d < numD; d++ {
		st := eng.Vertex(pregel.VertexID(d)).State.(*dataState)
		b := st.bucket
		// The final level's buckets are the result. If the run stopped at
		// level L, bucket ids are already in [0, 2^L) = [0, K).
		assignment[d] = b
	}
	elapsed := time.Since(start) //shp:nondet(wall timing for Result.Elapsed only; never feeds the partition)
	return &Result{
		Assignment: assignment,
		K:          opts.K,
		Levels:     levels,
		Iterations: sched.iterations,
		History:    sched.history,
		Stats:      stats,
		Elapsed:    elapsed,
		TotalTime:  elapsed * time.Duration(opts.Workers),
	}, nil
}

// computeData is the program of data vertex d. It reads the master's state
// in s, which the master writes only between supersteps.
func computeData(ctx *pregel.ContextOf[record, workerAgg], g *hypergraph.Bipartite, d int32, st *dataState,
	msgs []record, s *schedule, tables []core.GainTables) {

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
			for _, q := range g.DataNeighbors(d) {
				ctx.Send(pregel.VertexID(g.NumData()+int(q)), bucketRecord(d, st.bucket))
			}
			st.moved = false
		}
	case 1:
		// Queries act; data idles.
	case 2:
		// Bring the persistent Equation 1 accumulators up to date and
		// register the gain for moving to the sibling bucket with the master.
		// A gain means "resum from scratch" (movers and rebroadcast
		// iterations — every adjacent query sent a contribution); a delta
		// patches in place. The protocol never mixes the two for one vertex
		// in one superstep.
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
		sumCur, sumOth := 0.0, 0.0
		gains, deltas := 0, 0
		for _, m := range msgs {
			switch m.kind {
			case kindGain:
				gains++
				cur, oth := m.gain()
				sumCur += cur
				sumOth += oth
			case kindDelta:
				deltas++
				st.applyDelta(d, tb, m)
			}
		}
		if gains > 0 {
			if deltas > 0 {
				//shp:panics(invariant: the superstep schedule never mixes gain and delta planes; a mix means the barrier protocol broke)
				panic(fmt.Sprintf("distshp: vertex %d received %d gain and %d delta messages in one superstep",
					d, gains, deltas))
			}
			st.sumCur, st.sumOth = sumCur, sumOth
		}
		st.gain = tb.Mult() * (st.sumCur - st.sumOth)
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
			agg.propose(st.propKey, st.propGain, true)
			if oldB := int32(uint32(st.propKey)); oldB != st.bucket {
				agg.weigh(oldB, -int64(g.DataWeight(d)))
				agg.weigh(st.bucket, int64(g.DataWeight(d)))
			}
		} else {
			// First proposal of the level: register the full weight.
			agg.weigh(st.bucket, int64(g.DataWeight(d)))
		}
		agg.propose(key, st.gain, false)
		st.propKey, st.propGain, st.propLevel = key, st.gain, level
	case 3:
		// Read the master's probabilities and maybe move.
		pt := s.probs[directionKey(st.bucket)]
		if pt == nil {
			return
		}
		p := pt.ProbFor(st.gain)
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

// computeQuery is the program of query vertex q: maintain neighbor data
// incrementally from superstep 0's bucket updates and, in superstep 1, bring
// each member's gain state up to date.
//
// A dirty query sends a full gain contribution to each member that moved
// (it is rebuilding) and canonical (bucket, cOld, cNew) delta records to
// each clean member whose sibling pair contains a changed bucket; clean
// queries send nothing. On a master-scheduled rebroadcast iteration every
// query sends every member its full contribution, exactly the paper's
// per-iteration r = 2 neighbor-data reduction.
func computeQuery(ctx *pregel.ContextOf[record, workerAgg], g *hypergraph.Bipartite, q int32, st *queryState,
	msgs []record, s *schedule, tables []core.GainTables) {

	switch ctx.Superstep() % 4 {
	case 1:
		level := s.level
		// Set by the master for the iterations it schedules a rebroadcast on.
		full := s.rebuildNext
		members := g.QueryNeighbors(q)
		live := st.row.Live()
		if level != st.level {
			// Level changed: split the registry, overridden by the movers'
			// records. Every member's pair is new, so every member receives
			// a full contribution below.
			st.register(q, level, s.opts.K, s.opts.Seed, members, msgs)
			full = true
		} else {
			// Apply the bucket updates. Unless this superstep rebroadcasts,
			// flag the members that moved and snapshot the pre-superstep row
			// so the net per-bucket changes can be diffed out afterwards. No
			// map is touched anywhere in this superstep: counts live in the
			// pin-count row and member lookups are binary searches over the
			// sorted adjacency list.
			for _, m := range msgs {
				st.applyUpdate(q, members, m, !full)
			}
		}
		// Fanout bookkeeping: hand the master the live-entry diff so it can
		// maintain the global average fanout without graph passes. Identical
		// on every path (count maintenance does not depend on the plane).
		ctx.Aggregate().fanoutDiff += int64(st.row.Live() - live)
		// Send each member its gain-state update. Iterating the adjacency
		// list keeps send order — and with it uncombined floating-point
		// summation order — deterministic; grid-exact sums make the order
		// irrelevant to the result either way.
		tb := tables[level]
		if full {
			for i, d := range members {
				if b := st.memberBucket[i]; b >= 0 {
					own, sib := st.counts(b)
					ctx.Send(pregel.VertexID(int(d)), gainRecord(tb.T[own-1], tb.T[sib]))
				}
			}
			return
		}
		if len(st.movedIdx) == 0 {
			return // clean query: members' accumulators are already exact
		}
		changes := st.deltaRecords()
		for i, d := range members {
			b := st.memberBucket[i]
			if b < 0 {
				continue
			}
			if st.moved[i] {
				own, sib := st.counts(b)
				ctx.Send(pregel.VertexID(int(d)), gainRecord(tb.T[own-1], tb.T[sib]))
				continue
			}
			for _, c := range changes {
				if c.B == b || c.B == b^1 {
					ctx.Send(pregel.VertexID(int(d)), deltaRecord(c.B, c.COld, c.CNew))
				}
			}
		}
		st.resetSuperstep()
	}
}
