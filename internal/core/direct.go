package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/rng"
)

// directState is the SHP-k refiner: direct k-way local search with sparse
// per-query neighbor data, exactly the structure of the paper's distributed
// implementation (Figure 3) evaluated in-process:
//
//	superstep 1+2: buildNeighborData (n_i(q) for buckets with n_i > 0)
//	superstep 2:   computeProposals  (Equation 1 gains, best target)
//	superstep 3+4: applyMoves        (master pairing + probabilistic moves)
//
// The master's state is the proposal plane (gainbins.go) SHP-2 also runs on:
// each proposal pass files exactly the proposals it re-derived, so matching
// and the coins never walk all of |D|.
//
// # The incremental engine
//
// By default the refiner makes per-iteration cost proportional to churn
// instead of |E| (Section 3.3's dirty-query idea pushed all the way into
// the in-process hot loop):
//
//   - The neighbor data is patched in place after each move batch, only for
//     the queries adjacent to moved vertices (decrement the origin bucket's
//     count, increment the target's, flipping connectivity-mask bits as
//     counts cross zero).
//   - Every vertex carries its Equation 1 state in patchable form: base
//     (the own-bucket term), wdeg (static query-weighted degree), and a
//     sorted candidate list of (bucket, refs, acc) accumulators. Because
//     all gain-table values live on a shared dyadic grid (see gainGridBits)
//     these sums are exact, so applying the per-entry deltas of a dirty
//     query to its members' accumulators produces bit-for-bit the same
//     state as re-walking their whole neighborhoods — hub queries no longer
//     force their entire membership through a full re-evaluation.
//   - Only moved vertices (whose own bucket, and with it the meaning of
//     base/acc, changed) are rebuilt from scratch.
//
// # Sweeps
//
// When a batch moves a large fraction of the graph (the IterPolicy's Sweep),
// patch volume would exceed recomputation, so the engine deterministically
// falls back to what the paper does every round: one ndBuild pass over |E|,
// then a proposal pass that rebuilds every vertex — interchangeable because
// patched and swept states are identical. Marking every vertex for rebuild
// (markAllActive: the first pass, a fallback, a scheduled rebuild) also
// declares the candidate lists dead, and one bit records it: a list is
// meaningful iff !candsStale. The proposal pass that finds the bit set is
// fused — each vertex's accumulators drain into a scratch list,
// selectProposal runs on that, and the list is not written, because the next
// sweep would overwrite it unread. So a sweep iteration costs one neighbor-
// data build plus one fused rebuild/select and maintains nothing. The lists
// are materialised (materializeCands, one plain rebuild pass, which clears
// the bit) before something reads them: at the first patched batch after a
// run of sweeps — again after each scheduled rebuild — and before a
// Session's Repartition returns. A batch materialises them from its own
// post-move neighbor data, which makes them the lists its patches would
// have made, so it has nothing to fold into them.
//
// The lists live in fixed per-vertex slots of one slab (candslots.go),
// carved when the state is built, so neither a sweep nor a materialisation
// allocates: a run's footprint is set before its first pass.
//
// # Cached proposals
//
// A cached proposal (target, gain) is a pure function of the vertex's
// accumulators, the admissibility of its candidate buckets and — only when
// its best gain is tied — the tie-break seed. On unit-weight graphs it is
// re-derived exactly when one of those changed. The invalidation rules:
//
//   - patched: a dirty query folded deltas into the vertex's accumulators;
//   - moved: its own bucket changed, so it is rebuilt first (as is every
//     vertex a Session's structural sync touched);
//   - tied at reseed: a warm Session re-keyed the tie-break hash for a new
//     epoch and the cached argmax had ended in an exact tie;
//   - flip-touched: a bucket crossed the balance cap since the last pass and
//     either the cached target became inadmissible or a newly admissible
//     candidate's gain reaches the cached best.
//
// Everything else keeps its cache. Two inputs are not per-bucket: with data
// weights admissibility is per vertex, and a MoveCostPenalty re-snapshot
// shifts every gain — both re-run selection for all of |D|.
//
// The objective and the average fanout are running exact sums beside the
// neighbor data: the objective moves by C[cNew] − C[cOld] per changed entry,
// the query-weighted connectivity by ±w_q per mask bit flipped, so
// reporting them walks nothing. The objective is re-summed only on
// iterations that rebuilt or swept anyway.
//
// # Iteration schedule
//
// The IterPolicy all three refiners share decides after each batch whether
// it is patched, swept or rebuilt (a sweep on the schedule of
// Options.NDRebuildEvery; at 1, the paper's full recomputation every
// iteration), and whether refinement stops. Every schedule produces
// byte-identical partitions and histories for a fixed seed.
type directState struct {
	g    *hypergraph.Bipartite
	opts Options
	seed uint64
	k    int

	IterPolicy

	bucket  []int32
	bucketW []int64
	targetW []float64
	capW    []float64

	// tables is the one gain table every bucket shares: direct buckets are
	// final, so none carries lookahead.
	tables GainTables

	// Neighbor data over queries: the shared kernel's pin-count rows, a
	// connectivity mask plus k dense counts per query (see ndstate.go), which
	// also own the dirty-query diff machinery the patch path feeds on.
	nd *ndState

	// Per-vertex Equation 1 state: cands.list(v) holds the candidate buckets
	// of v in ascending bucket order with their exact acc sums and
	// contributing-query refcounts — unless candsStale: then every vertex is
	// marked activeRebuild and the lists are unwritten (see "Sweeps" above).
	// propBase[v] is the own-bucket term; wdegArr[v] the static query-
	// weighted degree.
	cands      *candSlots
	candsStale bool
	propBase   []float64
	wdegArr    []float64

	target []int32
	gains  []float64

	// The active set holds each vertex's pending work — activeRebuild for
	// movers (and everyone after a sweep or scheduled rebuild), activeSelect
	// for vertices whose accumulators were patched or whose tied argmax a new
	// epoch seed re-keys — and, after a patched batch, the frontier of
	// exactly the vertices whose proposal inputs changed. tied[v] records
	// whether v's cached argmax ended in an exact gain tie, the only way the
	// seed reaches a proposal. admiss is the per-bucket unit-weight balance-
	// admissibility vector as of the last proposal pass; admissSame and
	// flipIn say how it differs from the pass before (flipIn lists the
	// buckets that became admissible).
	activeSet
	tied       []bool
	admiss     []bool
	flipIn     []int32
	admissSame bool

	// forceSelect makes the next computeProposals re-run selection for
	// every vertex. A warm Session sets it when it re-snapshots the
	// MoveCostPenalty reference assignment, which shifts every cached gain;
	// after that pass caches are fresh again.
	forceSelect bool

	// objective is the running value of the optimized objective over the
	// neighbor data, exact while objectiveInExactRange; objStale marks it
	// for a re-sum (a full neighbor-data build, an unpatched batch, or a
	// value outside the exact range). totalQW is Σ_q w_q, the fanout
	// denominator.
	objective float64
	objStale  bool
	totalQW   int64

	// qw holds per-query weights as float64 (nil when unit-weighted),
	// mirroring the bisection refiner.
	qw []float64

	// batch is the coin and apply/trim scratch of the move protocol (see
	// movebatch.go).
	batch moveBatch

	// The Equation 1 rebuild accumulators, reused so a warm iteration
	// allocates nothing per vertex.
	scratch proposalScratch

	// plane holds every proposal, filed by direction and gain bin (see
	// gainbins.go). gainsExact says whether its sums are exact (see
	// gainsInExactRange); planeExact whether it was last filled or
	// maintained so. Unless both hold, the proposal pass refills it.
	plane      *gainBins
	gainsExact bool
	planeExact bool

	// Migration-budget state (nil/inactive unless Options.MigrationBudget is
	// set and an epoch reference exists): migRef is the epoch-start
	// assignment the budget is charged against, migrated the current count
	// of vertices off their reference bucket, costlyBuf the reusable
	// admission-scratch of applyMoves' budget filter.
	migRef    []int32
	migrated  int64
	costlyBuf []int32

	// gainWork counts Equation 1 work units (one per neighbor query walked
	// in a vertex rebuild); scanWork counts per-vertex visits in the
	// selection/coin/apply loops, probed-and-skipped vertices included;
	// lastFrontier is the number of vertices whose selection the most recent
	// proposal pass actually re-ran. Pure observability counters.
	gainWork     int64
	scanWork     int64
	lastFrontier int64

	history []IterStats
	work    []WorkStats

	// afterProposals, when set, observes the state after every
	// computeProposals. Tests only (the stale-cache and running-sum
	// oracles); nothing it does may feed back.
	afterProposals func()
}

// proposalCand is one candidate bucket of a data vertex: refs adjacent
// queries currently have an entry for b, contributing the exact accumulator
// acc = Σ_q wq·(T_b[c_q(b)] − T_b[0]). The move gain is derived from acc at
// selection time.
type proposalCand struct {
	b    int32
	refs int32
	acc  float64
}

// newDirectState prepares the refiner: k equal buckets, each allowed
// (1+ε) times the ideal weight.
func newDirectState(g *hypergraph.Bipartite, opts Options, seed uint64) *directState {
	k := opts.K
	st := &directState{
		g: g, opts: opts, seed: seed, k: k,
		IterPolicy: opts.iterPolicy(),
		tables:     tablesFor(opts, 1, g.MaxQueryDegree()),
		scratch: proposalScratch{
			acc:  make([]float64, k),
			refs: make([]int32, k),
			set:  newBucketSet(k),
			own:  newBucketSet(k),
			list: make([]proposalCand, 0, k),
		},
		plane:      newGainBins(k, g.NumData()),
		planeExact: true, // the empty plane
	}

	ideal := float64(g.TotalDataWeight()) / float64(k)
	st.targetW = make([]float64, k)
	st.capW = make([]float64, k)
	for c := 0; c < k; c++ {
		st.targetW[c] = ideal
		st.capW[c] = ideal * (1 + opts.Epsilon)
	}

	nd := g.NumData()
	nq := g.NumQueries()
	st.bucket = make([]int32, nd)
	st.target = make([]int32, nd)
	st.gains = make([]float64, nd)
	st.bucketW = make([]int64, k)
	st.propBase = make([]float64, nd)
	st.wdegArr = make([]float64, nd)

	st.nd = newNDState(g, k)
	if g.QueryWeighted() {
		st.qw = make([]float64, nq)
		for q := range st.qw {
			st.qw[q] = float64(g.QueryWeight(int32(q)))
		}
	}
	bound := make([]int32, nd)
	for v := range st.wdegArr {
		st.wdegArr[v] = st.computeWdeg(int32(v))
		bound[v] = st.candBound(int32(v))
	}
	st.cands = newCandSlots(k, bound)
	st.gainsExact = st.gainsInExactRange()

	st.active = make([]uint8, nd)
	st.tied = make([]bool, nd)
	st.markAllActive() // fresh state: everything needs evaluation
	st.totalQW = g.TotalQueryWeight()
	st.objStale = true // no neighbor data yet

	if opts.Initial != nil {
		copy(st.bucket, opts.Initial)
		st.recountWeights()
		st.repairBalance(nil)
	} else {
		st.randomInit()
	}
	if opts.MigrationBudget != 0 && opts.Initial != nil {
		// Cold warm-start with a budget: the epoch reference is the initial
		// assignment after the deterministic balance repair (feasibility
		// outranks migration cost). Sessions re-snapshot this per epoch.
		st.migRef = append([]int32(nil), st.bucket...)
	}
	return st
}

// budgetRemaining returns how many more records this epoch may still move
// away from the reference assignment, or -1 when no budget is active.
func (st *directState) budgetRemaining() int64 {
	if st.migRef == nil || st.opts.MigrationBudget == 0 {
		return -1
	}
	budget := st.opts.MigrationBudget
	if budget < 0 {
		budget = 0 // MigrationFrozen and friends: a budget of exactly zero
	}
	if remaining := budget - st.migrated; remaining > 0 {
		return remaining
	}
	return 0
}

// enforceMigrationBudget drops the lowest-gain budget-consuming moves from
// the decided list until the remaining budget can absorb the batch. A move
// consumes budget exactly when it takes a vertex off its epoch-start bucket;
// moves of already-migrated vertices (including returns to the reference)
// are free. In-batch returns do not refund budget until the next iteration,
// which is what makes the invariant trim-proof: however the balance trim
// later edits the batch, at most `remaining` vertices can newly leave their
// reference bucket, so migrated never exceeds the budget. Admission is
// highest-gain-first with ties to the lower vertex id; the surviving list
// keeps its ascending-vertex order (the canonical apply order).
func (st *directState) enforceMigrationBudget(remaining int64) {
	mb := &st.batch
	costly := st.costlyBuf[:0]
	for _, v := range mb.list {
		if st.bucket[v] == st.migRef[v] {
			costly = append(costly, v)
		}
	}
	st.costlyBuf = costly
	if int64(len(costly)) <= remaining {
		return // everything fits: the batch is untouched, bit for bit
	}
	slices.SortFunc(costly, func(a, b int32) int {
		ga, gb := st.gains[a], st.gains[b]
		if ga > gb {
			return -1
		}
		if ga < gb {
			return 1
		}
		return int(a - b)
	})
	for _, v := range costly[remaining:] {
		mb.decided[v] = false
	}
	mb.list = slices.DeleteFunc(mb.list, func(v int32) bool { return !mb.decided[v] })
}

// randomInit cuts a random permutation at the per-bucket weight targets,
// giving near-perfect initial balance.
func (st *directState) randomInit() {
	order := rng.NewStream(st.seed, 0xD1CE).Perm(st.g.NumData())
	c := 0
	var acc float64
	for _, v := range order {
		wv := float64(st.g.DataWeight(int32(v)))
		for c < st.k-1 && acc+wv/2 >= st.targetW[c] {
			c++
			acc = 0
		}
		st.bucket[v] = int32(c)
		acc += wv
	}
	st.recountWeights()
}

func (st *directState) recountWeights() {
	for c := range st.bucketW {
		st.bucketW[c] = 0
	}
	for v := 0; v < st.g.NumData(); v++ {
		st.bucketW[st.bucket[v]] += int64(st.g.DataWeight(int32(v)))
	}
}

// repairBalance moves vertices (deterministic random order) out of over-cap
// buckets into the lightest under-target buckets. Needed for warm starts.
// One copy owns the repair policy for both the cold path and warm sessions:
// onMove (optional) observes every applied move so a session can keep its
// maintained engine state exact; the move order and destination rule must
// never diverge between the two, or warm starts stop matching cold ones.
func (st *directState) repairBalance(onMove func(v, from, to int32)) {
	over := false
	for c := 0; c < st.k; c++ {
		if float64(st.bucketW[c]) > st.capW[c] {
			over = true
			break
		}
	}
	if !over {
		return
	}
	lightest := func() int32 {
		best, bestSlack := int32(0), -1.0
		for c := 0; c < st.k; c++ {
			if slack := st.targetW[c] - float64(st.bucketW[c]); slack > bestSlack {
				bestSlack = slack
				best = int32(c)
			}
		}
		return best
	}
	order := rng.NewStream(st.seed, 0xBA1A).Perm(st.g.NumData())
	for _, v := range order {
		c := st.bucket[v]
		if float64(st.bucketW[c]) <= st.capW[c] {
			continue
		}
		dst := lightest()
		if dst == c {
			continue
		}
		wv := int64(st.g.DataWeight(int32(v)))
		st.bucket[v] = dst
		st.bucketW[c] -= wv
		st.bucketW[dst] += wv
		if onMove != nil {
			onMove(int32(v), c, dst)
		}
	}
}

// buildNeighborData recomputes the sparse per-query bucket counts from
// scratch (supersteps 1–2 of Figure 3) via the shared kernel.
func (st *directState) buildNeighborData() {
	ndBuild(st.nd, st.g, st.bucket)
	st.objStale = true
}

// objectiveFromND sums the objective over the current neighbor data.
func (st *directState) objectiveFromND() float64 {
	sum := 0.0
	for q := range int32(st.g.NumQueries()) {
		sum += st.queryObjective(q)
	}
	return sum
}

// queryObjective returns query q's term of the objective, w_q·Σ_b C[n_b(q)]
// over its live entries, in ascending bucket order.
func (st *directState) queryObjective(q int32) float64 {
	wq := float64(st.g.QueryWeight(q))
	C := st.tables.C
	mask, cnt := st.nd.rowSlices(q)
	sum := 0.0
	for wi, m := range mask {
		for ; m != 0; m &= m - 1 {
			sum += wq * C[cnt[wi<<6|bits.TrailingZeros64(m)]]
		}
	}
	return sum
}

// objectiveExactLimit bounds the running objective's exact range. Its terms
// are integer multiples of grid values, so a sum of them is exact — equal to
// objectiveFromND's fold bit for bit, in any order — while every partial sum
// stays below 2^(53-gainGridBits). The partial sums of one update are bounded
// by the objective before plus the objective after, hence the spare bit.
const objectiveExactLimit = 1 << (53 - gainGridBits - 1)

// objectiveInExactRange reports whether the objective's magnitude bound —
// the weighted entry count times the largest |C| (the last: both table
// families are monotone) — is inside the exact range. Outside it float64
// addition rounds, a running sum would drift from the re-sum in the last
// bits and differently per schedule, so refine re-sums
// every iteration there, as it did before the running sum existed.
func (st *directState) objectiveInExactRange() bool {
	C := st.tables.C
	return float64(st.nd.wEntries)*math.Abs(C[len(C)-1]) < objectiveExactLimit
}

// addObjective folds one exact change into the running objective. Callers
// update nd.wEntries for the same change first, so the range check sees the
// state after it.
func (st *directState) addObjective(d float64) {
	st.objective += d
	if !st.objectiveInExactRange() {
		st.objStale = true
	}
}

// gainsInExactRange reports whether the proposal plane's sums are exact, so
// that maintaining them lands on the bits of a fresh fold in ascending v:
// every gain is mult × a grid value (mult a power of two, no MoveCostPenalty
// term), and Σ|gain|/mult — at most Σ_v wdeg(v)·|T[last] − T[0]|, both
// table families being monotone — stays below objectiveExactLimit, whose
// spare bit covers the old and the new gains of a changed wdeg or table.
// Callers recompute it wherever wdegArr or the tables are (re)built.
func (st *directState) gainsInExactRange() bool {
	T := st.tables.T
	wdeg := 0.0
	for _, w := range st.wdegArr {
		wdeg += w
	}
	frac, _ := math.Frexp(st.tables.mult)
	return frac == 0.5 && st.opts.MoveCostPenalty == 0 && wdeg*math.Abs(T[len(T)-1]-T[0]) < objectiveExactLimit
}

// editQuery runs edit, which may rewrite query q's neighbor-data row
// outside a move batch (a Session's splices and repair moves), and carries
// the running fanout and objective sums across it.
func (st *directState) editQuery(q int32, edit func()) {
	before, n := st.queryObjective(q), st.nd.row(q).Live()
	edit()
	st.nd.wEntries += int64(st.g.QueryWeight(q)) * int64(st.nd.row(q).Live()-n)
	st.addObjective(st.queryObjective(q) - before)
}

// currentObjective returns the objective over the current neighbor data:
// the running sum, re-summed first when it is marked stale.
func (st *directState) currentObjective() float64 {
	if st.objStale {
		st.objective = st.objectiveFromND()
		st.objStale = !st.objectiveInExactRange()
	}
	return st.objective
}

// fanout returns the average fanout of the current assignment from the
// maintained weighted entry count: the same two integers partition.Fanout
// divides, so the same bits.
func (st *directState) fanout() float64 {
	if st.totalQW == 0 {
		return 0
	}
	return float64(st.nd.wEntries) / float64(st.totalQW)
}

// proposalScratch is the state of an Equation 1 rebuild: k-indexed
// accumulators plus the bitset of the buckets they currently hold, and the
// one-bit set of the vertex's own bucket. Between vertices everything is
// zero — draining the set clears exactly the slots a vertex touched. list is
// the k-slot candidate list a fused sweep drains each vertex into instead of
// the vertex's own slot.
type proposalScratch struct {
	acc  []float64
	refs []int32
	set  bucketSet
	own  bucketSet
	list []proposalCand
}

// rebuildInto recomputes vertex v's Equation 1 state from the current
// neighbor data: propBase[v], and the sorted candidate list, which it writes
// over dst and returns. dst has room for the list: the neighbor data matches
// st.bucket, so every candidate holds a co-member (see candBound). All sums
// are exact (grid values), so this produces the same bits as any sequence of
// patches arriving at the same neighbor data.
//
// Per adjacent query it reads the own bucket's count once, ORs the mask
// words minus the own bit into the scratch set, and walks those bits. The
// own bit is cleared through a word-indexed AND-NOT with the one-bit set
// `own`, so one loop serves any k with no per-word or per-entry test.
func (st *directState) rebuildInto(v int, dst []proposalCand) []proposalCand {
	cur := st.bucket[v]
	acc, refs, set, own := st.scratch.acc, st.scratch.refs, st.scratch.set, st.scratch.own
	own.add(cur)
	// Hoist the row arenas: the walks below are the engine's hottest memory
	// stream, and going through st.nd, or re-slicing a row per word, costs
	// loads and bounds checks per work unit.
	k, w := st.nd.k, st.nd.w
	mask, cnt := st.nd.mask, st.nd.cnt
	T := st.tables.T
	t0 := T[0]
	base := 0.0
	if st.qw == nil {
		for _, q := range st.g.DataNeighbors(int32(v)) {
			mo, co := int(q)*w, int(q)*k
			if c := cnt[co+int(cur)]; c > 0 {
				base += T[c-1]
			}
			for wi := range w {
				m := mask[mo+wi] &^ own[wi]
				set[wi] |= m
				for ; m != 0; m &= m - 1 {
					b := wi<<6 | bits.TrailingZeros64(m)
					acc[b] += T[cnt[co+b]] - t0
					refs[b]++
				}
			}
		}
	} else {
		for _, q := range st.g.DataNeighbors(int32(v)) {
			wq := st.qw[q]
			mo, co := int(q)*w, int(q)*k
			if c := cnt[co+int(cur)]; c > 0 {
				base += wq * T[c-1]
			}
			for wi := range w {
				m := mask[mo+wi] &^ own[wi]
				set[wi] |= m
				for ; m != 0; m &= m - 1 {
					b := wi<<6 | bits.TrailingZeros64(m)
					acc[b] += wq * (T[cnt[co+b]] - t0)
					refs[b]++
				}
			}
		}
	}
	own[cur>>6] = 0
	st.propBase[v] = base
	dst = dst[:0]
	if n := set.count(); cap(dst) < n {
		//shp:panics(invariant: a list for v's own bucket has at most candBound(v) entries; more means the neighbor data and the buckets disagree)
		panic(fmt.Sprintf("core: vertex %d has %d candidates, its slot %d", v, n, cap(dst)))
	}
	for b := range set.drain {
		dst = append(dst, proposalCand{b: b, refs: refs[b], acc: acc[b]})
		acc[b], refs[b] = 0, 0
	}
	return dst
}

// rebuildVertex rebuilds v's Equation 1 state into its own slot.
func (st *directState) rebuildVertex(v int) {
	st.cands.setLen(int32(v), len(st.rebuildInto(v, st.cands.room(int32(v)))))
}

// candBound is the capacity of v's slot: min(k−1, Σ_{q∋v}(|q|−1)). Each
// candidate bucket differs from v's own and holds one of v's co-members, so
// no list exact for v's current bucket is longer.
func (st *directState) candBound(v int32) int32 {
	n := 0
	for _, q := range st.g.DataNeighbors(v) {
		if n += st.g.QueryDegree(q) - 1; n >= st.k-1 {
			return int32(st.k - 1)
		}
	}
	return int32(n)
}

// materializeCands writes the candidate lists the fused sweeps left unwritten
// (see candsStale): one plain rebuild of every vertex from the current
// neighbor data. It re-derives state the sweep already paid for, so it is
// not counted as gain or scan work. The marks stay: a proposal pass over
// materialised lists with every vertex still marked rebuilds them in place.
// It reports whether it wrote them.
func (st *directState) materializeCands() bool {
	if !st.candsStale {
		return false
	}
	for v := range st.g.NumData() {
		st.rebuildVertex(v)
	}
	st.candsStale = false
	return true
}

// candidateGain is Equation 1's gain of moving v, currently in cur, to
// candidate c, derived from the cached accumulators: own is the vertex-side
// term base − wdeg·T[0], hoisted by callers that scan many candidates. The
// one copy of the gain arithmetic, shared by the argmax and the flip probe.
func (st *directState) candidateGain(v int, cur int32, own float64, c *proposalCand) float64 {
	gain := st.tables.mult * (own - c.acc)
	if penalty := st.opts.MoveCostPenalty; penalty > 0 && st.opts.Initial != nil {
		if cur == st.opts.Initial[v] {
			gain -= penalty
		} else if c.b == st.opts.Initial[v] {
			gain += penalty
		}
	}
	return gain
}

// selectProposal derives the gain of each of v's candidates (cands: v's list,
// or the same list fresh out of a fused sweep's scratch) from its accumulator,
// applies the balance-admissibility filter (the only proposal input that
// depends on global bucket weights), and returns the best target (or -1),
// its gain, and whether the argmax ended in an exact tie — the only case in
// which the result depends on the seed. It re-runs for a vertex exactly
// when one of the invalidation rules in the directState comment fires;
// between those the cached result is what a re-run would return.
func (st *directState) selectProposal(v int, cands []proposalCand) (target int32, gain float64, tied bool) {
	best := int32(-1)
	bestGain := 0.0
	if len(cands) == 0 {
		return best, bestGain, false
	}
	cur := st.bucket[v]
	own := st.propBase[v] - st.wdegArr[v]*st.tables.T[0]
	wv := float64(st.g.DataWeight(int32(v)))
	// Exact gain ties are broken by a seed-keyed hash of (vertex, bucket):
	// candidates are scanned in ascending bucket order, so "first wins"
	// would systematically herd tied vertices into low bucket ids on
	// symmetric instances. The hash keeps the choice deterministic but
	// unbiased, like the first-encounter order the paper's random bucket
	// numbering produces.
	var bestHash uint64
	vh := rng.Mix(st.seed, uint64(v))
	for i := range cands {
		b := cands[i].b
		if float64(st.bucketW[b])+wv > st.capW[b] {
			continue // target bucket is full
		}
		gain := st.candidateGain(v, cur, own, &cands[i])
		switch {
		case best < 0 || gain > bestGain:
			best = b
			bestGain = gain
			tied = false
		case gain == bestGain:
			if !tied {
				bestHash = rng.Mix(vh, uint64(uint32(best)))
				tied = true
			}
			if h := rng.Mix(vh, uint64(uint32(b))); h < bestHash {
				best = b
				bestHash = h
			}
		}
	}
	return best, bestGain, tied
}

// reselect refreshes v's cached proposal and files it in the plane.
func (st *directState) reselect(v int) {
	st.target[v], st.gains[v], st.tied[v] = st.selectProposal(v, st.cands.list(int32(v)))
	st.plane.update(int32(v), st.bucket[v], st.target[v], st.gains[v])
}

// flipTouches reports whether the admissibility flips since the last
// proposal pass can change unmarked vertex v's cached proposal: its target
// became inadmissible, or a newly admissible bucket is one of its candidates
// and would win or tie the cached argmax (any candidate does when there was
// no admissible one). Buckets that became inadmissible without being the
// target only leave the argmax's field; the winner stands.
func (st *directState) flipTouches(v int) bool {
	tgt := st.target[v]
	if tgt >= 0 && !st.admiss[tgt] {
		return true
	}
	cands := st.cands.list(int32(v))
	for _, b := range st.flipIn {
		// Lower bound of b in the ascending candidate list, whose entry i
		// holds a bucket in [i, i + k − len(cands)] (see patchVertex).
		i, j := max(0, int(b)-st.k+len(cands)), min(len(cands), int(b)+1)
		for i < j {
			if h := (i + j) / 2; cands[h].b < b {
				i = h + 1
			} else {
				j = h
			}
		}
		if i == len(cands) || cands[i].b != b {
			continue
		}
		if tgt < 0 {
			return true
		}
		own := st.propBase[v] - st.wdegArr[v]*st.tables.T[0]
		if st.candidateGain(v, st.bucket[v], own, &cands[i]) >= st.gains[v] {
			return true
		}
	}
	return false
}

// computeProposals brings every vertex's proposal and its plane entry up to
// date. A sweep re-derives every proposal, so it refills the plane from all
// of |D| as a fold would; so does every pass while the plane's sums are not
// exact (see gainsInExactRange). Otherwise the passes file what they
// re-derived, and the maintained plane is the refill's bits.
func (st *directState) computeProposals() {
	refill := st.candsStale || !st.gainsExact || !st.planeExact
	st.reselectPending()
	if refill {
		st.plane.refill(st.bucket, st.target, st.gains)
	}
	st.planeExact = st.gainsExact
}

// reselectPending rebuilds the Equation 1 state of vertices flagged for
// rebuild, then re-runs the balance-filtered argmax for exactly the vertices
// an invalidation rule names (see the directState comment) — every cached
// target and gain it leaves alone is what a re-run would produce.
func (st *directState) reselectPending() {
	nd := st.g.NumData()
	// No cache survives the first pass, per-vertex admissibility (data
	// weights), or a forced sweep.
	sweepAll := st.admiss == nil || st.g.Weighted() || st.forceSelect
	st.forceSelect = false
	st.refreshAdmissibility()
	if st.candsStale {
		// Sweep mode: every vertex is marked for rebuild and no list survives,
		// so select straight from the accumulators — same candidates in the
		// same ascending order through the same selectProposal — and leave
		// the slots unwritten, and the plane to the refill.
		list := st.scratch.list
		for v := range nd {
			list = st.rebuildInto(v, list)
			st.target[v], st.gains[v], st.tied[v] = st.selectProposal(v, list)
			st.gainWork += int64(len(st.g.DataNeighbors(int32(v))))
		}
		st.scanWork += int64(nd)
		st.lastFrontier = int64(nd)
		return
	}
	if !sweepAll && st.admissSame && st.frontierValid {
		// Frontier mode: nothing global changed and the marked vertices are
		// exactly the frontier — visit only it, with no O(|D|) scan to find
		// the marks.
		for _, v := range st.frontier {
			if st.active[v] == activeRebuild {
				st.rebuildVertex(int(v))
				st.gainWork += int64(len(st.g.DataNeighbors(v)))
			}
			st.reselect(int(v))
		}
		st.scanWork += int64(len(st.frontier))
		st.lastFrontier = int64(len(st.frontier))
		return
	}
	st.lastFrontier = 0
	for v := range nd {
		switch {
		case st.active[v] == activeRebuild:
			st.rebuildVertex(v)
			st.gainWork += int64(len(st.g.DataNeighbors(int32(v))))
		case sweepAll || st.active[v] != 0:
			// accumulators are current: selection only
		case st.admissSame || !st.flipTouches(v):
			continue // the cache stands
		}
		st.reselect(v)
		st.lastFrontier++
	}
	st.scanWork += int64(nd)
}

// refreshAdmissibility recomputes the per-bucket unit-weight admissibility
// vector, whether it changed since the previous pass, and which buckets
// became admissible.
func (st *directState) refreshAdmissibility() {
	if st.admiss == nil {
		st.admiss = make([]bool, st.k)
	}
	st.admissSame = true
	st.flipIn = st.flipIn[:0]
	for b := 0; b < st.k; b++ {
		now := float64(st.bucketW[b])+1 <= st.capW[b]
		if now == st.admiss[b] {
			continue
		}
		st.admiss[b] = now
		st.admissSame = false
		if now {
			st.flipIn = append(st.flipIn, int32(b))
		}
	}
}

// markAllActive schedules every vertex for a rebuild (initial iteration,
// sweep fallback, and scheduled rebuilds): the candidate lists are dead and
// the next proposal pass is a fused sweep.
func (st *directState) markAllActive() {
	st.activeSet.markAllActive()
	st.candsStale = true
}

// applyMoves matches the plane's direction histograms into move
// probabilities and executes the probabilistic moves through the shared
// move batch (movebatch.go), with the migration budget filtered in between.
// It returns the moves that survived the balance trim, in ascending vertex
// order.
func (st *directState) applyMoves(iter int) []move {
	st.plane.match(nil)
	st.scanWork += st.batch.draw(st.plane, &st.activeSet, st.seed, rng.Mix(uint64(iter)+1, 0xD0D), st.g.NumData())
	if remaining := st.budgetRemaining(); remaining >= 0 {
		st.enforceMigrationBudget(remaining)
	}
	accepted, visits := commit(&st.batch, st.g, st.gains, st.bucket,
		func(v int32) int32 { return st.target[v] }, st.bucketW, st.capW)
	st.scanWork += visits
	if st.migRef != nil {
		// Exact migration accounting: each accepted move changes the count of
		// off-reference vertices by +1 (left the reference bucket), -1
		// (returned to it), or 0 (moved between two non-reference buckets).
		// Vertices appear at most once per batch, so the fold is exact.
		for _, m := range accepted {
			if m.from == st.migRef[m.v] {
				st.migrated++
			} else if st.bucket[m.v] == st.migRef[m.v] {
				st.migrated--
			}
		}
	}
	return accepted
}

// applyBatch brings the neighbor data and the per-vertex proposal state up
// to date with one move batch, in the IterPolicy's mode. Patch runs the
// kernel's move-batch pass (count transfers plus dirty-query diff
// collection) and patches the members of each dirty query with the query's
// exact entry deltas; Sweep and Rebuild rebuild the neighbor data outright
// and schedule a fused sweep. Movers themselves are never patched but
// rebuilt — their own bucket changed, which reshapes base/acc — so their
// lists are pending until then. All patch arithmetic is exact, so results
// are independent of the mode. accepted must contain each vertex at most
// once, with st.bucket already holding the destination.
func (st *directState) applyBatch(accepted []move, mode BatchMode) {
	if mode != Patch {
		st.buildNeighborData()
		if mode == Sweep { // charged the mark reset a patch pays; a scheduled rebuild is not
			st.scanWork += st.clearMarks()
		}
		st.markAllActive()
		return
	}
	ndApplyMoveBatch(st.nd, st.g, accepted, st.bucket)
	st.addObjective(st.batchObjectiveDelta())
	// Lists the fused sweeps left unwritten are built from the post-batch
	// neighbor data: exactly what patching pre-batch lists would give.
	fresh := st.materializeCands()

	// Movers are rebuilt next iteration: their own bucket changed, so their
	// cached base/acc refer to the wrong frame, and they are marked first so
	// the patch pass skips them. Zero-degree movers are members of no dirty
	// query. Then fold each dirty query's entry deltas into its other
	// members' accumulators; the first touch of each vertex records it in the
	// frontier. A list still pending from an earlier batch (only a caller
	// that skips the proposal pass between batches leaves one) stays so.
	st.scanWork += st.clearMarks()
	for _, m := range accepted {
		st.cands.pend(m.v)
		st.touch(m.v, activeRebuild)
	}
	ds := &st.nd.delta
	for _, grp := range ds.groups {
		wq := 1.0
		if st.qw != nil {
			wq = st.qw[grp.q]
		}
		recs := ds.recs[grp.off : grp.off+grp.n]
		for _, v := range st.g.QueryNeighbors(grp.q) {
			if st.cands.pending(v) {
				st.touch(v, activeRebuild)
				continue
			}
			if !fresh {
				st.patchVertex(v, wq, recs)
			}
			st.touch(v, activeSelect)
		}
	}
	st.seal(st.g.NumData())
}

// batchObjectiveDelta returns the objective change of the batch the kernel
// just applied, from its per-query change records: w_q·(C[cNew] − C[cOld])
// per record.
func (st *directState) batchObjectiveDelta() float64 {
	C := st.tables.C
	ds := &st.nd.delta
	sum := 0.0
	for _, grp := range ds.groups {
		wq := float64(st.g.QueryWeight(grp.q))
		for _, r := range ds.recs[grp.off : grp.off+grp.n] {
			sum += wq * (C[r.CNew] - C[r.COld])
		}
	}
	return sum
}

// patchVertex folds one dirty query's entry deltas into vertex v's cached
// Equation 1 state. For v's own bucket the base term is adjusted; for any
// other bucket the candidate accumulator is adjusted, inserting or removing
// the candidate as its contributing-query refcount crosses zero. Records
// and candidates are both sorted by bucket, so two-pointer walks cover all
// deltas without per-record searches: the first updates and removes, the
// second inserts the buckets new to v. v's list is exact for its current
// bucket, so the patched one is too, and fits the slot (see candBound); the
// removals come first so that it does on the way as well.
func (st *directState) patchVertex(v int32, wq float64, recs []NDChange) {
	cur := st.bucket[v]
	cands := st.cands.list(v)
	ci, inserts := 0, 0
	for _, r := range recs {
		if r.B == cur {
			st.propBase[v] += wq * st.tables.DeltaOwn(r.COld, r.CNew)
			continue
		}
		// At most k − len(cands) buckets are absent below entry i's, so the
		// entries before index r.B − (k − len(cands)) are all below r.B: a
		// near-full list is entered next to r.B's line, not walked from its
		// head.
		ci = max(ci, int(r.B)-st.k+len(cands))
		for ci < len(cands) && cands[ci].b < r.B {
			ci++
		}
		if ci == len(cands) || cands[ci].b != r.B {
			inserts++ // r.COld is 0 and no other query of v has r.B
			continue
		}
		var dref int32
		if r.COld == 0 {
			dref++
		}
		if r.CNew == 0 {
			dref--
		}
		if cands[ci].refs += dref; cands[ci].refs <= 0 {
			cands = append(cands[:ci], cands[ci+1:]...)
		} else {
			// DeltaAway is the exact candidate-accumulator change: the
			// candidate terms are T[c]−T[0] (0 when absent), and the T[0]s
			// cancel in the difference.
			cands[ci].acc += wq * st.tables.DeltaAway(r.COld, r.CNew)
		}
	}
	if len(cands)+inserts > cap(cands) {
		//shp:panics(invariant: an exact list fits its slot (candBound); an overflow means a list was patched in the wrong frame)
		panic(fmt.Sprintf("core: patching vertex %d overflows its %d-entry slot", v, cap(cands)))
	}
	for i, ci := 0, 0; i < len(recs) && inserts > 0; i++ {
		r := recs[i]
		if r.B == cur || r.COld != 0 {
			continue
		}
		for ci < len(cands) && cands[ci].b < r.B {
			ci++
		}
		if ci < len(cands) && cands[ci].b == r.B {
			continue // updated above
		}
		cands = cands[:len(cands)+1]
		copy(cands[ci+1:], cands[ci:])
		cands[ci] = proposalCand{b: r.B, refs: 1, acc: wq * st.tables.DeltaAway(0, r.CNew)}
		inserts--
	}
	st.cands.setLen(v, len(cands))
}

// run builds the neighbor data from scratch and iterates refinement to
// convergence.
func (st *directState) run() {
	if st.g.NumData() == 0 || st.k <= 1 {
		return
	}
	st.buildNeighborData()
	st.markAllActive()
	st.refine()
}

// refine iterates refinement until the IterPolicy stops it, from the
// current neighbor-data and proposal state (which run builds from scratch
// and a warm Session patches in place between calls). Each round's
// objective and fanout come from the running sums kept beside the neighbor
// data, so between rebuilds metrics cost no graph pass at all. History
// entries are appended to st.history; callers that reuse the state across
// refinement epochs truncate it first.
func (st *directState) refine() {
	n := st.g.NumData()
	if n == 0 || st.k <= 1 {
		return
	}
	for iter := 0; ; iter++ {
		gw0, sw0 := st.gainWork, st.scanWork
		st.computeProposals()
		if st.afterProposals != nil {
			st.afterProposals()
		}
		accepted := st.applyMoves(iter)
		moved := int64(len(accepted))
		mode, stop := st.IterPolicy.Next(iter, moved, n)
		st.applyBatch(accepted, mode)
		st.history = append(st.history, IterStats{
			Iter: iter, Moved: moved, MovedFraction: float64(moved) / float64(n),
			Objective: st.currentObjective(), Fanout: st.fanout(),
		})
		st.work = append(st.work, WorkStats{
			Iter:     iter,
			Frontier: st.lastFrontier,
			GainWork: st.gainWork - gw0,
			ScanWork: st.scanWork - sw0,
		})
		if stop {
			return
		}
	}
}

// partitionDirect runs SHP-k on the whole graph.
func partitionDirect(g *hypergraph.Bipartite, opts Options) (*Result, error) {
	st := newDirectState(g, opts, rng.Mix(opts.Seed, 0xD12EC7))
	st.run()
	assignment := make(partition.Assignment, g.NumData())
	copy(assignment, st.bucket)
	return &Result{
		Assignment: assignment,
		K:          opts.K,
		Iterations: len(st.history),
		History:    st.history,
		Work:       st.work,
		Migrated:   st.migrated,
	}, nil
}
