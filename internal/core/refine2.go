package core

import (
	"shp/internal/hypergraph"
	"shp/internal/rng"
)

// bisection is one 2-way refinement subproblem over a compact induced graph.
// Recursive bisection (SHP-2) builds one of these per recursion node; the
// two "sides" are the node's two children.
//
// # The incremental engine
//
// Like the SHP-k refiner (direct.go), the bisection runs on the shared
// incremental-gain kernel (ndstate.go). Its neighbor data is SHP-k's
// pin-count row at K = 2 — a (c0, c1) pair per query, held in two dense
// arrays without the connectivity mask, which two counts make redundant —
// and everything downstream of a count change is the kernel's machinery:
//
//   - Every data vertex carries its Equation 1 state in patchable form:
//     accOwn = Σ_q wq·T_cur[n_cur(q)−1] and accOth = Σ_q wq·T_oth[n_oth(q)],
//     from which the gain is mult·(accOwn − accOth) plus the warm-start
//     penalty.
//   - After a move batch, each dirty query's canonical (side, cOld, cNew)
//     changes are derived from the batch's net count deltas (every move is
//     a ±1 transfer, so cOld is exactly cNew minus the net delta — no
//     snapshots needed), and folded into the clean members' accumulators
//     through GainTables.DeltaOwn/DeltaAway. A hub query with one mover
//     costs two branch-free adds per member instead of each member
//     re-walking its whole membership, so frontier cost is O(churn).
//   - Movers are rebuilt (their own side changed, which swaps the meaning
//     of the two accumulators). The IterPolicy the three refiners share
//     (iterpolicy.go) picks each batch's mode: patched, a sweep for a batch
//     too large to patch, or the scheduled rebuild every
//     Options.NDRebuildEvery iterations, which recounts the maintained
//     counts from scratch and resums every vertex — at a period of 1, plain
//     full per-iteration recomputation.
//
// All patch arithmetic lives on the shared dyadic grid, so the patched and
// rebuilt states are bit-identical, and the engine is pinned byte-identical
// across rebuild schedules (default, every iteration, never) — the same
// guarantee the direct engine carries.
type bisection struct {
	g    *hypergraph.Bipartite
	opts Options
	seed uint64

	level, task int
	IterPolicy
	tables [2]GainTables
	balance
	startState

	// Engine state: accOwn/accOth are the per-vertex patchable Equation 1
	// accumulators; d holds each dirty query's net per-side count delta for
	// the current batch, dirtyQ the touched queries in first-touch order
	// (deduped by dirtyFlag); pgs is the reusable buffer the per-dirty-query
	// patch groups land in.
	accOwn, accOth []float64
	d              [2][]int32
	dirtyFlag      []uint8
	dirtyQ         []int32
	pgs            []patchGroup

	// The active set holds each vertex's pending work (activeRebuild for
	// movers and full sweeps, activeSelect for patched accumulators) and,
	// after a patched batch, the frontier of exactly the vertices whose
	// (side, gain) can have changed since the last iteration: the gain pass
	// and the bin sync walk it instead of scanning all of |D|.
	activeSet

	// bins is the proposal plane over the two directions 0→1 and 1→0 (see
	// gainbins.go).
	bins *gainBins

	// batch is the coin and apply/trim scratch of the move protocol (see
	// movebatch.go).
	batch moveBatch

	gains []float64

	// qw holds per-query weights as float64 (nil when unit-weighted):
	// weighted queries scale their Equation 1 terms and objective
	// contributions proportionally.
	qw []float64

	// gainWork counts Equation 1 work units deterministically: one per
	// table term summed in a gain rebuild, one per delta record folded into
	// an accumulator. scanWork counts the per-vertex visits of the phases
	// around the gain math — the gain/sync/coin/apply loops; together they
	// pin the engine's frontier-proportionality. lastFrontier records the
	// vertex count the most recent gain pass visited. All are pure
	// observability counters (never read by the algorithm).
	gainWork     int64
	scanWork     int64
	lastFrontier int64

	history []IterStats
	work    []WorkStats
}

// startState is where a bisection starts.
type startState struct {
	side []int8     // current side of each data vertex
	n    [2][]int32 // per-query neighbor counts per side
	w    [2]int64   // side weights
	home []int8     // warm-start side, -1 when absent (for MoveCostPenalty)
}

// newBisection prepares a subproblem on g that starts from start: a node
// of the recursion, whose sides are always drawn before it runs (drawStart).
// Its counts are the parent split's hand-off; only the root's, which no
// split counted, are recounted here. Side 0 will later split into tLeft
// final buckets and side 1 into tRight (Section 3.4's final-p-fanout
// lookahead), and eps is the level's imbalance allowance; see newBalance.
func newBisection(g *hypergraph.Bipartite, opts Options, seed uint64, level, task int,
	tLeft, tRight int, propLeft, eps, idealPerBucket float64, start startState) *bisection {

	b := &bisection{
		g: g, opts: opts, seed: seed,
		level: level, task: task,
		IterPolicy: opts.iterPolicy(),
		balance:    newBalance(g.TotalDataWeight(), tLeft, tRight, propLeft, eps, idealPerBucket),
		startState: start,
	}
	maxN := g.MaxQueryDegree()
	b.tables[0] = tablesFor(opts, tLeft, maxN)
	b.tables[1] = tablesFor(opts, tRight, maxN)

	nd := g.NumData()
	nq := g.NumQueries()
	if b.n[0] == nil {
		b.n = [2][]int32{make([]int32, nq), make([]int32, nq)}
		b.recountNeighborData()
	}
	b.gains = make([]float64, nd)
	b.bins = newGainBins(2, nd)
	b.accOwn = make([]float64, nd)
	b.accOth = make([]float64, nd)
	b.active = make([]uint8, nd)
	b.d[0] = make([]int32, nq)
	b.d[1] = make([]int32, nq)
	b.dirtyFlag = make([]uint8, nq)
	b.markAllActive() // fresh state: everything needs evaluation
	if g.QueryWeighted() {
		b.qw = make([]float64, nq)
		for q := range b.qw {
			b.qw[q] = float64(g.QueryWeight(int32(q)))
		}
	}
	return b
}

// balance is a bisection's weight frame: the share of its weight destined
// for side 0, and each side's target and cap.
type balance struct {
	propLeft      float64
	targetW, capW [2]float64
}

// newBalance frames a node of total weight whose buckets split tLeft+tRight.
// Caps are expressed against idealPerBucket, the global ideal weight of one
// final bucket (total graph weight / K), so that per-level ε allowances
// telescope to the overall (1+ε)·n/k bound instead of compounding.
func newBalance(total int64, tLeft, tRight int, propLeft, eps, idealPerBucket float64) balance {
	bal := balance{propLeft: propLeft}
	bal.targetW[0] = float64(total) * propLeft
	bal.targetW[1] = float64(total) - bal.targetW[0]
	bal.capW[0] = idealPerBucket * float64(tLeft) * (1 + eps)
	bal.capW[1] = idealPerBucket * float64(tRight) * (1 + eps)
	return bal
}

// initialSplit draws the sides and their weights under bal; weight(v) is data
// vertex v's weight. With a warm start (home), vertices keep their home side
// and only balance violations are repaired; otherwise a random permutation is
// cut at the target weight, giving the near-perfect initial balance the
// paper's random initialization relies on.
func (st *startState) initialSplit(bal balance, seed uint64, weight func(int) int64) {
	if st.home != nil {
		copy(st.side, st.home)
		for i, h := range st.home {
			if h < 0 {
				// Vertex without a warm-start side: deterministic coin.
				if rng.CoinAt(seed^0x5157, uint64(i)) < bal.propLeft {
					st.side[i] = 0
				} else {
					st.side[i] = 1
				}
			}
		}
		st.recountWeights(weight)
		st.repairBalance(bal, seed, weight)
		return
	}
	order := rng.NewStream(seed, 0xF00D).Perm(len(st.side))
	var acc float64
	for _, v := range order {
		wv := float64(weight(v))
		if acc+wv/2 < bal.targetW[0] {
			st.side[v] = 0
			acc += wv
		} else {
			st.side[v] = 1
		}
	}
	st.recountWeights(weight)
}

func (st *startState) recountWeights(weight func(int) int64) {
	st.w[0], st.w[1] = 0, 0
	for v, s := range st.side {
		st.w[s] += weight(v)
	}
}

// repairBalance flips vertices from the over-cap side (in deterministic
// random order) until both caps hold. Needed only for warm starts.
func (st *startState) repairBalance(bal balance, seed uint64, weight func(int) int64) {
	for s := 0; s < 2; s++ {
		if float64(st.w[s]) <= bal.capW[s] {
			continue
		}
		order := rng.NewStream(seed, 0xBA1A).Perm(len(st.side))
		for _, v := range order {
			if float64(st.w[s]) <= bal.targetW[s] {
				break
			}
			if st.side[v] != int8(s) {
				continue
			}
			st.side[v] = int8(1 - s)
			wv := weight(v)
			st.w[s] -= wv
			st.w[1-s] += wv
		}
	}
}

// recountNeighborData rebuilds the per-query side counts from scratch (the
// two-bucket form of the kernel's ndBuild): the root's start and Rebuild.
func (b *bisection) recountNeighborData() {
	for q := range int32(b.g.NumQueries()) {
		var c0, c1 int32
		for _, d := range b.g.QueryNeighbors(q) {
			if b.side[d] == 0 {
				c0++
			} else {
				c1++
			}
		}
		b.n[0][q] = c0
		b.n[1][q] = c1
	}
}

// rebuildGain resums vertex v's Equation 1 accumulators from the current
// side counts and derives the gain. All terms are grid values, so the
// resummation lands on the same bits as any sequence of patches arriving at
// the same counts.
func (b *bisection) rebuildGain(v int32) int64 {
	cur := b.side[v]
	oth := 1 - cur
	tCur := b.tables[cur].T
	tOth := b.tables[oth].T
	own, sumOth := 0.0, 0.0
	neighbors := b.g.DataNeighbors(v)
	if b.qw == nil {
		for _, q := range neighbors {
			own += tCur[b.n[cur][q]-1]
			sumOth += tOth[b.n[oth][q]]
		}
	} else {
		for _, q := range neighbors {
			wq := b.qw[q]
			own += wq * tCur[b.n[cur][q]-1]
			sumOth += wq * tOth[b.n[oth][q]]
		}
	}
	b.accOwn[v] = own
	b.accOth[v] = sumOth
	b.deriveGain(v)
	return int64(2 * len(neighbors))
}

// deriveGain turns vertex v's cached accumulators into its move gain:
// Equation 1 plus the incremental-update penalty.
func (b *bisection) deriveGain(v int32) {
	g := b.tables[0].mult * (b.accOwn[v] - b.accOth[v])
	if b.opts.MoveCostPenalty > 0 && b.home != nil && b.home[v] >= 0 {
		if b.side[v] == b.home[v] {
			g -= b.opts.MoveCostPenalty // would leave home
		} else {
			g += b.opts.MoveCostPenalty // would return home
		}
	}
	b.gains[v] = g
}

// computeGains brings every vertex's Equation 1 gain up to date. Only
// flagged vertices do anything: movers (and everyone after a sweep fallback
// or scheduled rebuild) resum their accumulators, patched vertices
// re-derive the gain from the already-exact accumulators, and untouched
// vertices keep their cached gain — which is bit-identical to what a
// recomputation would produce, because none of its inputs changed.
func (b *bisection) computeGains() {
	if b.frontierValid {
		// Frontier mode: the flagged vertices are exactly the frontier, so
		// visit only it — no O(|D|) scan to find the marks.
		for _, v := range b.frontier {
			b.updateGain(v)
		}
		b.scanWork += int64(len(b.frontier))
		b.lastFrontier = int64(len(b.frontier))
		return
	}
	nd := b.g.NumData()
	for v := range int32(nd) {
		b.updateGain(v)
	}
	b.scanWork += int64(nd)
	b.lastFrontier = int64(nd)
}

// updateGain does vertex v's pending gain work: a resummation for a mover, a
// re-derivation for a patched vertex, nothing for the rest.
func (b *bisection) updateGain(v int32) {
	switch b.active[v] {
	case activeRebuild:
		b.gainWork += b.rebuildGain(v)
	case activeSelect:
		b.deriveGain(v)
	}
}

// syncBins reconciles the proposal plane with the current (side, gain)
// state, after computeGains and before any consumer. Every regime applies the
// same canonical changed-only update rule in ascending vertex order (see
// gainbins.go); only how the candidate set is discovered differs — comparison
// scan over everyone, or the (sorted) frontier.
func (b *bisection) syncBins() {
	if b.frontierValid {
		for _, v := range b.frontier {
			b.syncBin(v)
		}
		b.scanWork += int64(len(b.frontier))
		return
	}
	nd := b.g.NumData()
	for v := range int32(nd) {
		b.syncBin(v)
	}
	b.scanWork += int64(nd)
}

// syncBin files v's proposal: every vertex proposes the other side.
func (b *bisection) syncBin(v int32) {
	s := int32(b.side[v])
	b.bins.update(v, s, 1-s, b.gains[v])
}

// objective returns the subproblem's current objective value (sum over
// queries of both sides' contributions, using the lookahead tables).
func (b *bisection) objective() float64 {
	sum := 0.0
	c0, c1 := b.tables[0].C, b.tables[1].C
	for q := range b.g.NumQueries() {
		c := c0[b.n[0][q]] + c1[b.n[1][q]]
		if b.qw != nil {
			c *= b.qw[q]
		}
		sum += c
	}
	return sum
}

// extras returns the one-sided move allowances (in vertices) for directions
// 0->1 and 1->0, derived from the receiving side's remaining ε headroom.
func (b *bisection) extras() (into1, into0 int64) {
	avgW := 1.0
	if b.g.Weighted() {
		avgW = float64(b.g.TotalDataWeight()) / float64(b.g.NumData())
	}
	head1 := (b.capW[1] - float64(b.w[1])) / avgW
	head0 := (b.capW[0] - float64(b.w[0])) / avgW
	// 0.9 safety margin: probabilistic rounding can overshoot the expected
	// number of extra moves.
	if head1 > 0 {
		into1 = int64(head1 * 0.9)
	}
	if head0 > 0 {
		into0 = int64(head0 * 0.9)
	}
	return into1, into0
}

// run iterates refinement until the IterPolicy stops it and returns the
// final sides.
func (b *bisection) run() []int8 {
	nd := b.g.NumData()
	if nd == 0 {
		return b.side
	}
	for iter := 0; ; iter++ {
		gw0, sw0 := b.gainWork, b.scanWork
		b.computeGains()
		accepted := b.applyProbabilistic(iter)
		moved := int64(len(accepted))
		mode, stop := b.IterPolicy.Next(iter, moved, nd)
		b.applyBatch(accepted, mode)
		b.history = append(b.history, IterStats{
			Level: b.level, Task: b.task, Iter: iter,
			Objective:     b.objective(),
			Moved:         moved,
			MovedFraction: float64(moved) / float64(nd),
		})
		b.work = append(b.work, WorkStats{
			Level: b.level, Task: b.task, Iter: iter,
			Frontier: b.lastFrontier,
			GainWork: b.gainWork - gw0,
			ScanWork: b.scanWork - sw0,
		})
		if stop {
			return b.side
		}
	}
}

// applyProbabilistic runs the histogram protocol: let the "master" match
// the plane's two direction histograms into per-bin move probabilities, then
// move each vertex with its bin's probability using a per-vertex
// deterministic coin (the shared move batch, movebatch.go). No phase scans
// all of |D|: matching costs O(bins), the coin phase visits only the bins
// the matching granted positive probability, and apply and trim walk the
// decided list. It returns the moves that survived the balance trim,
// ascending, with their sides already flipped; the neighbor counts are
// applyBatch's.
func (b *bisection) applyProbabilistic(iter int) []move {
	b.syncBins()
	into1, into0 := b.extras()
	b.bins.match([]int64{into0, into1})
	b.scanWork += b.batch.draw(b.bins, &b.activeSet, b.seed, rng.Mix(uint64(iter)+1, 0xC01), b.g.NumData())
	accepted, visits := commit(&b.batch, b.g, b.gains, b.side,
		func(v int32) int8 { return 1 - b.side[v] }, b.w[:], b.capW[:])
	b.scanWork += visits
	return accepted
}

// applyBatch brings the side counts and the per-vertex gain state up to
// date with the accepted moves, in the mode the IterPolicy chose. Patch goes
// through the patch collector (counts, net deltas, dirty queries, member
// patches — O(churn·deg)); Sweep transfers the counts directly and marks
// everyone for a rebuild; Rebuild recounts them from scratch instead.
func (b *bisection) applyBatch(accepted []move, mode BatchMode) {
	switch mode {
	case Patch:
		for _, m := range accepted {
			b.applyMovePatched(m.v)
		}
		b.finishPatch(accepted)
		return
	case Sweep:
		for _, m := range accepted {
			oth := b.side[m.v] // already flipped
			nCur, nOth := b.n[1-oth], b.n[oth]
			for _, q := range b.g.DataNeighbors(m.v) {
				nCur[q]--
				nOth[q]++
			}
		}
	case Rebuild:
		b.recountNeighborData()
	}
	b.markAllActive()
}

// applyMovePatched folds one already-flipped mover's count transfers into
// the maintained side counts while accumulating the batch's net per-query
// deltas and the dirty-query list the diff will read. First-touch order
// fixes the dirty list deterministically.
func (b *bisection) applyMovePatched(v int32) {
	oth := b.side[v] // already flipped
	cur := 1 - oth
	for _, q := range b.g.DataNeighbors(v) {
		b.n[cur][q]--
		b.n[oth][q]++
		b.d[cur][q]--
		b.d[oth][q]++
		if b.dirtyFlag[q] == 0 {
			b.dirtyFlag[q] = 1
			b.dirtyQ = append(b.dirtyQ, q)
		}
	}
}

// patchGroup is one dirty query's precomputed accumulator adjustments: a
// member on side s gains own[s] on accOwn (its own-side term moved through
// DeltaOwn) and away[1−s] on accOth (the opposite side's term through
// DeltaAway); a side whose count did not change contributes exactly 0.
// Precomputing the four products once per query replaces the per-member
// record walk with two branch-free adds — the products are the same
// wq·Delta values per-member patching would compute, so the folded sums
// are bit-identical.
type patchGroup struct {
	q         int32
	own, away [2]float64
	nrec      int64 // changed sides, for the gainWork accounting
}

// derivePatchGroup turns one dirty query's net count deltas into its patch
// group (cOld = cNew − net, exactly what a pre-batch snapshot would have
// diffed out), resetting the query's delta and dirty-flag state. ok is
// false when the deltas net to zero (opposing flips cancelled).
func (b *bisection) derivePatchGroup(q int32) (patchGroup, bool) {
	pg := patchGroup{q: q}
	wq := 1.0
	if b.qw != nil {
		wq = b.qw[q]
	}
	for s := int32(0); s < 2; s++ {
		if dd := b.d[s][q]; dd != 0 {
			cNew := b.n[s][q]
			cOld := cNew - dd
			pg.own[s] = wq * b.tables[s].DeltaOwn(cOld, cNew)
			pg.away[s] = wq * b.tables[s].DeltaAway(cOld, cNew)
			pg.nrec++
			b.d[s][q] = 0
		}
	}
	b.dirtyFlag[q] = 0
	return pg, pg.nrec > 0
}

// finishPatch closes a patched move batch: each dirty query's patch group
// is folded into the members' accumulators — exact arithmetic makes the
// patch order irrelevant to the result. Movers are scheduled for a rebuild:
// their own side changed, so the cached accumulators (and any patches
// applied to them above) refer to the wrong frame.
func (b *bisection) finishPatch(movers []move) {
	b.pgs = b.pgs[:0]
	for _, q := range b.dirtyQ {
		if pg, ok := b.derivePatchGroup(q); ok {
			b.pgs = append(b.pgs, pg)
		}
	}
	b.dirtyQ = b.dirtyQ[:0]

	b.scanWork += b.clearMarks()
	for gi := range b.pgs {
		pg := &b.pgs[gi]
		members := b.g.QueryNeighbors(pg.q)
		for _, v := range members {
			c := b.side[v]
			b.accOwn[v] += pg.own[c] //shp:rawfloat(pg.own/pg.away hold DeltaOwn/DeltaAway table values hoisted once per group; same dyadic grid, same bits)
			b.accOth[v] += pg.away[1-c]
			b.touch(v, activeSelect)
		}
		b.gainWork += pg.nrec * int64(len(members))
	}
	// Movers of positive degree were already touched as members of their own
	// dirty queries; zero-degree movers were not.
	for _, m := range movers {
		b.touch(m.v, activeRebuild)
	}
	b.seal(b.g.NumData())
}
