package core

import (
	"fmt"
	"time"

	"shp/internal/hypergraph"
	"shp/internal/partition"
	"shp/internal/rng"
)

// Session is a long-lived partitioning session over a mutable hypergraph —
// the paper's production setting (Section 5, "incremental updates"), where
// the graph churns continuously and each re-partition warm-starts from the
// previous assignment instead of running from scratch.
//
// A Session owns three things:
//
//   - the hypergraph, mutated in place by Apply(delta);
//   - the current Assignment;
//   - the warm refinement state of the direct k-way engine (the neighbor-data
//     rows, the per-vertex patchable gain accumulators, and the bucket loads),
//     built lazily on the first Repartition and patched — not rebuilt — on
//     every subsequent one.
//
// NewSession computes the initial partition with whatever strategy Options
// selects (recursive SHP-2 by default, SHP-k with Options.Direct).
// Repartition always refines with the direct k-way engine warm-started from
// the current assignment: the engine's dirty-query patch machinery makes its
// cost proportional to the churn since the last call, not to |E|. Vertices
// added since the last Repartition are first seeded by a greedy min-fanout
// placement (each goes to the admissible bucket most of its hyperedges
// already touch), then local refinement absorbs the change.
//
// A Session is not safe for concurrent use.
type Session struct {
	g    *hypergraph.Bipartite
	opts Options // defaults applied

	// assignment is the current bucket of every data vertex; vertices added
	// by Apply hold partition.Unassigned until the next Repartition.
	assignment partition.Assignment
	last       *Result

	st    *directState // warm engine; nil until the first Repartition
	epoch uint64

	// Engine-sync bookkeeping: counts the engine was last synced at, plus
	// everything the deltas touched since.
	engNQ    int
	engND    int
	removedQ []int32 // removed hyperedges (ids >= engNQ are filtered at sync)
	touched  []int32 // data vertices adjacent to any structural change
	dirty    bool
}

// NewSession validates the options, computes the initial partition of g, and
// returns the live session. The graph is owned by the session from here on:
// mutate it only through Apply.
func NewSession(g *hypergraph.Bipartite, opts Options) (*Session, error) {
	opts = opts.withDefaults()
	if err := opts.validate(g.NumData()); err != nil {
		return nil, err
	}
	start := time.Now() //shp:nondet(wall timing for Result.Elapsed only; never feeds the assignment)
	var res *Result
	var err error
	if opts.Direct {
		res, err = partitionDirect(g, opts)
	} else {
		res, err = partitionRecursive(g, opts)
	}
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start) //shp:nondet(wall timing for Result.Elapsed only; never feeds the assignment)
	return &Session{
		g:          g,
		opts:       opts,
		assignment: res.Assignment.Clone(),
		last:       res,
	}, nil
}

// Graph returns the session's hypergraph. Callers may read it freely but
// must mutate it only through Apply.
func (s *Session) Graph() *hypergraph.Bipartite { return s.g }

// Assignment returns a copy of the current assignment. Vertices added since
// the last Repartition are Unassigned.
func (s *Session) Assignment() partition.Assignment { return s.assignment.Clone() }

// Result returns the result of the most recent partitioning (the initial
// one from NewSession, or the last Repartition).
func (s *Session) Result() *Result { return s.last }

// NewDelta starts an empty delta against the session's current graph.
func (s *Session) NewDelta() *hypergraph.Delta {
	return hypergraph.NewDelta(s.g.NumQueries(), s.g.NumData())
}

// Apply splices the delta into the session's hypergraph and marks everything
// it touched dirty, so the next Repartition re-evaluates exactly the
// affected neighborhood. The call is atomic: on error the graph and session
// are unchanged. The assignment is not updated — new vertices stay
// Unassigned and removed hyperedges keep influencing nothing — until
// Repartition is called.
func (s *Session) Apply(d *hypergraph.Delta) error {
	// Collect bookkeeping into locals first (members of removed hyperedges
	// must be read before the splice erases them), commit only on success.
	var touched []int32
	var removed []int32
	for _, op := range d.Ops {
		switch op.Kind {
		case hypergraph.OpAddHyperedge:
			touched = append(touched, op.Members...)
		case hypergraph.OpRemoveHyperedge:
			// Bounds-checked read only; an out-of-range id (either side)
			// falls through to ApplyDelta's validation, which rejects the
			// whole delta before anything mutates.
			if op.Q >= 0 && int(op.Q) < s.g.NumQueries() {
				touched = append(touched, s.g.QueryNeighbors(op.Q)...)
			}
			// Hyperedges added earlier in this same delta already put their
			// members into touched.
			removed = append(removed, op.Q)
		case hypergraph.OpSetDataWeight:
			touched = append(touched, op.D)
		}
	}
	if err := s.g.ApplyDelta(d); err != nil {
		return err
	}
	s.touched = append(s.touched, touched...)
	s.removedQ = append(s.removedQ, removed...)
	for len(s.assignment) < s.g.NumData() {
		s.assignment = append(s.assignment, partition.Unassigned)
	}
	s.dirty = true
	return nil
}

// seedBase derives the engine seed root; per-epoch seeds are mixed from it
// so refinement coins are fresh each Repartition but fully deterministic.
func (s *Session) seedBase() uint64 {
	return rng.Mix(s.opts.Seed, 0x5E5510A1)
}

// Repartition absorbs every delta applied since the last call: new vertices
// are placed greedily, the warm engine state is patched for the structural
// changes (cost proportional to the churn), and the direct k-way refinement
// runs to convergence from the current assignment. It returns the result of
// this refinement epoch; the session's Assignment reflects it afterwards.
//
// The first call builds the warm engine (one O(|E|) pass); subsequent calls
// only pay for what changed plus the refinement the churn actually causes:
// cached proposals outlive the epoch (the new epoch seed reaches only the
// ones that ended in a gain tie, see reanchorTies), and the objective and
// fanout are carried as running sums through every splice.
// With Options.MoveCostPenalty set, each epoch penalizes moves away from
// the assignment it started from, keeping churn low (Section 5).
func (s *Session) Repartition() (*Result, error) {
	start := time.Now() //shp:nondet(wall timing for Result.Elapsed only; never feeds the assignment)
	s.epoch++
	epochSeed := rng.Mix(s.seedBase(), s.epoch)
	if s.st == nil {
		s.buildEngine(epochSeed)
	} else {
		s.st.seed = epochSeed
		s.syncEngine()
		s.st.reanchorTies()
	}
	st := s.st
	if s.opts.MoveCostPenalty > 0 {
		// Re-snapshot the penalty reference to "where vertices are now":
		// each epoch discourages churn relative to its own starting point.
		st.opts.Initial = append(st.opts.Initial[:0], st.bucket...)
		st.forceSelect = true
	}
	if s.opts.MigrationBudget != 0 {
		// Re-snapshot the migration-budget reference: the budget is charged
		// against this epoch's starting assignment (after new-vertex
		// placement and balance repair, which are feasibility work rather
		// than migrations), and the epoch starts with a full budget.
		st.migRef = append(st.migRef[:0], st.bucket...)
		st.migrated = 0
	}
	st.history = st.history[:0]
	st.work = st.work[:0]
	st.refine()
	// An epoch that ended on a sweep left the candidate lists unwritten. Write
	// them while the graph still matches the neighbor data they derive from:
	// between epochs the engine's state is complete, whatever Apply changes.
	st.materializeCands()

	if cap(s.assignment) < len(st.bucket) {
		s.assignment = make(partition.Assignment, len(st.bucket))
	}
	s.assignment = s.assignment[:len(st.bucket)]
	copy(s.assignment, st.bucket)
	res := &Result{
		Assignment: s.assignment.Clone(),
		K:          s.opts.K,
		Iterations: len(st.history),
		History:    append([]IterStats(nil), st.history...),
		Work:       append([]WorkStats(nil), st.work...),
		Elapsed:    time.Since(start), //shp:nondet(wall timing for Result.Elapsed only; never feeds the assignment)
		Migrated:   st.migrated,
	}
	s.last = res
	return res, nil
}

// reanchorTies schedules reselection for the vertices whose cached proposal
// depends on the tie-break seed, after a Session re-keyed it for a new epoch:
// exactly those whose argmax ended in an exact gain tie. Every other cached
// proposal is the same under any seed.
func (st *directState) reanchorTies() {
	for v, tied := range st.tied {
		if tied && st.active[v] == 0 {
			st.active[v] = activeSelect
		}
	}
	st.invalidate()
}

// Fanout returns the average query fanout of the assignment the last
// Repartition produced, on the graph as of that call, from the warm engine's
// running weighted entry count — the value partition.Fanout would recount.
// Before the first Repartition there is no engine and it is counted.
func (s *Session) Fanout() float64 {
	if s.st == nil {
		return partition.Fanout(s.g, s.assignment, s.opts.K)
	}
	return s.st.fanout()
}

// buildEngine constructs the warm direct-engine state from the current
// graph and assignment (the one O(|E|) pass a session ever pays after
// construction).
func (s *Session) buildEngine(seed uint64) {
	g := s.g
	k := s.opts.K
	total := float64(g.TotalDataWeight())
	capW := make([]float64, k)
	bucketW := make([]int64, k)
	for c := 0; c < k; c++ {
		capW[c] = total / float64(k) * (1 + s.opts.Epsilon)
	}
	for v, b := range s.assignment {
		if b >= 0 {
			bucketW[b] += int64(g.DataWeight(int32(v)))
		}
	}
	placeNewVertices(g, s.assignment, bucketW, capW, k)

	dopts := s.opts
	dopts.Direct = true
	// Warm epochs move few vertices by construction, so the fractional
	// stop would fire almost immediately and strand quality behind a cold
	// run's long polish tail. Iterations with little movement cost little
	// under the incremental engine, so run them until movement actually
	// stops (or MaxIters).
	dopts.MinMoveFraction = 0
	dopts.Initial = s.assignment
	st := newDirectState(g, dopts, seed)
	st.opts.Initial = nil // reattached per epoch by Repartition (penalty)
	st.buildNeighborData()
	s.st = st
	s.clearPending()
}

// syncEngine patches the warm engine for everything Apply recorded since
// the last sync: array growth for new vertices/queries, greedy placement,
// balance-target refresh, neighbor-data splices for added and removed
// hyperedges, a deterministic balance repair, and dirty marks so the next
// refinement re-evaluates exactly the touched neighborhood.
func (s *Session) syncEngine() {
	if !s.dirty {
		return
	}
	st := s.st
	g := s.g
	nq, nd := g.NumQueries(), g.NumData()

	// Per-query growth: the new hyperedges' neighbor-data rows land, zeroed,
	// at the tail of the row arena.
	if nq > s.engNQ {
		st.nd.appendQueries(nq - s.engNQ)
		if st.qw != nil {
			for q := s.engNQ; q < nq; q++ {
				st.qw = append(st.qw, float64(g.QueryWeight(int32(q))))
			}
		} else if g.QueryWeighted() {
			// The graph gained query weights (a weighted hyperedge arrived
			// on a previously unweighted graph): materialize the array.
			st.qw = make([]float64, nq)
			for q := range st.qw {
				st.qw[q] = float64(g.QueryWeight(int32(q)))
			}
		}
	}

	// Per-data growth.
	if nd > s.engND {
		grow := nd - s.engND
		st.bucket = append(st.bucket, s.assignment[s.engND:nd]...)
		st.target = append(st.target, make([]int32, grow)...)
		st.gains = append(st.gains, make([]float64, grow)...)
		st.cands.grow(grow)
		st.propBase = append(st.propBase, make([]float64, grow)...)
		st.wdegArr = append(st.wdegArr, make([]float64, grow)...)
		st.active = append(st.active, make([]uint8, grow)...)
		st.tied = append(st.tied, make([]bool, grow)...)
		st.plane.grow(nd)
	}

	// Balance targets track the (possibly changed) total weight; bucket
	// loads are recounted outright — O(|D|), trivial next to any refinement.
	total := float64(g.TotalDataWeight())
	for c := 0; c < st.k; c++ {
		st.targetW[c] = total / float64(st.k)
		st.capW[c] = total / float64(st.k) * (1 + st.opts.Epsilon)
	}
	for c := range st.bucketW {
		st.bucketW[c] = 0
	}
	for v := 0; v < nd; v++ {
		if b := st.bucket[v]; b >= 0 {
			st.bucketW[b] += int64(g.DataWeight(int32(v)))
		}
	}

	// A new hyperedge may exceed every previous size: grow the gain tables
	// before anything below looks a count up. Table values live on the
	// shared dyadic grid and longer tables extend the same prefix, so cached
	// accumulators and the running objective stay exact.
	if maxN := g.MaxQueryDegree(); maxN+2 > len(st.tables.T) {
		st.tables = tablesFor(st.opts, 1, maxN)
	}
	st.totalQW = g.TotalQueryWeight()

	// Seed the new vertices, then splice the neighbor data: every removed
	// and added hyperedge's row is recounted from its membership (empty for
	// a removed one). Each splice carries its share of the running fanout
	// and objective sums with it.
	placeNewVertices(g, st.bucket, st.bucketW, st.capW, st.k)
	splice := func(q int32) {
		st.editQuery(q, func() { st.nd.row(q).fill(g.QueryNeighbors(q), st.bucket) })
	}
	for _, q := range s.removedQ {
		if int(q) < s.engNQ { // a later id is added below
			splice(q)
		}
	}
	for q := int32(s.engNQ); q < int32(nq); q++ {
		splice(q)
	}

	// Deterministic balance repair: placement (or a weight change) may have
	// pushed a bucket over cap; move vertices out the way warm starts do,
	// keeping the maintained neighbor data exact for every repair move.
	s.repairOverCap()

	// Dirty marks, static degrees and slots: every vertex whose Equation 1
	// inputs changed gets a full rebuild at the next proposal pass. That is
	// exactly the members of added/removed hyperedges, weight-change targets,
	// and the new vertices. Their lists wait for it, in a fresh slot where the
	// candidate bound grew.
	resync := func(v int32) {
		st.markRebuild(v)
		st.wdegArr[v] = st.computeWdeg(v)
		st.cands.fit(v, st.candBound(v))
	}
	for _, v := range s.touched {
		resync(v)
	}
	for v := int32(s.engND); v < int32(nd); v++ {
		resync(v)
	}
	st.cands.compact()
	st.gainsExact = st.gainsInExactRange()
	st.invalidate() // these marks, and repairOverCap's, came from no batch

	s.clearPending()
}

// repairOverCap runs the engine's deterministic balance repair (the same
// policy warm starts use in newDirectState), keeping the maintained engine
// state exact: each repair move updates the neighbor data of the mover's
// hyperedges and schedules the affected membership for rebuild.
func (s *Session) repairOverCap() {
	st := s.st
	st.repairBalance(func(v, from, to int32) {
		// Exact state maintenance: transfer one neighbor-data unit per
		// adjacent hyperedge and rebuild everything that saw the move.
		// Repairs are rare and small, so the hub-conservative rebuild
		// (members instead of patches) costs nothing measurable.
		for _, q := range s.g.DataNeighbors(v) {
			st.editQuery(q, func() { st.nd.row(q).Transfer(q, from, to) })
			for _, d := range s.g.QueryNeighbors(q) {
				st.markRebuild(d)
			}
		}
		st.markRebuild(v)
	})
}

// markRebuild schedules v's rebuild from outside a move batch; its list is
// pending until then.
func (st *directState) markRebuild(v int32) {
	st.active[v] = activeRebuild
	st.cands.pend(v)
}

// computeWdeg returns vertex v's static query-weighted degree.
func (st *directState) computeWdeg(v int32) float64 {
	if st.qw == nil {
		return float64(len(st.g.DataNeighbors(v)))
	}
	wdeg := 0.0
	for _, q := range st.g.DataNeighbors(v) {
		wdeg += st.qw[q]
	}
	return wdeg
}

func (s *Session) clearPending() {
	s.engNQ, s.engND = s.g.NumQueries(), s.g.NumData()
	s.removedQ = s.removedQ[:0]
	s.touched = s.touched[:0]
	s.dirty = false
}

// placeNewVertices greedily assigns every Unassigned vertex, in ascending id
// order, to the admissible bucket that minimizes the marginal fanout: the
// bucket already touched by the largest (query-weighted) number of the
// vertex's hyperedges. Ties prefer the lighter bucket, then the lower id;
// a vertex with no placed neighbors (or no admissible scored bucket) goes
// to the bucket with the most remaining capacity. Deterministic.
func placeNewVertices(g *hypergraph.Bipartite, bucket []int32, bucketW []int64, capW []float64, k int) {
	score := make([]float64, k)
	scoreGen := make([]int64, k)
	seenGen := make([]int64, k)
	var scoreC, seenC int64
	touched := make([]int32, 0, 64)
	for v := range bucket {
		if bucket[v] != partition.Unassigned {
			continue
		}
		scoreC++
		touched = touched[:0]
		for _, q := range g.DataNeighbors(int32(v)) {
			wq := float64(g.QueryWeight(q))
			seenC++
			for _, d := range g.QueryNeighbors(q) {
				b := bucket[d]
				if b < 0 || seenGen[b] == seenC {
					continue
				}
				seenGen[b] = seenC
				if scoreGen[b] != scoreC {
					scoreGen[b] = scoreC
					score[b] = 0
					touched = append(touched, b)
				}
				score[b] += wq
			}
		}
		wv := float64(g.DataWeight(int32(v)))
		best := int32(-1)
		bestScore := 0.0
		for _, b := range touched {
			if float64(bucketW[b])+wv > capW[b] {
				continue
			}
			switch {
			case best < 0 || score[b] > bestScore:
				best = b
				bestScore = score[b]
			case score[b] == bestScore && (bucketW[b] < bucketW[best] || (bucketW[b] == bucketW[best] && b < best)):
				best = b
			}
		}
		if best < 0 {
			// Nothing scored and admissible: most remaining capacity wins
			// (possibly over cap when everything is full; the balance
			// repair cleans that up).
			bestSlack := 0.0
			for b := 0; b < k; b++ {
				if slack := capW[b] - float64(bucketW[b]); best < 0 || slack > bestSlack {
					best = int32(b)
					bestSlack = slack
				}
			}
		}
		bucket[v] = best
		bucketW[best] += int64(wv)
	}
}

// String implements fmt.Stringer for debugging convenience.
func (s *Session) String() string {
	return fmt.Sprintf("Session{k=%d, |Q|=%d, |D|=%d, |E|=%d, epoch=%d, dirty=%v}",
		s.opts.K, s.g.NumQueries(), s.g.NumData(), s.g.NumEdges(), s.epoch, s.dirty)
}
