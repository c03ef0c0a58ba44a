package core

import (
	"math/bits"
	"sync"

	"shp/internal/hypergraph"
	"shp/internal/par"
	"shp/internal/partition"
	"shp/internal/rng"
)

// Partition runs SHP on g and returns the bucket assignment for the data
// vertices. It dispatches on Options.Direct: direct k-way refinement
// (SHP-k) or recursive bisection (SHP-2, the open-sourced variant).
//
// Partition is a thin wrapper over a single-use Session; callers that keep
// the graph alive and re-partition it as it changes should hold on to a
// Session (NewSession) instead.
func Partition(g *hypergraph.Bipartite, opts Options) (*Result, error) {
	s, err := NewSession(g, opts)
	if err != nil {
		return nil, err
	}
	return s.Result(), nil
}

// rtask is one recursion node: split the data vertices of sub, whose
// original ids data lists in sub's order, over the bucket range [lo, hi),
// with a bisection that starts from start.
type rtask struct {
	sub   *hypergraph.Bipartite
	data  []int32
	lo    int32
	hi    int32
	start startState
}

// taskOut is a recursion node's children and its bisection's history, or
// the error that stopped it.
type taskOut struct {
	children []rtask
	history  []IterStats
	work     []WorkStats
	err      error
}

// recursion is what every node of one SHP-2 run shares.
type recursion struct {
	g          *hypergraph.Bipartite // the input graph: data weights by original id
	opts       Options
	levels     int     // recursion depth, levelsFor(K)
	ideal      float64 // ideal weight of one final bucket
	assignment partition.Assignment
}

// partitionRecursive implements recursive bisection (SHP-2). Each level
// splits every active task's data vertices into two (nearly) even bucket
// ranges with a bisection on the task's own subgraph and cuts that subgraph
// into the two children's, with Section 3.4's lookahead and ε scheduling.
// A level's tasks are independent: each runs on a goroutine of its own, at
// most par.Workers(Parallelism) at once.
func partitionRecursive(g *hypergraph.Bipartite, opts Options) (*Result, error) {
	nd := g.NumData()
	r := &recursion{g: g, opts: opts, levels: levelsFor(opts.K),
		ideal: float64(g.TotalDataWeight()) / float64(opts.K), assignment: make(partition.Assignment, nd)}
	res := &Result{K: opts.K, Assignment: r.assignment}
	if opts.K == 1 {
		return res, nil
	}

	all := make([]int32, nd)
	for i := range all {
		all[i] = int32(i)
	}
	// The root bisects g without the hyperedges of fewer than two members,
	// which no split can cut and every deeper node drops as well.
	root := rtask{sub: hypergraph.PruneTrivialQueries(g, 2), data: all, lo: 0, hi: int32(opts.K)}
	root.start = r.drawStart(0, root, g.TotalDataWeight())
	tasks := []rtask{root}

	for level := 0; len(tasks) > 0; level++ {
		outs := make([]taskOut, len(tasks))
		// A goroutine per task even at Parallelism 1: running the tasks back
		// to back on one goroutine measured 5–9 % more peak RSS on
		// cold-bisect-social, at the same heap goals.
		var wg sync.WaitGroup
		sem := make(chan struct{}, par.Workers(opts.Parallelism))
		for ti := range tasks {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				t := tasks[ti]
				tasks[ti] = rtask{} // t holds the last reference: the subgraph and start go once the children exist
				outs[ti] = r.splitTask(t, level)
				<-sem
				wg.Done()
			}()
		}
		wg.Wait()

		var children []rtask
		for ti := range outs {
			if err := outs[ti].err; err != nil {
				return nil, err
			}
			res.History = append(res.History, outs[ti].history...)
			res.Work = append(res.Work, outs[ti].work...)
			res.Iterations += len(outs[ti].history)
			children = append(children, outs[ti].children...)
		}
		tasks = children
	}
	return res, nil
}

// node returns the seed, bucket split, side-0 weight share and ε of the
// bisection of [lo, hi) at level. Section 3.4 scales ε by the share of splits
// done once the level completes, so early levels stay tight and do not
// strangle later movement.
func (r *recursion) node(level int, lo, hi int32) (seed uint64, kLeft, kRight int, propLeft, eps float64) {
	span := int(hi - lo)
	kLeft = (span + 1) / 2
	seed = rng.Mix(r.opts.Seed, rng.Mix(uint64(level)+1, uint64(lo)))
	eps = r.opts.Epsilon * float64(level+1) / float64(r.levels)
	return seed, kLeft, span - kLeft, float64(kLeft) / float64(span), eps
}

// splitTask splits one recursion node with a bisection on its subgraph. A
// child whose bucket range is a single bucket is assigned on the spot. The
// others are returned with their subgraphs, cut from t.sub in one pass from
// the counts the bisection ends with, and their starts: drawn before the cut,
// which counts each child's hyperedges under them as it writes them.
func (r *recursion) splitTask(t rtask, level int) taskOut {
	if len(t.data) == 0 {
		return taskOut{}
	}
	seed, kLeft, kRight, propLeft, eps := r.node(level, t.lo, t.hi)
	b, err := newBisection(t.sub, r.opts, seed, level, int(t.lo), kLeft, kRight, propLeft, eps, r.ideal, t.start)
	if err != nil {
		return taskOut{err: err}
	}
	side := b.run()

	mid := t.lo + int32(kLeft)
	kids := [2]rtask{{lo: t.lo, hi: mid}, {lo: mid, hi: t.hi}}
	var n [2]int
	for _, s := range side {
		n[s]++
	}
	for c := range kids {
		kids[c].data = make([]int32, 0, n[c])
	}
	for i, d := range t.data {
		kids[side[i]].data = append(kids[side[i]].data, d)
	}
	var want [2]bool
	var next [2][]int8
	for c := range kids {
		kid := &kids[c]
		if kid.hi-kid.lo <= 1 {
			for _, d := range kid.data {
				r.assignment[d] = kid.lo
			}
			continue
		}
		if want[c] = len(kid.data) > 0; want[c] {
			kid.start = r.drawStart(level+1, *kid, b.w[c])
			next[c] = kid.start.side
		}
	}
	out := taskOut{history: b.history, work: b.work}
	if want[0] || want[1] {
		subs, counts := t.sub.SplitBySide(side, b.n, next, want, 2)
		for c, kid := range kids {
			if want[c] {
				kid.sub, kid.start.n = subs[c], counts[c]
				out.children = append(out.children, kid)
			}
		}
	}
	return out
}

// drawStart draws the sides and home sides of node t, of data weight total,
// at level. It reads no subgraph, so a parent draws its children's first.
func (r *recursion) drawStart(level int, t rtask, total int64) startState {
	seed, kLeft, kRight, propLeft, eps := r.node(level, t.lo, t.hi)
	st := startState{side: make([]int8, len(t.data)), home: warmStartSides(r.opts, t, int32(kLeft))}
	st.initialSplit(newBalance(total, kLeft, kRight, propLeft, eps, r.ideal), seed,
		func(v int) int64 { return int64(r.g.DataWeight(t.data[v])) })
	return st
}

// warmStartSides derives per-vertex home sides (0 = left child, 1 = right)
// from Options.Initial for the task's data vertices, or nil without a warm
// start. Vertices whose initial bucket lies outside the task's range get -1.
func warmStartSides(opts Options, t rtask, kLeft int32) []int8 {
	if opts.Initial == nil {
		return nil
	}
	home := make([]int8, len(t.data))
	mid := t.lo + kLeft
	for i, d := range t.data {
		b := opts.Initial[d]
		switch {
		case b < t.lo || b >= t.hi:
			home[i] = -1
		case b < mid:
			home[i] = 0
		default:
			home[i] = 1
		}
	}
	return home
}

// levelsFor returns the recursion depth: ceil(log2 k).
func levelsFor(k int) int { return bits.Len(uint(k - 1)) }
