package core

import (
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
// original ids data lists in sub's order, over the bucket range [lo, hi).
type rtask struct {
	sub  *hypergraph.Bipartite
	data []int32
	lo   int32
	hi   int32
}

// partitionRecursive implements recursive bisection (SHP-2). Each level
// splits every active task's data vertices into two (nearly) even bucket
// ranges with a bisection on the task's own subgraph and cuts that subgraph
// into the two children's, with Section 3.4's lookahead and ε scheduling.
// A level's tasks are independent: each runs on a goroutine of its own, at
// most par.Workers(Parallelism) at once.
func partitionRecursive(g *hypergraph.Bipartite, opts Options) (*Result, error) {
	nd := g.NumData()
	assignment := make(partition.Assignment, nd)
	res := &Result{K: opts.K}

	if opts.K == 1 {
		res.Assignment = assignment
		return res, nil
	}

	all := make([]int32, nd)
	for i := range all {
		all[i] = int32(i)
	}
	// The root bisects g without the hyperedges of fewer than two members,
	// which no split can cut and every deeper node drops as well.
	tasks := []rtask{{sub: hypergraph.PruneTrivialQueries(g, 2), data: all, lo: 0, hi: int32(opts.K)}}
	totalLevels := levelsFor(opts.K)
	idealPerBucket := float64(g.TotalDataWeight()) / float64(opts.K)

	for level := 0; len(tasks) > 0; level++ {
		// Section 3.4: grant ε scaled by the share of recursive splits done
		// once this level completes, so early levels stay tight and do not
		// strangle later movement (K >= 2 here, so totalLevels >= 1).
		eps := opts.Epsilon * float64(level+1) / float64(totalLevels)

		type taskOut struct {
			children []rtask
			history  []IterStats
			work     []WorkStats
			iters    int
		}
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
				tasks[ti].sub = nil // t holds the last reference: the subgraph goes once its children exist
				seed := rng.Mix(opts.Seed, rng.Mix(uint64(level)+1, uint64(t.lo)))
				children, hist, work, iters := splitTask(opts, t, seed, level, eps, idealPerBucket, assignment)
				outs[ti] = taskOut{children: children, history: hist, work: work, iters: iters}
				<-sem
				wg.Done()
			}()
		}
		wg.Wait()

		var children []rtask
		for ti := range outs {
			res.History = append(res.History, outs[ti].history...)
			res.Work = append(res.Work, outs[ti].work...)
			res.Iterations += outs[ti].iters
			children = append(children, outs[ti].children...)
		}
		tasks = children
	}

	res.Assignment = assignment
	return res, nil
}

// splitTask splits one recursion node with a bisection on its subgraph. A
// child whose bucket range is a single bucket is assigned on the spot; the
// others are returned with their subgraphs, cut from t.sub in one pass.
func splitTask(opts Options, t rtask, seed uint64,
	level int, eps, idealPerBucket float64, assignment partition.Assignment) ([]rtask, []IterStats, []WorkStats, int) {

	if len(t.data) == 0 {
		return nil, nil, nil, 0
	}
	span := int(t.hi - t.lo)
	kLeft := (span + 1) / 2
	kRight := span - kLeft
	propLeft := float64(kLeft) / float64(span)
	home := warmStartSides(opts, t, int32(kLeft))
	b := newBisection(t.sub, opts, seed, level, int(t.lo), kLeft, kRight, propLeft, eps, idealPerBucket, home)
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
	for c, kid := range kids {
		if kid.hi-kid.lo <= 1 {
			for _, d := range kid.data {
				assignment[d] = kid.lo
			}
			continue
		}
		want[c] = len(kid.data) > 0
	}
	var children []rtask
	if want[0] || want[1] {
		subs := t.sub.SplitBySide(side, want, 2)
		for c, kid := range kids {
			if want[c] {
				kid.sub = subs[c]
				children = append(children, kid)
			}
		}
	}
	return children, b.history, b.work, len(b.history)
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
func levelsFor(k int) int {
	levels := 0
	for span := 1; span < k; span *= 2 {
		levels++
	}
	return levels
}
