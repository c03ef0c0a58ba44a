package core

import (
	"cmp"
	"slices"

	"shp/internal/hypergraph"
)

// moveBatch is the step of an iteration between matching and the neighbor
// data that SHP-2 and SHP-k share: the per-vertex coins of Section 3.4, then
// the moves they decide under a hard balance cap. The paper's master
// balances only in expectation; commit applies every decided move — so
// opposing flows cancel and a swap never deadlocks on two full buckets — and
// then undoes arrivals until the caps hold again.
//
// All of it is per-iteration scratch, reused: the decided flags are cleared
// through the lists they were set from, so an idle iteration never pays an
// O(|D|) clear.
type moveBatch struct {
	decided []bool
	list    []int32 // decided vertices, ascending
	applied []move
	// byDst groups the applied moves by destination; undone[c] counts the
	// arrivals of c the trim undid, a prefix of the group once sorted by
	// gain, and is -1 while the group is unsorted.
	byDst  [][]move
	undone []int
}

// draw tosses the coins of every bin the plane's matching granted and leaves
// the winners in list, ascending: the canonical order commit applies them
// in. It returns the members drawn. n is |D|.
func (mb *moveBatch) draw(plane *gainBins, a *activeSet, seed, iterKey uint64, n int) (visits int64) {
	if len(mb.decided) < n {
		mb.decided = make([]bool, n)
	}
	mb.list, visits = plane.coins(seed, iterKey, mb.decided, mb.list[:0])
	a.sortAscending(mb.list, n)
	return visits
}

// commit moves every vertex v of mb.list to to(v), updating bucket and the
// per-bucket weights load, then trims: it visits the buckets over their cap
// capW from the lowest index up, and in each undoes arrivals — lowest gain
// first, ties to the lower vertex — until the bucket fits. An undone vertex
// returns to its origin, which can push that bucket over, so the visits
// repeat until every bucket fits or no over-cap bucket has an arrival left
// to undo (one that started the batch over its cap may have none). The
// result does not depend on the visiting order: each bucket undoes the
// shortest prefix of its arrivals that the returns it receives allow.
//
// It returns the surviving moves, ascending by vertex, with bucket holding
// their destinations, and its scan work: one visit per decided move.
func commit[B int8 | int32](mb *moveBatch, g *hypergraph.Bipartite, gains []float64,
	bucket []B, to func(v int32) B, load []int64, capW []float64) (accepted []move, visits int64) {

	k := len(load)
	if len(mb.byDst) < k {
		mb.byDst = make([][]move, k)
		mb.undone = make([]int, k)
	}
	for c := range k {
		mb.byDst[c] = mb.byDst[c][:0]
		mb.undone[c] = -1
	}
	applied := mb.applied[:0]
	for _, v := range mb.list {
		from, dst := bucket[v], to(v)
		wv := int64(g.DataWeight(v))
		bucket[v] = dst
		load[from] -= wv
		load[dst] += wv
		m := move{v, int32(from)}
		applied = append(applied, m)
		mb.byDst[dst] = append(mb.byDst[dst], m)
	}
	for undid := true; undid; {
		undid = false
		for c := range k {
			if float64(load[c]) <= capW[c] {
				continue
			}
			arrivals, i := mb.byDst[c], mb.undone[c]
			if i < 0 {
				slices.SortFunc(arrivals, func(a, b move) int {
					return cmp.Or(cmp.Compare(gains[a.v], gains[b.v]), cmp.Compare(a.v, b.v))
				})
				i = 0
			}
			for ; i < len(arrivals) && float64(load[c]) > capW[c]; i++ {
				m := arrivals[i]
				wv := int64(g.DataWeight(m.v))
				bucket[m.v] = B(m.from)
				load[c] -= wv
				load[m.from] += wv
				mb.decided[m.v] = false
				undid = true
			}
			mb.undone[c] = i
		}
	}
	accepted = applied[:0]
	for _, m := range applied {
		if mb.decided[m.v] {
			accepted = append(accepted, m)
			mb.decided[m.v] = false
		}
	}
	mb.applied = applied
	return accepted, int64(len(mb.list))
}
