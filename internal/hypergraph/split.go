package hypergraph

import "math"

// SplitBySide builds the subgraphs induced by the data vertices with
// side[d] == 0 and by those with side[d] == 1 in one walk over g; any other
// side value leaves d out of both. Data vertices are relabelled by rank
// within their side, and a child keeps — relabelled densely, in g's order —
// the hyperedges with at least minQueryDegree members on its side, with g's
// weights. Child c is built only when want[c] is set and is nil otherwise.
//
// This is the substrate for recursive bisection: a node's children are cut
// out of the node's own subgraph, so a recursion level costs what is left of
// the graph at that level (Section 3.3, "Recursive partitioning").
func (g *Bipartite) SplitBySide(side []int8, want [2]bool, minQueryDegree int) [2]*Bipartite {
	const dropped = math.MaxUint32 // in rel: a data vertex in neither child

	// rel[d] = (rank of d within its side)<<1 | side, or dropped: the one
	// load per incidence both forward passes make.
	rel := make([]uint32, g.numD)
	var nd [2]uint32
	for d := range rel {
		if s := side[d]; (s == 0 || s == 1) && want[s] {
			rel[d] = nd[s]<<1 | uint32(s)
			nd[s]++
		} else {
			rel[d] = dropped
		}
	}

	// Count pass: members per hyperedge per side.
	cnt := [2][]int32{make([]int32, g.numQ), make([]int32, g.numQ)}
	for q := range g.numQ {
		var n [2]int32
		for _, d := range g.QueryNeighbors(int32(q)) {
			if r := rel[d]; r != dropped {
				n[r&1]++
			}
		}
		cnt[0][q], cnt[1][q] = n[0], n[1]
	}
	var out [2]*Bipartite
	for c := range out {
		if want[c] {
			out[c] = g.childFromCounts(cnt[c], int(nd[c]), minQueryDegree)
		}
	}
	// childFromCounts rewrote the counts of every child built into the map
	// from g's query ids to the child's (-1 for a hyperedge it does not keep).
	qmap := cnt

	// Forward fill: ranks grow with the parent's ids, so every list a child
	// receives is already sorted.
	for q := range g.numQ {
		members := g.QueryNeighbors(int32(q))
		for c, ch := range out {
			nq := qmap[c][q]
			if ch == nil || nq < 0 {
				continue
			}
			dst, i := ch.qAdj[ch.qOff[nq]:ch.qOff[nq+1]], 0
			for _, d := range members {
				if r := rel[d]; r&1 == uint32(c) && r != dropped {
					dst[i] = int32(r >> 1)
					i++
				}
			}
		}
	}

	// Reverse fill: the parent's data vertices in order, each appending its
	// surviving hyperedges, so the children's reverse lists are written
	// sequentially and come out sorted as well.
	var pos [2]int64
	for d := 0; d < g.numD; d++ {
		r := rel[d]
		if r == dropped {
			continue
		}
		c, local := r&1, r>>1
		ch, ids, p := out[c], qmap[c], pos[c]
		for _, q := range g.DataNeighbors(int32(d)) {
			if nq := ids[q]; nq >= 0 {
				ch.dAdj[p] = nq
				p++
			}
		}
		pos[c] = p
		ch.dOff[local+1] = p
		if ch.dWeight != nil {
			ch.dWeight[local] = g.dWeight[d]
		}
	}
	return out
}

// childFromCounts allocates, at exact size, a child of g with numD data
// vertices that keeps hyperedge q iff cnt[q] >= minDeg: query offsets, query
// weights and the cached maximum degree are final, the adjacency arrays and
// data weights are left for the caller to fill. cnt is rewritten into the
// map from g's query ids to the child's (-1 = not kept).
func (g *Bipartite) childFromCounts(cnt []int32, numD, minDeg int) *Bipartite {
	ch := &Bipartite{numD: numD}
	var total int64
	for _, n := range cnt {
		if int(n) >= minDeg {
			ch.numQ++
			total += int64(n)
		}
	}
	ch.qOff = make([]int64, ch.numQ+1)
	if g.qWeight != nil {
		ch.qWeight = make([]int32, ch.numQ)
	}
	next := int32(0)
	for q, n := range cnt {
		if int(n) < minDeg {
			cnt[q] = -1
			continue
		}
		ch.qOff[next+1] = ch.qOff[next] + int64(n)
		if g.qWeight != nil {
			ch.qWeight[next] = g.qWeight[q]
		}
		switch {
		case int(n) > ch.maxQDeg:
			ch.maxQDeg, ch.maxQDegCount = int(n), 1
		case int(n) == ch.maxQDeg:
			ch.maxQDegCount++
		}
		cnt[q] = next
		next++
	}
	ch.qAdj = make([]int32, total)
	ch.dAdj = make([]int32, total)
	ch.dOff = make([]int64, numD+1)
	if g.dWeight != nil {
		ch.dWeight = make([]int32, numD)
	}
	return ch
}
