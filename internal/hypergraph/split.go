package hypergraph

import "math"

// SplitBySide builds the subgraphs induced by the data vertices with
// side[d] == 0 and by those with side[d] == 1 in one walk over g; any other
// side value leaves d out of both. Data vertices are relabelled by rank
// within their side, and a child keeps — relabelled densely, in g's order —
// the hyperedges with at least minQueryDegree members on its side, with g's
// weights. Child c is built only when want[c] is set and is nil otherwise.
//
// The split has no count pass: cnt[c][q] must be hyperedge q's member count
// on side c for every child built — the counts a bisection over g ends
// with. They are consumed, rewritten into the map from g's hyperedge ids to
// the child's.
//
// next[c] holds the sides child c's own bisection starts from, by rank (0 or
// 1). The fill counts each kept hyperedge's members per next side as it
// writes them, and nextCnt[c] returns those counts, so the child starts
// without a pass over its graph. g has fewer than 1<<30 data vertices.
//
// This is the substrate for recursive bisection: a node's children are cut
// out of the node's own subgraph, so a recursion level costs what is left of
// the graph at that level (Section 3.3, "Recursive partitioning").
func (g *Bipartite) SplitBySide(side []int8, cnt [2][]int32, next [2][]int8, want [2]bool, minQueryDegree int) (out [2]*Bipartite, nextCnt [2][2][]int32) {
	const dropped = math.MaxUint32 // in rel: a data vertex in neither child

	// rel[d] = (rank of d within its side)<<2 | next side<<1 | side, or
	// dropped: the one load per incidence the forward fill makes.
	rel := make([]uint32, g.numD)
	var nd [2]uint32
	for d := range rel {
		if s := side[d]; (s == 0 || s == 1) && want[s] {
			rel[d] = nd[s]<<2 | uint32(next[s][nd[s]])<<1 | uint32(s)
			nd[s]++
		} else {
			rel[d] = dropped
		}
	}
	for c := range out {
		if want[c] {
			out[c] = g.childFromCounts(cnt[c], int(nd[c]), minQueryDegree)
			nextCnt[c] = [2][]int32{make([]int32, out[c].numQ), make([]int32, out[c].numQ)}
		}
	}
	qmap := cnt // what childFromCounts rewrote the counts into (-1 = not kept)

	// Forward fill: ranks grow with the parent's ids, so every list a child
	// receives is already sorted.
	for q := range g.numQ {
		members := g.QueryNeighbors(int32(q))
		for c, ch := range out {
			if ch == nil || qmap[c][q] < 0 {
				continue
			}
			nq := qmap[c][q]
			dst, i, n1 := ch.qAdj[ch.qOff[nq]:ch.qOff[nq+1]], 0, int32(0)
			for _, d := range members {
				if r := rel[d]; r&1 == uint32(c) && r != dropped {
					dst[i] = int32(r >> 2)
					n1 += int32(r >> 1 & 1)
					i++
				}
			}
			nextCnt[c][0][nq], nextCnt[c][1][nq] = int32(i)-n1, n1
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
		c, local := r&1, r>>2
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
	return out, nextCnt
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
