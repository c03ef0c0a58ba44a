package hypergraph

import "testing"

// fuzzDelta decodes one delta against g from the front of data and returns
// the rest. Byte 0 holds the op count and whether the delta claims a stale
// base; each op is a kind byte and its operands. Ids land one below to one
// above the valid range and weights span both signs, so about half the
// decoded deltas break a rule ApplyDelta must reject.
func fuzzDelta(g *Bipartite, data []byte) (*Delta, []byte) {
	next := func() int32 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int32(b)
	}
	head := next()
	d := NewDelta(g.NumQueries(), g.NumData())
	if head&0x80 != 0 {
		d.BaseData++
	}
	nq, nd := int32(g.NumQueries()), int32(g.NumData())
	id := func(n int32) int32 { return next()%(n+2) - 1 }
	weight := func() int32 { return int32(int8(next())) }
	for ops := head&7 + 1; ops > 0 && len(data) > 0; ops-- {
		switch next() % 4 {
		case 0:
			d.AddData(weight())
			nd++
		case 1:
			w := weight()
			members := make([]int32, next()%5)
			for i := range members {
				members[i] = id(nd)
			}
			d.AddWeightedHyperedge(w, members...)
			nq++
		case 2:
			d.RemoveHyperedge(id(nq))
		case 3:
			d.SetDataWeight(id(nd), weight())
		}
	}
	return d, data
}

// FuzzApplyDelta applies decoded op batches to a small graph: after every
// accepted batch the graph validates and matches a from-scratch build of its
// live edges, and a rejected batch leaves Version, NumQueries and NumEdges
// as they were. An input runs at most 64 batches, so a long one costs
// linear, not quadratic, time.
func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{3, 1, 1, 3, 0, 1, 2, 2, 0, 3, 2, 5})      // add, remove, set weight
	f.Add([]byte{0x81, 0, 1})                              // stale base
	f.Add([]byte{1, 1, 1, 0, 2, 200})                      // empty hyperedge, then a remove
	f.Add([]byte{2, 0, 255, 1, 0, 2, 9, 9, 1, 1, 4, 7, 7}) // non-positive data weight
	f.Add([]byte{7, 0, 1, 1, 1, 4, 8, 9, 10, 11, 2, 6, 2, 6, 3, 8, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := smallGraph(t)
		for batch := 0; batch < 64 && len(data) > 0; batch++ {
			var d *Delta
			d, data = fuzzDelta(g, data)
			version, queries, edges := g.Version(), g.NumQueries(), g.NumEdges()
			if err := g.ApplyDelta(d); err != nil {
				if g.Version() != version || g.NumQueries() != queries || g.NumEdges() != edges {
					t.Fatalf("rejected delta (%v) changed the graph: version %d→%d, queries %d→%d, edges %d→%d",
						err, version, g.Version(), queries, g.NumQueries(), edges, g.NumEdges())
				}
				continue
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("accepted delta %+v left an invalid graph: %v", d.Ops, err)
			}
			assertEdgeIdentical(t, g, rebuildFromScratch(t, g))
		}
	})
}
