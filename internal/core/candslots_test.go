package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"shp/internal/hypergraph"
	"shp/internal/rng"
)

// checkSlots verifies the candidate slab: live slots lie inside one chunk
// allocation each and never overlap, the capacity accounting matches the
// slots, every list fits its slot and holds at least its vertex's candidate
// bound, and every list that is not pending (while the lists are written at
// all) is the Equation 1 state a naive recount gives.
func checkSlots(t *testing.T, st *directState, label string) {
	t.Helper()
	cs := st.cands
	if len(cs.slot) != st.g.NumData() {
		t.Fatalf("%s: %d slots for %d vertices", label, len(cs.slot), st.g.NumData())
	}
	var live int64
	type span struct{ lo, hi int64 }
	var spans []span
	for v, s := range cs.slot {
		live += int64(s.size)
		if s.n > s.size {
			t.Fatalf("%s: vertex %d holds %d candidates in a %d-entry slot", label, v, s.n, s.size)
		}
		if b := st.candBound(int32(v)); s.size < b {
			t.Fatalf("%s: vertex %d has a %d-entry slot below its bound %d", label, v, s.size, b)
		}
		if s.size == 0 {
			continue
		}
		c := int64(s.off) >> cs.shift
		if c >= int64(len(cs.chunks)) || int64(s.off)&(1<<cs.shift-1)+int64(s.size) > int64(len(cs.chunks[c])) {
			t.Fatalf("%s: vertex %d's slot [%d, +%d) leaves its chunk", label, v, s.off, s.size)
		}
		if int64(s.off)+int64(s.size) > cs.tail {
			t.Fatalf("%s: vertex %d's slot [%d, +%d) is past the tail %d", label, v, s.off, s.size, cs.tail)
		}
		spans = append(spans, span{int64(s.off), int64(s.off) + int64(s.size)})
		if st.candsStale || s.n < 0 {
			continue
		}
		base, cands := naiveProposalState(st, int32(v))
		if got := st.cands.list(int32(v)); st.propBase[v] != base || !slices.Equal(got, cands) {
			t.Fatalf("%s: vertex %d: base %v, list %v; a rebuild gives %v, %v", label, v, st.propBase[v], got, base, cands)
		}
	}
	if live != cs.live {
		t.Fatalf("%s: slots hold %d entries, the slab counts %d live", label, live, cs.live)
	}
	slices.SortFunc(spans, func(a, b span) int { return int(a.lo - b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("%s: slots [%d, %d) and [%d, %d) overlap", label, spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
}

// TestEmptySlotAfterFullChunk: a vertex without candidates whose slot comes
// after slots that fill a whole chunk still reads as an empty list.
func TestEmptySlotAfterFullChunk(t *testing.T) {
	cs := newCandSlots(2, []int32{1 << candChunkShift, 0})
	cs.setLen(1, 0)
	if len(cs.list(1)) != 0 || cap(cs.room(1)) != 0 {
		t.Fatal("the empty slot is not empty")
	}
}

// refineChecked is refine's loop with checkSlots after every batch.
func refineChecked(t *testing.T, st *directState, label string) {
	t.Helper()
	n := st.g.NumData()
	for iter := 0; ; iter++ {
		st.computeProposals()
		accepted := st.applyMoves(iter)
		mode, stop := st.IterPolicy.Next(iter, int64(len(accepted)), n)
		st.applyBatch(accepted, mode)
		checkSlots(t, st, fmt.Sprintf("%s iter %d (%v)", label, iter, mode))
		if stop {
			return
		}
	}
}

// TestSlotsHoldExactLists: after every batch of cold runs (unit and
// query-weighted, past one bitset word) every list fits its slot and equals
// a rebuild.
func TestSlotsHoldExactLists(t *testing.T) {
	arms := []struct {
		name string
		g    *hypergraph.Bipartite
		k    int
	}{
		{"unit", randomBipartite(t, 41, 300, 700, 2400), 8},
		{"weighted", weightedBipartite(t, 42, 300, 700, 2400), 8},
		{"unitK70", randomBipartite(t, 43, 300, 900, 3000), 70},
	}
	for _, arm := range arms {
		opts := Options{K: arm.k, Direct: true, Seed: 7, MaxIters: 20}.withDefaults()
		st := mustDirectState(t, arm.g, opts, 7)
		st.buildNeighborData()
		st.markAllActive()
		checkSlots(t, st, arm.name+" built")
		refineChecked(t, st, arm.name)
	}
}

// TestSlotsSurviveSessionGrowth runs a Session on a sparse graph, where most
// slots sit below k−1, and adds hyperedges over its low-degree vertices every
// epoch: their bounds grow, so they take fresh slots at the tail, and the
// abandoned ones pile up until the slab is re-carved. After every sync and
// every batch every list fits its slot and equals a rebuild, and abandoned
// capacity never outnumbers the live one.
func TestSlotsSurviveSessionGrowth(t *testing.T) {
	g := randomBipartite(t, 61, 400, 600, 1000) // degree ~1.7, hyperedges of ~2.5
	opts := Options{K: 16, Direct: true, Seed: 9, MaxIters: 8}
	s, err := NewSession(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Repartition(); err != nil { // builds the warm engine
		t.Fatal(err)
	}
	checkSlots(t, s.st, "built")
	r := rng.New(3)
	relocated, recarved := 0, 0
	for epoch := 1; epoch <= 12; epoch++ {
		gr := s.Graph()
		d := s.NewDelta()
		for range 40 {
			members := map[int32]bool{}
			for len(members) < 4 {
				members[int32(r.Intn(gr.NumData()))] = true
			}
			ms := make([]int32, 0, len(members))
			for v := range members {
				ms = append(ms, v)
			}
			slices.Sort(ms)
			d.AddHyperedge(ms...)
		}
		for range 10 {
			if q := int32(r.Intn(gr.NumQueries())); gr.QueryDegree(q) > 0 {
				d.RemoveHyperedge(q)
			}
		}
		for range 5 {
			v := d.AddData(1)
			d.AddHyperedge(v, int32(r.Intn(gr.NumData())))
		}
		if err := s.Apply(d); err != nil {
			t.Fatal(err)
		}
		st := s.st
		before := slices.Clone(st.cands.slot)
		tail := st.cands.tail
		s.epoch++
		st.seed = rng.Mix(s.seedBase(), s.epoch)
		s.syncEngine()
		label := fmt.Sprintf("epoch %d", epoch)
		checkSlots(t, st, label+" sync")
		if st.cands.dead > st.cands.live {
			t.Fatalf("%s: %d abandoned entries outnumber %d live ones after the sync", label, st.cands.dead, st.cands.live)
		}
		for v, old := range before {
			if st.cands.slot[v].size > old.size && old.size > 0 {
				relocated++
			}
		}
		if st.cands.tail < tail {
			recarved++
		}
		st.reanchorTies()
		st.history = st.history[:0]
		refineChecked(t, st, label)
		st.materializeCands()
		checkSlots(t, st, label+" end")
	}
	if relocated < 100 || recarved == 0 {
		t.Fatalf("%d relocations, %d re-carves: the run exercised too little", relocated, recarved)
	}
}

// TestColdDirectAllocations: a cold SHP-k run allocates no object per vertex
// — the candidate lists are slots in a slab, not a heap object each — and
// writing the lists a fused sweep skipped allocates nothing.
func TestColdDirectAllocations(t *testing.T) {
	opts := Options{K: 8, Direct: true, Seed: 3, MaxIters: 12, MinMoveFraction: 1e-12}
	count := func(scale int) (uint64, *directState) {
		g := randomBipartite(t, 5, 1500*scale, 3000*scale, 15000*scale)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o := opts.withDefaults()
		st := mustDirectState(t, g, o, rng.Mix(o.Seed, 0xD12EC7))
		st.run()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, st
	}
	small, _ := count(1)
	large, st := count(4)
	t.Logf("a cold run allocates %d objects at |D| = 3000, %d at |D| = 12000", small, large)
	// What does grow grows otherwise: the slab's chunks (one per 16 Ki
	// entries, 4 more here), the plane's direction slots (k(k−1) at most) and
	// appends that double (history, frontier, move buffers). A per-vertex
	// allocation adds 9000.
	if large > small+40 {
		t.Fatalf("a cold run allocates %d objects at |D| = 3000 but %d at |D| = 12000", small, large)
	}
	st.markAllActive()
	if allocs := testing.AllocsPerRun(1, func() { st.candsStale = true; st.materializeCands() }); allocs != 0 {
		t.Fatalf("writing the candidate lists allocated %.0f objects", allocs)
	}
}
