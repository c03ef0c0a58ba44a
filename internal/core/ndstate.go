package core

import (
	"fmt"

	"shp/internal/hypergraph"
)

// The shared incremental-gain kernel.
//
// Every refiner in this repo — the SHP-k direct engine (direct.go), the
// SHP-2 bisections (refine2.go), and the distributed plane
// (internal/distshp) — maintains the same two structures between move
// batches:
//
//   - per-query neighbor data: for each query, the sorted sparse list of
//     (bucket, count) pairs over its adjacent data vertices;
//   - per-vertex Equation 1 accumulators: sums of gain-table terms T[·]
//     whose inputs are exactly those counts.
//
// This file is the one implementation of the neighbor-data side: a
// fixed-capacity sorted CSR (ndState) with in-place ±1 count transfers,
// plus the dirty-query machinery that snapshots each touched query's
// pre-batch segment, diffs out the net per-bucket changes, and hands the
// canonical (bucket, cOld, cNew) records to the refiner so it can patch
// its members' accumulators through GainTables.DeltaOwn/DeltaAway.
// Because every table value lies on the shared dyadic grid (gainGridBits),
// a patched accumulator is bit-identical to a from-scratch resummation in
// any order — the property all the "every rebuild schedule yields the same
// bytes" guarantees rest on.
//
// The entry types and slice-level operations are exported so the
// distributed plane's query vertices can keep their own per-query mirrors
// (one sorted slice per vertex rather than a CSR) in exactly the same
// canonical layout, sharing the diff code bit for bit.

// NDEntry is one live neighbor-data slot: bucket B holds C of the owning
// query's data vertices. Interleaving bucket and count keeps the Equation 1
// sweep on a single memory stream.
type NDEntry struct {
	B, C int32
}

// NDChange is one changed neighbor-data entry of a dirty query: bucket B's
// count went from COld to CNew (0 = entry absent).
type NDChange struct {
	B          int32
	COld, CNew int32
}

// changeGroup addresses the contiguous NDChange records of one dirty query.
type changeGroup struct {
	q      int32
	off, n int32
}

// move records one applied relocation (the destination is the vertex's
// current bucket). It is the unit of work every batch API below consumes.
type move struct {
	v    int32
	from int32
}

// deltaScratch is the reusable dirty-query diff state of one move batch.
type deltaScratch struct {
	snapArena []NDEntry // pre-batch segment snapshots, concatenated
	snapOff   []int32   // snapshot offsets per dirty query (+ sentinel)
	dirtyQ    []int32   // dirty queries in first-touch order
	recs      []NDChange
	groups    []changeGroup
}

func (ds *deltaScratch) reset() {
	ds.snapArena = ds.snapArena[:0]
	ds.snapOff = ds.snapOff[:0]
	ds.dirtyQ = ds.dirtyQ[:0]
	ds.recs = ds.recs[:0]
	ds.groups = ds.groups[:0]
}

// ndState is the sparse neighbor data over queries, stored as a
// fixed-capacity CSR so entries can be inserted and removed in place:
// query q owns the segment [off[q], off[q+1]) with capacity min(deg(q), k),
// of which the first len[q] slots are live. Entries are kept sorted by
// bucket id — the canonical order both the full rebuild and the incremental
// maintenance produce, so the two paths are interchangeable bit for bit.
type ndState struct {
	off []int64
	len []int32
	ent []NDEntry
	// wEntries is the query-weighted live-entry count Σ_q w_q·len[q] — the
	// numerator of the average fanout, kept exact through every edit so
	// reading the fanout never recounts (on a unit-weight graph it is the
	// plain entry count).
	wEntries int64

	// Dirty-query diff machinery: dirtyFlag dedups dirty queries during
	// delta application; delta holds the last batch's changes.
	dirtyFlag []uint8
	delta     deltaScratch

	// ndBuild's scratch: k-indexed bucket counts and the bitset of the
	// buckets they hold, both empty between queries.
	buildCnt []int32
	buildSet bucketSet
}

// newNDState sizes the CSR for g: a query with degree d can touch at most
// min(d, k) distinct buckets, so its segment never overflows.
func newNDState(g *hypergraph.Bipartite, k int) *ndState {
	nq := g.NumQueries()
	nd := &ndState{
		off:       make([]int64, nq+1),
		len:       make([]int32, nq),
		dirtyFlag: make([]uint8, nq),
		buildCnt:  make([]int32, k),
		buildSet:  newBucketSet(k),
	}
	for q := 0; q < nq; q++ {
		c := g.QueryDegree(int32(q))
		if c > k {
			c = k
		}
		nd.off[q+1] = nd.off[q] + int64(c)
	}
	nd.ent = make([]NDEntry, nd.off[nq])
	return nd
}

// seg returns query q's live entries.
func (nd *ndState) seg(q int32) []NDEntry {
	off := nd.off[q]
	return nd.ent[off : off+int64(nd.len[q])]
}

// appendQuery grows the CSR by one query with the given segment capacity
// (warm sessions splice in hyperedges added since the last sync).
func (nd *ndState) appendQuery(capacity int32) {
	nq := len(nd.len)
	nd.off = append(nd.off, nd.off[nq]+int64(capacity))
	nd.len = append(nd.len, 0)
	if need := nd.off[nq+1]; int64(len(nd.ent)) < need {
		nd.ent = append(nd.ent, make([]NDEntry, need-int64(len(nd.ent)))...)
	}
	nd.dirtyFlag = append(nd.dirtyFlag, 0)
}

// build recomputes the neighbor data from scratch (supersteps 1–2 of
// Figure 3). Entries land in canonical sorted-by-bucket order, matching
// what incremental maintenance preserves. Offsets are fixed capacities, so
// one pass suffices. Buckets in `bucket` are below the k of newNDState.
func ndBuild(nd *ndState, g *hypergraph.Bipartite, bucket []int32) {
	cnt, set := nd.buildCnt, nd.buildSet
	nd.wEntries = 0
	for q := int32(0); int(q) < g.NumQueries(); q++ {
		for _, d := range g.QueryNeighbors(q) {
			b := bucket[d]
			set.add(b)
			cnt[b]++
		}
		off := nd.off[q]
		pos := off
		for b := range set.drain {
			nd.ent[pos] = NDEntry{B: b, C: cnt[b]}
			cnt[b] = 0
			pos++
		}
		nd.len[q] = int32(pos - off)
		nd.wEntries += int64(g.QueryWeight(q)) * int64(nd.len[q])
	}
}

// applyEntryDelta moves one unit of query q's neighbor count from bucket
// `from` to bucket `to`, preserving sorted order, and returns the live-entry
// delta (-1, 0, or +1).
func (nd *ndState) applyEntryDelta(q, from, to int32) int64 {
	off := nd.off[q]
	n := int64(nd.len[q])
	var delta int64
	i := off
	for ; i < off+n; i++ {
		if nd.ent[i].B == from {
			break
		}
	}
	if i == off+n {
		//shp:panics(invariant: an incremental retract must match a prior assert; continuing would corrupt neighbor counts)
		panic(fmt.Sprintf("core: neighbor data for query %d lost bucket %d", q, from))
	}
	nd.ent[i].C--
	if nd.ent[i].C == 0 {
		copy(nd.ent[i:off+n-1], nd.ent[i+1:off+n])
		n--
		delta--
	}
	j := off
	for ; j < off+n; j++ {
		if nd.ent[j].B >= to {
			break
		}
	}
	if j < off+n && nd.ent[j].B == to {
		nd.ent[j].C++
	} else {
		copy(nd.ent[j+1:off+n+1], nd.ent[j:off+n])
		nd.ent[j] = NDEntry{B: to, C: 1}
		n++
		delta++
	}
	nd.len[q] = int32(n)
	return delta
}

// ndApplyMoveBatch patches the neighbor data in place for the queries
// adjacent to the accepted moves (decrement the origin's count, increment the
// target's, inserting/removing sparse entries as they cross zero). Each dirty
// query's pre-batch segment is snapshotted on first touch and the net
// per-entry changes are diffed into nd.delta's groups/recs, in first-touch
// order, so the refiner can fold them into its members' accumulators.
// accepted must contain each vertex at most once (one move batch), with
// bucket[v] already holding the destination. It is the small-batch path: a
// batch big enough that a refiner re-sweeps anyway is cheaper served by
// ndBuild.
func ndApplyMoveBatch(nd *ndState, g *hypergraph.Bipartite, accepted []move, bucket []int32) {
	ds := &nd.delta
	ds.reset()
	for _, m := range accepted {
		to := bucket[m.v]
		for _, q := range g.DataNeighbors(m.v) {
			if nd.dirtyFlag[q] == 0 {
				nd.dirtyFlag[q] = 1
				ds.dirtyQ = append(ds.dirtyQ, q)
				ds.snapOff = append(ds.snapOff, int32(len(ds.snapArena)))
				ds.snapArena = append(ds.snapArena, nd.seg(q)...)
			}
			if d := nd.applyEntryDelta(q, m.from, to); d != 0 {
				nd.wEntries += d * int64(g.QueryWeight(q))
			}
		}
	}
	ds.snapOff = append(ds.snapOff, int32(len(ds.snapArena)))
	for i, q := range ds.dirtyQ {
		old := ds.snapArena[ds.snapOff[i]:ds.snapOff[i+1]]
		start := int32(len(ds.recs))
		ds.recs = NDDiff(ds.recs, old, nd.seg(q))
		if n := int32(len(ds.recs)) - start; n > 0 {
			ds.groups = append(ds.groups, changeGroup{q: q, off: start, n: n})
		}
		nd.dirtyFlag[q] = 0
	}
}

// NDDiff appends the (bucket, oldCount, newCount) records for the entries
// that differ between two sorted segments. 0 means "entry absent" on either
// side. Shared with the distributed plane's query vertices, whose delta
// records must match the in-process diff bit for bit.
func NDDiff(recs []NDChange, old, cur []NDEntry) []NDChange {
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		switch {
		case j >= len(cur) || (i < len(old) && old[i].B < cur[j].B):
			recs = append(recs, NDChange{B: old[i].B, COld: old[i].C})
			i++
		case i >= len(old) || cur[j].B < old[i].B:
			recs = append(recs, NDChange{B: cur[j].B, CNew: cur[j].C})
			j++
		default:
			if old[i].C != cur[j].C {
				recs = append(recs, NDChange{B: old[i].B, COld: old[i].C, CNew: cur[j].C})
			}
			i++
			j++
		}
	}
	return recs
}

// NDInc adds one unit of bucket b to a sorted entry slice, inserting the
// entry if absent, and returns the (possibly reallocated) slice. This is
// the registration half of applyEntryDelta for callers that keep their own
// per-query mirrors (the distributed plane's query vertices).
func NDInc(ent []NDEntry, b int32) []NDEntry {
	i := 0
	for ; i < len(ent); i++ {
		if ent[i].B >= b {
			break
		}
	}
	if i < len(ent) && ent[i].B == b {
		ent[i].C++
		return ent
	}
	ent = append(ent, NDEntry{})
	copy(ent[i+1:], ent[i:])
	ent[i] = NDEntry{B: b, C: 1}
	return ent
}

// NDDec removes one unit of bucket b from a sorted entry slice, dropping
// the entry as its count crosses zero, and returns the shortened slice.
func NDDec(ent []NDEntry, b int32) []NDEntry {
	i := 0
	for ; i < len(ent); i++ {
		if ent[i].B == b {
			break
		}
	}
	if i == len(ent) {
		//shp:panics(invariant: the mirror must contain every bucket the base state does; continuing would corrupt counts)
		panic(fmt.Sprintf("core: neighbor-data mirror lost bucket %d", b))
	}
	ent[i].C--
	if ent[i].C == 0 {
		ent = append(ent[:i], ent[i+1:]...)
	}
	return ent
}

// NDCount returns bucket b's count in a sorted entry slice (0 when absent).
func NDCount(ent []NDEntry, b int32) int32 {
	lo, hi := 0, len(ent)
	for lo < hi {
		mid := (lo + hi) / 2
		if ent[mid].B < b {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ent) && ent[lo].B == b {
		return ent[lo].C
	}
	return 0
}
