package core

import (
	"fmt"
	"math/bits"

	"shp/internal/hypergraph"
)

// The shared incremental-gain kernel.
//
// Every refiner in this repo — the SHP-k direct engine (direct.go), the
// SHP-2 bisections (refine2.go), and the distributed plane
// (internal/distshp) — maintains the same two structures between move
// batches:
//
//   - per-query neighbor data: for each query, the count n_b(q) of its
//     adjacent data vertices in each bucket b;
//   - per-vertex Equation 1 accumulators: sums of gain-table terms T[·]
//     whose inputs are exactly those counts.
//
// This file is the one implementation of SHP-k's neighbor-data side: one
// pin-count row per query (ndState) — a connectivity mask beside dense
// counts, Mt-KaHyPar's layout — with ±1 count transfers, plus the
// dirty-query machinery that snapshots each touched query's pre-batch row,
// diffs out the net per-bucket changes, and hands the canonical
// (bucket, cOld, cNew) records to the refiner so it can patch its members'
// accumulators through GainTables.DeltaOwn/DeltaAway. Because every table
// value lies on the shared dyadic grid (gainGridBits), a patched
// accumulator is bit-identical to a from-scratch resummation in any order —
// the property all the "every rebuild schedule yields the same bytes"
// guarantees rest on.
//
// The distributed plane's query vertices keep their own per-query mirrors
// (one sorted NDEntry slice per vertex) with the slice operations below;
// their NDDiff emits the same canonical records, in the same ascending
// bucket order, as the row diff.

// NDEntry is one live slot of a distributed query vertex's neighbor-data
// mirror: bucket B holds C of the owning query's data vertices.
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
	snapMask []uint64 // pre-batch row snapshots, one per dirty query in dirtyQ order
	snapCnt  []int32
	dirtyQ   []int32 // dirty queries in first-touch order
	recs     []NDChange
	groups   []changeGroup
}

func (ds *deltaScratch) reset() {
	ds.snapMask = ds.snapMask[:0]
	ds.snapCnt = ds.snapCnt[:0]
	ds.dirtyQ = ds.dirtyQ[:0]
	ds.recs = ds.recs[:0]
	ds.groups = ds.groups[:0]
}

// ndState is the neighbor data over queries, one fixed-size row per query:
// query q's ⌈k/64⌉-word connectivity mask at mask[q·w:], and its k pin
// counts n_b(q) at cnt[q·k:]. Mask bit b is set exactly when count b is
// nonzero, so walking the mask's bits visits the live entries in ascending
// bucket order — the canonical order of every consumer. A move is one
// decrement, one increment and at most two bit flips; nothing is inserted,
// removed or re-sorted. Memory is |Q|·(4k + 8⌈k/64⌉) bytes.
type ndState struct {
	k, w int
	mask bucketSet
	cnt  []int32
	// wEntries is the query-weighted connectivity Σ_q w_q·|mask_q| — the
	// numerator of the average fanout, kept exact through every edit so
	// reading the fanout never recounts (on a unit-weight graph it is the
	// plain entry count).
	wEntries int64

	// Dirty-query diff machinery: dirtyFlag dedups dirty queries during
	// delta application; delta holds the last batch's changes.
	dirtyFlag []uint8
	delta     deltaScratch
}

// newNDState allocates one zeroed row per query of g over k buckets.
func newNDState(g *hypergraph.Bipartite, k int) *ndState {
	nq := g.NumQueries()
	w := (k + 63) >> 6
	return &ndState{
		k: k, w: w,
		mask:      make(bucketSet, nq*w),
		cnt:       make([]int32, nq*k),
		dirtyFlag: make([]uint8, nq),
	}
}

// maskOf returns query q's connectivity mask.
func (nd *ndState) maskOf(q int32) bucketSet {
	off := int(q) * nd.w
	return nd.mask[off : off+nd.w]
}

// countsOf returns query q's k pin counts.
func (nd *ndState) countsOf(q int32) []int32 {
	off := int(q) * nd.k
	return nd.cnt[off : off+nd.k]
}

// appendQueries grows the arena by n zeroed rows (warm sessions splice in
// hyperedges added since the last sync). append's amortised growth keeps a
// session's row arena from being copied on every sync.
func (nd *ndState) appendQueries(n int) {
	nd.mask = append(nd.mask, make(bucketSet, n*nd.w)...)
	nd.cnt = append(nd.cnt, make([]int32, n*nd.k)...)
	nd.dirtyFlag = append(nd.dirtyFlag, make([]uint8, n)...)
}

// fillRow recounts query q's row from its members' buckets.
func (nd *ndState) fillRow(q int32, members, bucket []int32) {
	m, c := nd.maskOf(q), nd.countsOf(q)
	clear(m)
	clear(c)
	for _, d := range members {
		b := bucket[d]
		m.add(b)
		c[b]++
	}
}

// ndBuild recomputes the neighbor data from scratch (supersteps 1–2 of
// Figure 3), one row per query. Buckets in `bucket` are below the k of
// newNDState.
func ndBuild(nd *ndState, g *hypergraph.Bipartite, bucket []int32) {
	nd.wEntries = 0
	for q := int32(0); int(q) < g.NumQueries(); q++ {
		nd.fillRow(q, g.QueryNeighbors(q), bucket)
		nd.wEntries += int64(g.QueryWeight(q)) * int64(nd.maskOf(q).count())
	}
}

// transfer moves one unit of query q's pin count from bucket `from` to
// bucket `to` and returns the change in q's connectivity (-1, 0, or +1).
func (nd *ndState) transfer(q, from, to int32) int64 {
	m, c := nd.maskOf(q), nd.countsOf(q)
	if c[from] == 0 {
		//shp:panics(invariant: an incremental retract must match a prior assert; continuing would corrupt neighbor counts)
		panic(fmt.Sprintf("core: neighbor data for query %d lost bucket %d", q, from))
	}
	var delta int64
	if c[from]--; c[from] == 0 {
		m[from>>6] &^= 1 << (uint32(from) & 63)
		delta--
	}
	if c[to]++; c[to] == 1 {
		m.add(to)
		delta++
	}
	return delta
}

// ndApplyMoveBatch patches the neighbor data in place for the queries
// adjacent to the accepted moves (decrement the origin's count, increment the
// target's, flipping mask bits as counts cross zero). Each dirty query's
// pre-batch row is snapshotted on first touch and the net per-bucket changes
// are diffed into nd.delta's groups/recs, in first-touch order, so the
// refiner can fold them into its members' accumulators. accepted must
// contain each vertex at most once (one move batch), with bucket[v] already
// holding the destination. It is the small-batch path: a batch big enough
// that a refiner re-sweeps anyway is cheaper served by ndBuild.
func ndApplyMoveBatch(nd *ndState, g *hypergraph.Bipartite, accepted []move, bucket []int32) {
	ds := &nd.delta
	ds.reset()
	for _, m := range accepted {
		to := bucket[m.v]
		for _, q := range g.DataNeighbors(m.v) {
			if nd.dirtyFlag[q] == 0 {
				nd.dirtyFlag[q] = 1
				ds.dirtyQ = append(ds.dirtyQ, q)
				ds.snapMask = append(ds.snapMask, nd.maskOf(q)...)
				ds.snapCnt = append(ds.snapCnt, nd.countsOf(q)...)
			}
			if d := nd.transfer(q, m.from, to); d != 0 {
				nd.wEntries += d * int64(g.QueryWeight(q))
			}
		}
	}
	w, k := nd.w, nd.k
	for i, q := range ds.dirtyQ {
		start := int32(len(ds.recs))
		ds.recs = rowDiff(ds.recs, ds.snapMask[i*w:(i+1)*w], ds.snapCnt[i*k:(i+1)*k], nd.maskOf(q), nd.countsOf(q))
		if n := int32(len(ds.recs)) - start; n > 0 {
			ds.groups = append(ds.groups, changeGroup{q: q, off: start, n: n})
		}
		nd.dirtyFlag[q] = 0
	}
}

// rowDiff appends the (bucket, oldCount, newCount) records for the buckets
// whose count differs between two rows, walking the union of their masks in
// ascending bucket order — the records NDDiff emits for the same two states.
func rowDiff(recs []NDChange, oldMask bucketSet, oldCnt []int32, mask bucketSet, cnt []int32) []NDChange {
	for wi, m := range mask {
		for u := m | oldMask[wi]; u != 0; u &= u - 1 {
			b := wi<<6 | bits.TrailingZeros64(u)
			if oldCnt[b] != cnt[b] {
				recs = append(recs, NDChange{B: int32(b), COld: oldCnt[b], CNew: cnt[b]})
			}
		}
	}
	return recs
}

// NDDiff appends the (bucket, oldCount, newCount) records for the entries
// that differ between two sorted segments. 0 means "entry absent" on either
// side. The distributed plane's query vertices diff their mirrors with it,
// and their delta records match the in-process row diff bit for bit.
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
// entry if absent, and returns the (possibly reallocated) slice. It is the
// registration half of a count transfer for callers that keep their own
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
