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
// This file is the one implementation of the neighbor-data side, for every
// refiner: one pin-count row per query (PinRow) — a connectivity mask beside
// dense counts, Mt-KaHyPar's layout — with ±1 count transfers and the row
// diff that turns a query's pre-batch snapshot and its current row into the
// canonical (bucket, cOld, cNew) records. SHP-k keeps its rows in one arena
// (ndState) over the k buckets, with the dirty-query machinery that
// snapshots each touched query's pre-batch row and hands the records to the
// refiner, so it can patch its members' accumulators through
// GainTables.DeltaOwn/DeltaAway. The distributed plane's query vertices each
// hold one row and one snapshot row carved by NewPinRows, over only the
// sibling pairs their members occupy at the current level (so a row's size
// is bounded by the query's degree, not by K), and ship the same records
// over the wire. Because every table value lies on the shared dyadic grid
// (gainGridBits), a patched accumulator is bit-identical to a from-scratch
// resummation in any order — the property all the "every rebuild schedule
// yields the same bytes" guarantees rest on.

// PinRow is one query's neighbor data over k buckets: a ⌈k/64⌉-word
// connectivity mask beside the k pin counts n_b(q). Mask bit b is set
// exactly when count b is positive, so walking the mask's bits visits the
// live entries in ascending bucket order — the canonical order of every
// consumer. A move is one decrement, one increment and at most two bit
// flips; nothing is inserted, removed or re-sorted. A row is a view into
// slabs its owner allocated, so copying a PinRow copies no counts. At six
// words a PinRow is too big for the compiler to keep in registers, so the
// methods that index it more than once copy its slices into locals first.
type PinRow struct {
	mask bucketSet
	cnt  []int32
}

// NewPinRows allocates n zeroed rows from one mask slab and one count slab,
// row i over k(i) buckets, 4k(i) + 8⌈k(i)/64⌉ bytes each.
func NewPinRows(n int, k func(i int) int) []PinRow {
	words := func(i int) int { return (k(i) + 63) >> 6 }
	nw, nk := 0, 0
	for i := 0; i < n; i++ {
		nw += words(i)
		nk += k(i)
	}
	mask, cnt := make(bucketSet, nw), make([]int32, nk)
	rows := make([]PinRow, n)
	for i := range rows {
		w, c := words(i), k(i)
		rows[i] = PinRow{mask: mask[:w:w], cnt: cnt[:c:c]}
		mask, cnt = mask[w:], cnt[c:]
	}
	return rows
}

// Reshape returns the row emptied and viewed over k buckets. It reuses the
// storage of a row from NewPinRows or Reshape when that holds k buckets and
// allocates otherwise.
func (r PinRow) Reshape(k int) PinRow {
	w := (k + 63) >> 6
	if k > cap(r.cnt) {
		return PinRow{mask: make(bucketSet, w), cnt: make([]int32, k)}
	}
	r = PinRow{mask: r.mask[:w], cnt: r.cnt[:k]}
	r.reset()
	return r
}

// Count returns bucket b's pin count n_b(q).
func (r PinRow) Count(b int32) int32 { return r.cnt[b] }

// Live returns the row's connectivity: the number of buckets with a pin.
func (r PinRow) Live() int { return r.mask.count() }

// reset empties the row.
func (r PinRow) reset() {
	clear(r.mask)
	clear(r.cnt)
}

// CopyFrom overwrites the row with src, a row over the same k.
func (r PinRow) CopyFrom(src PinRow) {
	copy(r.mask, src.mask)
	copy(r.cnt, src.cnt)
}

// Inc adds one pin in bucket b — a member registering without a previous
// bucket — and returns the change in connectivity (0 or +1).
func (r PinRow) Inc(b int32) int {
	if r.cnt[b]++; r.cnt[b] > 1 {
		return 0
	}
	r.mask.add(b)
	return 1
}

// Transfer moves one pin of query q's row from bucket `from` to bucket `to`
// and returns the change in connectivity (-1, 0, or +1). q only names the
// query if the row has no pin to move.
func (r PinRow) Transfer(q, from, to int32) int {
	m, c := r.mask, r.cnt
	if c[from] == 0 {
		//shp:panics(invariant: an incremental retract must match a prior assert; continuing would corrupt neighbor counts)
		panic(fmt.Sprintf("core: neighbor data for query %d lost bucket %d", q, from))
	}
	delta := 0
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

// fill recounts the row from its query's members' buckets.
func (r PinRow) fill(members, bucket []int32) {
	m, c := r.mask, r.cnt
	clear(m)
	clear(c)
	for _, d := range members {
		b := bucket[d]
		m.add(b)
		c[b]++
	}
}

// Diff appends the (bucket, oldCount, newCount) records for the buckets
// whose count differs between old and the row, walking the union of their
// masks in ascending bucket order. 0 means "no pin" on either side.
func (r PinRow) Diff(recs []NDChange, old PinRow) []NDChange {
	mask, cnt, oldMask, oldCnt := r.mask, r.cnt, old.mask, old.cnt
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

// ndState is SHP-k's neighbor data: the arena of one PinRow per query,
// query q's mask at mask[q·w:] and its k counts at cnt[q·k:]. The rebuild
// kernel (direct.go's rebuildInto) walks the two arenas directly. Memory is
// |Q|·(4k + 8⌈k/64⌉) bytes.
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

// row returns query q's row.
func (nd *ndState) row(q int32) PinRow {
	m, c := nd.rowSlices(q)
	return PinRow{mask: m, cnt: c}
}

// rowSlices returns query q's mask and counts, for the loops that would
// otherwise keep a PinRow in memory.
func (nd *ndState) rowSlices(q int32) (bucketSet, []int32) {
	mo, co := int(q)*nd.w, int(q)*nd.k
	return nd.mask[mo : mo+nd.w], nd.cnt[co : co+nd.k]
}

// appendQueries grows the arena by n zeroed rows (warm sessions splice in
// hyperedges added since the last sync). append's amortised growth keeps a
// session's row arena from being copied on every sync.
func (nd *ndState) appendQueries(n int) {
	nd.mask = append(nd.mask, make(bucketSet, n*nd.w)...)
	nd.cnt = append(nd.cnt, make([]int32, n*nd.k)...)
	nd.dirtyFlag = append(nd.dirtyFlag, make([]uint8, n)...)
}

// ndBuild recomputes the neighbor data from scratch (supersteps 1–2 of
// Figure 3), one row per query. Buckets in `bucket` are below the k of
// newNDState.
func ndBuild(nd *ndState, g *hypergraph.Bipartite, bucket []int32) {
	nd.wEntries = 0
	for q := int32(0); int(q) < g.NumQueries(); q++ {
		r := nd.row(q)
		r.fill(g.QueryNeighbors(q), bucket)
		nd.wEntries += int64(g.QueryWeight(q)) * int64(r.Live())
	}
}

// ndApplyMoveBatch patches the neighbor data in place for the queries
// adjacent to the accepted moves (one PinRow.Transfer per move and query).
// Each dirty query's pre-batch row is snapshotted on first touch and the net
// per-bucket changes are diffed into nd.delta's groups/recs, in first-touch
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
				mask, cnt := nd.rowSlices(q)
				ds.snapMask = append(ds.snapMask, mask...)
				ds.snapCnt = append(ds.snapCnt, cnt...)
			}
			if d := nd.row(q).Transfer(q, m.from, to); d != 0 {
				nd.wEntries += int64(d) * int64(g.QueryWeight(q))
			}
		}
	}
	w, k := nd.w, nd.k
	for i, q := range ds.dirtyQ {
		start := int32(len(ds.recs))
		ds.recs = nd.row(q).Diff(ds.recs, PinRow{mask: ds.snapMask[i*w : (i+1)*w], cnt: ds.snapCnt[i*k : (i+1)*k]})
		if n := int32(len(ds.recs)) - start; n > 0 {
			ds.groups = append(ds.groups, changeGroup{q: q, off: start, n: n})
		}
		nd.dirtyFlag[q] = 0
	}
}
