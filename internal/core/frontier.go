package core

import "slices"

// activeSet is an incremental refiner's pending work (SHP-2's bisection and
// SHP-k's directState embed one): a mark per vertex and, while
// frontierValid, the ascending list of exactly the marked vertices, which
// passes and the next clear walk instead of all of |D|. A patched batch
// builds the list (clearMarks, touch, seal); marking everyone and marking
// from outside a batch (invalidate) leave it stale.
type activeSet struct {
	active        []uint8 // activeSelect or activeRebuild; 0 = nothing pending
	frontier      []int32
	frontierValid bool
	frontScratch  []int32 // radix-sort ping-pong buffer
}

const (
	activeSelect  = 1 // accumulators patched: re-derive the gain/argmax only
	activeRebuild = 2 // bucket changed (or full sweep): rebuild state
)

func (a *activeSet) markAllActive() {
	for i := range a.active {
		a.active[i] = activeRebuild
	}
	a.frontierValid = false
}

// clearMarks unmarks everyone and empties the list. It returns the vertex
// visits that cost, which the refiners charge as scan work.
func (a *activeSet) clearMarks() int64 {
	visits := int64(len(a.active))
	if a.frontierValid {
		visits = int64(len(a.frontier))
		for _, v := range a.frontier {
			a.active[v] = 0
		}
	} else {
		clear(a.active)
	}
	a.frontier = a.frontier[:0]
	return visits
}

// touch sets v's mark, listing v on its first mark since clearMarks.
func (a *activeSet) touch(v int32, level uint8) {
	if a.active[v] == 0 {
		a.frontier = append(a.frontier, v)
	}
	a.active[v] = level
}

// seal sorts the touched vertices of [0, n) into the canonical ascending
// order, and the list backs the marks again.
func (a *activeSet) seal(n int) {
	a.sortAscending(a.frontier, n)
	a.frontierValid = true
}

func (a *activeSet) invalidate() { a.frontierValid = false }

// sortAscending sorts list, whose values lie in [0, n), through the set's
// scratch (see "Frontier ordering" below).
func (a *activeSet) sortAscending(list []int32, n int) {
	if cap(a.frontScratch) < len(list) {
		a.frontScratch = make([]int32, len(list))
	}
	radixSortInt32(list, a.frontScratch[:cap(a.frontScratch)], int32(n))
}

// Frontier ordering. The per-iteration frontiers the incremental engines
// maintain must be ascending — the canonical order of gain passes, bin
// updates and the move batch's apply — but the collection
// buffers assemble them unsorted (members of distinct dirty queries
// interleave). A comparison sort is O(|F| log |F|) with a ~50 ns/element
// constant and dominates hub-heavy batches, so frontiers are ordered with
// counting passes instead, keeping assembly cost proportional to the
// frontier itself. The coin phase's decided list, collected bin by bin, is
// ordered the same way.

const (
	frontierRadixBits = 11
	frontierRadixSize = 1 << frontierRadixBits
	frontierRadixMask = frontierRadixSize - 1
	// Below this size the per-pass count-array clears cost more than a
	// comparison sort of the whole slice.
	frontierRadixMin = 128
)

// radixSortInt32 sorts a ascending. Values must lie in [0, bound). Small
// slices fall through to a comparison sort; larger ones take LSD counting
// passes over 11-bit digits — O(len(a)) per pass, with the pass count set
// by bound, not by len(a). scratch must be at least len(a) long; the sorted
// result always ends up in a.
func radixSortInt32(a, scratch []int32, bound int32) {
	if len(a) < frontierRadixMin {
		slices.Sort(a)
		return
	}
	src, dst := a, scratch[:len(a)]
	var count [frontierRadixSize]int32
	for shift := 0; bound>>shift > 0; shift += frontierRadixBits {
		for i := range count {
			count[i] = 0
		}
		for _, v := range src {
			count[(v>>shift)&frontierRadixMask]++
		}
		var sum int32
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for _, v := range src {
			d := (v >> shift) & frontierRadixMask
			dst[count[d]] = v
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}
