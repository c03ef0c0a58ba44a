package core

import "slices"

// Frontier ordering. The per-iteration frontiers the incremental engines
// maintain must be ascending — that is the canonical order the bit-identity
// discipline pins for bin updates and gain passes — but the collection
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
