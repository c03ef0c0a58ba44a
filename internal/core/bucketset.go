package core

import "math/bits"

// bucketSet is a ⌈k/64⌉-word bitset over bucket ids: a neighbor-data row's
// connectivity mask, and the occupancy record of the k-indexed accumulators
// a rebuild fills (rebuildVertex's acc/refs, marked by OR-ing in the masks
// of the vertex's queries). Marking a bucket is one OR; draining visits
// exactly the marked buckets in ascending id order — the canonical candidate
// and neighbor-data order — so neither the accumulators nor the result need
// a clear sweep or a sort.
type bucketSet []uint64

// newBucketSet returns an empty set over k buckets.
func newBucketSet(k int) bucketSet {
	return make(bucketSet, (k+63)>>6)
}

func (s bucketSet) add(b int32) { s[b>>6] |= 1 << (uint32(b) & 63) }

// count returns the number of marked buckets.
func (s bucketSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// drain yields the marked buckets in ascending order and leaves the set
// empty. It is a range-over-func iterator: `for b := range s.drain`. The
// loop body is expected to zero the bucket's accumulators, so set and
// accumulators are clean for the next fill; a loop that breaks early leaves
// the unvisited buckets marked.
func (s bucketSet) drain(yield func(b int32) bool) {
	for wi, w := range s {
		for w != 0 {
			b := int32(wi<<6 | bits.TrailingZeros64(w))
			w &= w - 1
			s[wi] = w
			if !yield(b) {
				return
			}
		}
	}
}
