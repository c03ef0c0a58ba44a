package core

import (
	"fmt"
	"math"
	"math/bits"
)

// candSlots holds SHP-k's candidate lists (see directState): one fixed slot
// of proposalCand per data vertex, carved from a slab of chunks. A vertex's
// metadata is its slot's offset, capacity and list length — three int32s,
// no slice header, no pointer and no heap object of its own.
//
// A slot's capacity is the vertex's candidate bound (directState.candBound):
// every candidate bucket holds a co-member, so a list that is exact for the
// vertex's current bucket never outgrows it. Lists that are not exact — a
// mover's, whose own bucket changed under it, or one a Session's graph edit
// made stale — are marked pending (length −1) until their rebuild; reading
// one fails its bounds check, and nothing patches one.
//
// Offsets address chunks of 1<<shift entries, each at least twice the
// largest slot, allocated one by one — a few hundred KiB fit the gaps a
// collected heap leaves, where one slab the size of the lists would grow it.
// A slot never crosses a chunk end. A carve lays the slots out in vertex
// order and cuts the last chunk to what it holds. Slots taken later (a
// Session's new vertices, and vertices whose bound grew) go to the tail,
// which appends a chunk when the last one is full: growth never copies the
// slab. Relocation abandons the old slot; once abandoned capacity
// outnumbers the live one, compact re-carves everything.
type candSlots struct {
	chunks [][]proposalCand
	shift  uint
	slot   []candSlot
	tail   int64 // next free offset
	live   int64 // Σ capacity of the current slots
	dead   int64 // capacity abandoned below tail
}

type candSlot struct {
	off, size, n int32 // n == candPending: no list until the next rebuild
}

const (
	candPending    = -1
	candChunkShift = 14 // the minimum chunk: 16 Ki entries, 256 KiB
)

// newCandSlots carves one slot of size[v] per vertex, all pending.
func newCandSlots(k int, size []int32) *candSlots {
	cs := &candSlots{shift: max(candChunkShift, uint(bits.Len(uint(k)))+1)}
	cs.carve(size)
	return cs
}

// carve lays out a slot of size[v] for every vertex, in vertex order, in
// fresh chunks — the last one cut to what it holds — and copies over the
// lists that are not pending.
func (cs *candSlots) carve(size []int32) {
	slot := make([]candSlot, len(size))
	var tail, live int64
	for v, s := range size {
		if s == 0 {
			slot[v].n = candPending // at offset 0: chunk 0 always exists
			continue
		}
		if tail>>cs.shift != (tail+int64(s)-1)>>cs.shift {
			tail = (tail>>cs.shift + 1) << cs.shift // would cross a chunk end
		}
		slot[v] = candSlot{off: int32(tail), size: s, n: candPending}
		tail += int64(s)
		live += int64(s)
	}
	if tail > math.MaxInt32 {
		panic(fmt.Errorf("core: candidate lists need %d slots, past the int32 offset range", tail))
	}
	chunks := make([][]proposalCand, max(1, (tail+1<<cs.shift-1)>>cs.shift))
	for i := range chunks {
		chunks[i] = make([]proposalCand, min(1<<cs.shift, tail-int64(i)<<cs.shift))
	}
	for v, old := range cs.slot {
		if slot[v].n = old.n; old.n > 0 {
			o := slot[v].off & (1<<cs.shift - 1)
			copy(chunks[slot[v].off>>cs.shift][o:], cs.list(int32(v)))
		}
	}
	cs.chunks, cs.slot, cs.tail, cs.live, cs.dead = chunks, slot, tail, live, tail-live
}

// list returns v's candidate list, with the slot's capacity.
func (cs *candSlots) list(v int32) []proposalCand {
	s := cs.slot[v]
	o := s.off & (1<<cs.shift - 1)
	return cs.chunks[s.off>>cs.shift][o : o+s.n : o+s.size]
}

// room returns v's slot, empty, for a rebuild to fill.
func (cs *candSlots) room(v int32) []proposalCand {
	s := cs.slot[v]
	o := s.off & (1<<cs.shift - 1)
	return cs.chunks[s.off>>cs.shift][o : o : s.size+o]
}

func (cs *candSlots) setLen(v int32, n int) { cs.slot[v].n = int32(n) }
func (cs *candSlots) pend(v int32)          { cs.slot[v].n = candPending }
func (cs *candSlots) pending(v int32) bool  { return cs.slot[v].n < 0 }

// grow appends n vertices with empty, pending slots.
func (cs *candSlots) grow(n int) {
	for range n {
		cs.slot = append(cs.slot, candSlot{n: candPending})
	}
}

// fit gives v a slot of at least size entries. A larger bound takes a fresh
// slot at the tail and leaves v pending: the caller has marked v for a
// rebuild, so its list is not worth copying.
func (cs *candSlots) fit(v int32, size int32) {
	if size <= cs.slot[v].size {
		return
	}
	c := cs.tail >> cs.shift
	if c < int64(len(cs.chunks)) {
		in := cs.tail & (1<<cs.shift - 1)
		if in+int64(size) <= int64(len(cs.chunks[c])) {
			cs.place(v, cs.tail, size)
			return
		}
		cs.dead += int64(len(cs.chunks[c])) - in // the chunk's unusable end
		c++
	}
	if (c+1)<<cs.shift > math.MaxInt32+1 {
		panic(fmt.Errorf("core: candidate slab of %d chunks is past the int32 offset range", c+1))
	}
	cs.chunks = append(cs.chunks, make([]proposalCand, 1<<cs.shift))
	cs.place(v, int64(len(cs.chunks)-1)<<cs.shift, size)
}

// place moves v's slot to a fresh off, abandoning the old one.
func (cs *candSlots) place(v int32, off int64, size int32) {
	old := cs.slot[v].size
	cs.dead += int64(old)
	cs.live += int64(size - old)
	cs.slot[v] = candSlot{off: int32(off), size: size, n: candPending}
	cs.tail = off + int64(size)
}

// compact re-carves the slab once abandoned capacity outnumbers the live
// one, so a long Session's relocations cannot grow it without bound.
func (cs *candSlots) compact() {
	if cs.dead <= cs.live {
		return
	}
	size := make([]int32, len(cs.slot))
	for v, s := range cs.slot {
		size[v] = s.size
	}
	cs.carve(size)
}
