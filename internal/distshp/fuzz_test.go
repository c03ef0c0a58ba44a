package distshp

// Fuzzers for the codecs that read bytes off the wire or a checkpoint:
// whatever arrives, Decode must either reject it or produce a value whose
// encoding round-trips stably. `go test` runs the seed corpus, so these double
// as regression tests in CI.
//
// The wire has one codec, recordCodec, and one property, checkRecordCodec.
// Each of the five Fuzz*Codec targets before FuzzCheckpointCodec starts the
// fuzzer from one wire kind's envelopes.

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"

	"shp/internal/core"
)

// fuzzWire is the record codec the wire fuzz targets run: a run over fuzzK
// buckets whose queries have at most 16 members.
var fuzzWire = recordCodec{k: fuzzK, maxDeg: 16}

// checkRecordCodec is the wire codec's property: hostile counts and
// truncations fail without appending anything; whatever decodes holds only
// buckets in [0, fuzzK) and delta counts in [0, 16], re-encodes to exactly
// the bytes consumed, sizes to them, and decodes again onto what is already
// there.
func checkRecordCodec(t *testing.T, data []byte) {
	recs, used, err := fuzzWire.Decode(data, nil)
	if err != nil {
		if len(recs) != 0 {
			t.Fatalf("failed decode appended %d records", len(recs))
		}
		return
	}
	if used < 1 || used > len(data) || len(recs) == 0 {
		t.Fatalf("decoded %d records from %d of %d bytes", len(recs), used, len(data))
	}
	for _, r := range recs {
		var bad bool
		switch r.kind {
		case kindBucket:
			_, b := r.bucket()
			bad = b < 0 || b >= fuzzK
		case kindDelta:
			b, cOld, cNew := r.delta()
			bad = b < 0 || b >= fuzzK || min(cOld, cNew) < 0 || max(cOld, cNew) > 16
		}
		if bad {
			t.Fatalf("decoded an out-of-range record %+v", r)
		}
	}
	re, err := fuzzWire.Append(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, data[:used]) {
		t.Fatalf("re-encode mismatch: %x vs %x", re, data[:used])
	}
	if size, err := fuzzWire.Size(recs); err != nil || size != len(re) {
		t.Fatalf("Size %d (%v) != encoded %d", size, err, len(re))
	}
	again, used2, err := fuzzWire.Decode(re, recs)
	if err != nil || used2 != used || !slices.Equal(again[:len(recs)], recs) || !slices.Equal(again[len(recs):], recs) {
		t.Fatalf("decoding onto earlier records: %+v (used %d, err %v)", again, used2, err)
	}
}

func envelopeBytes(recs ...record) []byte {
	buf, _ := fuzzWire.Append(nil, recs)
	return buf
}

func FuzzDeltaCodec(f *testing.F) {
	f.Add(envelopeBytes(deltaRecord(2, 3, 4)))
	f.Add(envelopeBytes(deltaRecord(-1, 0, 1)))
	f.Add(envelopeBytes(deltaRecord(fuzzK, 0, 1)))
	f.Add(envelopeBytes(deltaRecord(2, 17, 1)))
	f.Add([]byte{})
	f.Add([]byte{kindDelta, 2, 3})
	f.Fuzz(checkRecordCodec)
}

// rowViolation describes the first way st's pairs and row break their
// contract for a query whose members sit in buckets (-1 = unregistered),
// over k buckets: pairs that are not the registered members' distinct
// sibling pairs, ascending; a bucket count that differs from the tally of
// buckets; or a mask bit set without a count or missing beside one. It
// returns "" when the state holds.
func rowViolation(st *queryState, buckets []int32, k int) string {
	tally := make([]int32, k)
	var pairs []int32
	for _, b := range buckets {
		if b >= 0 {
			tally[b]++
			pairs = append(pairs, b>>1)
		}
	}
	slices.Sort(pairs)
	if pairs = slices.Compact(pairs); !slices.Equal(st.pairs, pairs) {
		return fmt.Sprintf("pairs %v, want %v", st.pairs, pairs)
	}
	var want []core.NDChange
	for b, c := range tally {
		if l, ok := st.local(int32(b)); ok && st.row.Count(l) != c {
			return fmt.Sprintf("bucket %d: count %d, tally %d", b, st.row.Count(l), c)
		}
		if c > 0 {
			want = append(want, core.NDChange{B: int32(b), CNew: c})
		}
	}
	// Diffing against an empty row walks the mask: it must name exactly the
	// buckets with a pin, and Live must count no other bit.
	got := st.row.Diff(nil, core.PinRow{}.Reshape(2*len(st.pairs)))
	for i, c := range got {
		got[i].B = st.pairs[c.B>>1]<<1 | c.B&1
	}
	if !slices.Equal(got, want) || st.row.Live() != len(want) {
		return fmt.Sprintf("mask walk %v (live %d), want %v", got, st.row.Live(), want)
	}
	return ""
}

// fuzzK is the bucket count the checkpoint fuzz target's states run at.
const fuzzK = 8

// newQuery returns one unregistered query state of the given degree, carved
// the way a run carves its queries', at k buckets.
func newQuery(degree, k int) *queryState {
	return &newQueryStates(1, k, func(int) int { return degree })[0]
}

// queryBytes encodes the state of a query at level whose registry holds
// buckets.
func queryBytes(level int, buckets ...int32) []byte {
	return (&queryState{level: level, memberBucket: buckets}).appendBinary(nil)
}

// decodeVertex decodes one checkpointed vertex state off the front of data —
// a data state, or the state of a query of the given degree, restored — and
// returns its re-encoding, the bytes consumed and the query (nil for data).
func decodeVertex(isData bool, degree int, data []byte) (re []byte, used int, q *queryState, err error) {
	d := &decoder{data: data}
	if isData {
		var st dataState
		st.decode(d, fuzzK, true)
		re = st.appendBinary(nil)
	} else {
		q = newQuery(degree, fuzzK)
		q.decode(d, 0, fuzzK, true)
		re = q.appendBinary(nil)
	}
	return re, len(data) - len(d.data), q, d.err
}

// FuzzCheckpointCodec drives the checkpoint's vertex-state encoders with
// arbitrary bytes: a decode must reject hostile input — a data bucket
// outside [-1, K), a registry entry outside [0, K), a registry whose length
// is not the query's degree — without panicking or over-allocating, a
// restored query's row must be the tally of its registry (empty while it is
// unregistered), and any accepted state must round-trip stably (raw bytes
// may use overlong varints, so the comparison is between the first and
// second encodings, not against the input). Degrees above K/2 take recount's
// packing branch, the rest its sorting one.
func FuzzCheckpointCodec(f *testing.F) {
	ds := (&dataState{
		bucket: 3, moved: true, level: 2,
		sumCur: 3 << 31, sumOth: -1 << 30, gain: 1 << 29,
		propKey: 11, propGain: 1 << 31, propLevel: 2,
	}).appendBinary(nil)
	// One bit of sumCur flipped: still a valid dataState, which is why the
	// snapshot around these states carries a checksum.
	flipped := bytes.Clone(ds)
	flipped[3+2] ^= 0x10 // bucket, moved, level take one byte each; sumCur follows
	f.Add(true, uint8(0), ds)
	f.Add(true, uint8(0), flipped)
	f.Add(false, uint8(4), queryBytes(1, 0, 3, 1, 3))
	f.Add(false, uint8(6), queryBytes(2, 0, 3, 7, 5, 2, 3))
	f.Add(false, uint8(2), queryBytes(-1, 0, 0))
	f.Add(false, uint8(2), queryBytes(2, 0, fuzzK))
	f.Add(false, uint8(3), queryBytes(2, 5))
	f.Add(false, uint8(3), queryBytes(2, 1, -1, 1))
	f.Add(true, uint8(0), []byte{})
	f.Add(false, uint8(1), []byte{2, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1}) // absurd count
	f.Fuzz(func(t *testing.T, isData bool, degree uint8, data []byte) {
		deg := int(degree % 32)
		re, used, st, err := decodeVertex(isData, deg, data)
		if err != nil {
			return // rejected; nothing to check beyond not panicking
		}
		if used > len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		if st != nil && st.level >= 0 {
			if msg := rowViolation(st, st.memberBucket, fuzzK); msg != "" {
				t.Fatalf("decoded row disagrees with its registry %v: %s", st.memberBucket, msg)
			}
		} else if st != nil && (len(st.pairs) != 0 || st.row.Live() != 0) {
			t.Fatalf("unregistered query restored with pairs %v, %d live buckets", st.pairs, st.row.Live())
		}
		re2, used2, _, err := decodeVertex(isData, deg, re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if used2 != len(re) {
			t.Fatalf("re-decode consumed %d of %d bytes", used2, len(re))
		}
		// Compare encodings, not values: the state may hold values that
		// DeepEqual does not see as equal while round-tripping bit-exactly.
		if !bytes.Equal(re2, re) {
			t.Fatalf("unstable canonical encoding: %x vs %x", re2, re)
		}
	})
}

// TestCheckpointCodecRejectsOutOfRangeBuckets checks that a vertex state
// holding a bucket the run's rows have no slot for — or, in a query's
// registry, no bucket at all — fails its decode instead of crashing the
// resumed run, and that both ends of each range decode.
func TestCheckpointCodecRejectsOutOfRangeBuckets(t *testing.T) {
	for _, mb := range [][]int32{{0, fuzzK}, {-2, 1}, {1, 1 << 30}, {-1, 1}} {
		_, _, _, err := decodeVertex(false, len(mb), queryBytes(2, mb...))
		if re := new(RegistryError); !errors.As(err, &re) || re.Len != uint64(len(mb)) {
			t.Errorf("registry %v decoded at K = %d: %v", mb, fuzzK, err)
		}
	}
	for _, b := range []int32{fuzzK, -2} {
		if _, _, _, err := decodeVertex(true, 0, (&dataState{bucket: b, level: 2}).appendBinary(nil)); err == nil {
			t.Errorf("data bucket %d decoded at K = %d", b, fuzzK)
		}
	}
	_, _, st, err := decodeVertex(false, 3, queryBytes(2, 0, fuzzK-1, fuzzK-1))
	if err != nil {
		t.Fatal(err)
	}
	if msg := rowViolation(st, []int32{0, fuzzK - 1, fuzzK - 1}, fuzzK); msg != "" {
		t.Fatal(msg)
	}
	if _, _, _, err := decodeVertex(true, 0, (&dataState{bucket: -1, level: -1}).appendBinary(nil)); err != nil {
		t.Fatal(err)
	}
}

// TestRecordCodecRejectsOutOfRange checks that a wire frame or checkpointed
// message holding a bucket the run has no row slot for, or a delta count no
// query can reach, fails its decode instead of crashing the receiver, and
// that both ends of each range decode.
func TestRecordCodecRejectsOutOfRange(t *testing.T) {
	for _, r := range []record{
		bucketRecord(3, fuzzK), bucketRecord(3, -1),
		deltaRecord(fuzzK, 0, 1), deltaRecord(-1, 1, 0),
		deltaRecord(2, -1, 0), deltaRecord(2, 0, 17),
	} {
		if recs, _, err := fuzzWire.Decode(envelopeBytes(r), nil); err == nil {
			t.Errorf("%+v decoded as %+v", r, recs)
		}
	}
	batch := envelopeBytes(bucketRecord(1, 0), bucketRecord(2, fuzzK))
	if recs, _, err := fuzzWire.Decode(batch, []record{gainRecord(1, 2)}); err == nil || len(recs) != 1 {
		t.Errorf("batch with a bucket of K: decoded %+v (err %v)", recs, err)
	}
	for _, r := range []record{bucketRecord(3, 0), bucketRecord(3, fuzzK-1), deltaRecord(fuzzK-1, 16, 0), deltaRecord(0, 0, 16)} {
		if _, _, err := fuzzWire.Decode(envelopeBytes(r), nil); err != nil {
			t.Errorf("%+v: %v", r, err)
		}
	}
}

func FuzzDeltaBatchCodec(f *testing.F) {
	two := envelopeBytes(deltaRecord(2, 0, 1), deltaRecord(3, 1, 0))
	f.Add(two)
	f.Add(envelopeBytes(deltaRecord(2, 3, 4), deltaRecord(3, 1, 0), deltaRecord(0, 0, 9)))
	f.Add([]byte{kindDeltaBatch, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0})          // a batch of one
	f.Add(two[:len(two)-1])                                                       // truncated last record
	f.Add([]byte{kindDeltaBatch, 200})                                            // truncated uvarint count
	f.Add([]byte{kindDeltaBatch, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1}) // absurd count
	f.Fuzz(checkRecordCodec)
}

func FuzzBucketCodec(f *testing.F) {
	f.Add(envelopeBytes(bucketRecord(7, 3)))
	f.Add(envelopeBytes(bucketRecord(0, -1)))
	f.Add(envelopeBytes(bucketRecord(7, fuzzK)))
	f.Add([]byte{})
	f.Add([]byte{kindBucket, 2, 3})
	f.Fuzz(checkRecordCodec)
}

func FuzzBucketBatchCodec(f *testing.F) {
	two := envelopeBytes(bucketRecord(2, 1), bucketRecord(4, 0))
	f.Add(two)
	f.Add(envelopeBytes(bucketRecord(2, 3), bucketRecord(9, 0), bucketRecord(0, 7)))
	f.Add([]byte{kindBucketBatch, 0})                                              // an empty batch
	f.Add(two[:len(two)-1])                                                        // truncated last record
	f.Add([]byte{kindBucketBatch, 200})                                            // truncated uvarint count
	f.Add([]byte{kindBucketBatch, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1}) // absurd count
	f.Fuzz(checkRecordCodec)
}

func FuzzGainCodec(f *testing.F) {
	f.Add(envelopeBytes(gainRecord(3, -1)))
	f.Add([]byte{})
	f.Add([]byte{kindGain, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(checkRecordCodec)
}

// sampleSchedule is a master state at phase 3, where a restore recomputes
// the move probabilities, with every section of the snapshot non-empty.
func sampleSchedule() *schedule {
	s := &schedule{
		opts: Options{K: 8, Epsilon: 0.05}, levels: 3, ideal: 40,
		level: 1, iter: 2, phase: 3, iterations: 5, rebuildNext: true, ndEntries: 60,
		hists:   map[uint64]*core.DirHist{},
		weights: map[int32]int64{0: 41, 1: 37, 2: -3},
		history: []IterRecord{{Level: 0, Iter: 0, Moved: 12, Fanout: 1.5}, {Level: 1, Iter: 1, Moved: 3, Fanout: 1.25}},
	}
	unit := math.Ldexp(0.5, -32)
	for key, gains := range map[uint64][]int64{0: {1 << 32, -1 << 31}, 1: {3 << 32}, 3: {-1 << 34, 1 << 30, 3 << 31}} {
		h := &core.DirHist{}
		for _, g := range gains {
			h.Add(g, unit)
		}
		s.hists[key] = h
	}
	s.match()
	return s
}

// FuzzSnapshotValueCodecs drives the master's snapshot, the blob the
// checkpoint carries beside the workers' vertex states: hostile counts and
// truncations must be rejected without a panic or an allocation the payload
// does not pay for, a rejected blob must leave the schedule it was restored
// into exactly as it was, and an accepted one must re-encode stably.
func FuzzSnapshotValueCodecs(f *testing.F) {
	valid := sampleSchedule().appendBinary(nil)
	phase0 := sampleSchedule()
	phase0.phase, phase0.rebuildNext = 0, false
	outOfRange := sampleSchedule()
	outOfRange.level = 3 // == levels
	// level, iter, phase, iterations, rebuild flag, ndEntries: one byte each.
	const header = 6
	f.Add(valid)
	f.Add(phase0.appendBinary(nil))
	f.Add(valid[:len(valid)-3])                                                                // a valid prefix, then a truncated history
	f.Add(valid[:header+4])                                                                    // truncated inside the first histogram
	f.Add(append(bytes.Clone(valid[:header]), 255, 255, 255, 255, 255, 255, 255, 255, 255, 1)) // absurd histogram count
	f.Add(append(bytes.Clone(valid[:len(valid)-2*11-1]), 200, 200, 200, 200, 1))               // absurd history count
	f.Add(outOfRange.appendBinary(nil))
	f.Add(append(bytes.Clone(valid), 0)) // a trailing byte
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := sampleSchedule()
		before, probs := s.appendBinary(nil), s.probs
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := s.restoreBinary(data)
		runtime.ReadMemStats(&m1)
		// A histogram costs 2 KB and its move probabilities 2 KB more, for
		// at least two bytes of payload.
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 64<<10+4<<10*uint64(len(data)) {
			t.Fatalf("restoring %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			if !bytes.Equal(s.appendBinary(nil), before) || !maps.Equal(s.probs, probs) {
				t.Fatalf("rejected blob (%v) changed the schedule", err)
			}
			return
		}
		re := s.appendBinary(nil)
		again := sampleSchedule()
		if err := again.restoreBinary(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if re2 := again.appendBinary(nil); !bytes.Equal(re2, re) {
			t.Fatalf("unstable canonical encoding: %x vs %x", re2, re)
		}
	})
}
