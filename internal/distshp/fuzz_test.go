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
	"maps"
	"runtime"
	"slices"
	"testing"

	"shp/internal/core"
	"shp/internal/pregel"
)

// checkRecordCodec is the wire codec's property: hostile counts and
// truncations fail without appending anything; whatever decodes re-encodes
// to exactly the bytes consumed, sizes to them, and decodes again onto what
// is already there.
func checkRecordCodec(t *testing.T, data []byte) {
	recs, used, err := (recordCodec{}).Decode(data, nil)
	if err != nil {
		if len(recs) != 0 {
			t.Fatalf("failed decode appended %d records", len(recs))
		}
		return
	}
	if used < 1 || used > len(data) || len(recs) == 0 {
		t.Fatalf("decoded %d records from %d of %d bytes", len(recs), used, len(data))
	}
	re, err := (recordCodec{}).Append(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, data[:used]) {
		t.Fatalf("re-encode mismatch: %x vs %x", re, data[:used])
	}
	if size, err := (recordCodec{}).Size(recs); err != nil || size != len(re) {
		t.Fatalf("Size %d (%v) != encoded %d", size, err, len(re))
	}
	again, used2, err := (recordCodec{}).Decode(re, recs)
	if err != nil || used2 != used || !slices.Equal(again[:len(recs)], recs) || !slices.Equal(again[len(recs):], recs) {
		t.Fatalf("decoding onto earlier records: %+v (used %d, err %v)", again, used2, err)
	}
}

func envelopeBytes(recs ...record) []byte {
	buf, _ := (recordCodec{}).Append(nil, recs)
	return buf
}

func FuzzDeltaCodec(f *testing.F) {
	f.Add(envelopeBytes(deltaRecord(2, 3, 4)))
	f.Add(envelopeBytes(deltaRecord(-1, 0, 1)))
	f.Add([]byte{})
	f.Add([]byte{kindDelta, 2, 3})
	f.Fuzz(checkRecordCodec)
}

// FuzzCheckpointCodec drives the checkpoint vertex-state codecs with
// arbitrary bytes: Decode must reject hostile input without panicking or
// over-allocating, and any accepted value must round-trip stably through
// Append/Decode (raw bytes may use overlong varints, so the comparison is
// between the first and second encodings, not against the input).
func FuzzCheckpointCodec(f *testing.F) {
	ds, _ := (dataStateCodec{}).Append(nil, &dataState{
		d: 7, bucket: 3, moved: true, level: 2,
		sumCur: 1.5, sumOth: -0.25, gain: 0.125,
		propKey: 11, propGain: 0.5, propLevel: 2,
	})
	qsReg, _ := (queryStateCodec{}).Append(nil, &queryState{
		q: 4, level: 1,
		ent:          []core.NDEntry{{B: 0, C: 2}, {B: 3, C: 1}},
		memberBucket: []int32{0, 3, 3},
		prevLen:      2,
	})
	qsNil, _ := (queryStateCodec{}).Append(nil, &queryState{q: 9, memberBucket: nil})
	// One mantissa bit of sumCur flipped: still a valid dataState, which is
	// why the snapshot around these codecs carries a checksum.
	flipped := bytes.Clone(ds)
	flipped[4+2] ^= 0x10 // d, bucket, moved, level take one byte each; sumCur follows
	f.Add(true, ds)
	f.Add(true, flipped)
	f.Add(false, qsReg)
	f.Add(false, qsNil)
	f.Add(true, []byte{})
	f.Add(false, []byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 1}) // absurd count
	f.Fuzz(func(t *testing.T, isData bool, data []byte) {
		var codec pregel.ValueCodec
		if isData {
			codec = dataStateCodec{}
		} else {
			codec = queryStateCodec{}
		}
		m, used, err := codec.Decode(data)
		if err != nil {
			return // rejected; nothing to check beyond not panicking
		}
		if used > len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		re, err := codec.Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if codec.Size(m) != len(re) {
			t.Fatalf("Size %d != encoded %d", codec.Size(m), len(re))
		}
		m2, used2, err := codec.Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if used2 != len(re) {
			t.Fatalf("re-decode consumed %d of %d bytes", used2, len(re))
		}
		// Compare encodings, not values: floats may carry NaN payloads that
		// defeat DeepEqual while round-tripping bit-exactly.
		re2, err := codec.Append(nil, m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re2, re) {
			t.Fatalf("unstable canonical encoding: %x vs %x", re2, re)
		}
	})
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
	f.Add(envelopeBytes(gainRecord(1.5, -0.25)))
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
	for key, gains := range map[uint64][]float64{0: {0.5, -0.25}, 1: {1.5}, 3: {-2, 0.125, 0.75}} {
		h := &core.DirHist{}
		for _, g := range gains {
			h.Add(g)
		}
		s.hists[key] = h
	}
	s.match()
	return s
}

// FuzzSnapshotValueCodecs drives the master's snapshot, the one value the
// checkpoint carries besides the vertex states: hostile counts and
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
