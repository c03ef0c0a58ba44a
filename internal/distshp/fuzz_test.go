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

// FuzzSnapshotValueCodecs drives every aggregated-value codec the checkpoint
// registry (newSnapshotRegistry) carries besides the vertex states: hostile
// bytes must be rejected or produce a value whose canonical encoding is
// stable through a second Decode/Append round.
func FuzzSnapshotValueCodecs(f *testing.F) {
	codecs := []pregel.ValueCodec{
		intCodec{}, boolCodec{}, pregel.Int64Codec{},
		probsCodec{}, histMapCodec{}, weightMapCodec{},
	}
	iv, _ := (intCodec{}).Append(nil, int(-7))
	bv, _ := (boolCodec{}).Append(nil, true)
	lv, _ := (pregel.Int64Codec{}).Append(nil, int64(1<<40))
	pv, _ := (probsCodec{}).Append(nil, probsValue{3: &core.ProbTable{}})
	hp := &histPair{}
	hp.hist.Add(0.5)
	hv, _ := (histMapCodec{}).Append(nil, map[uint64]*histPair{5: hp})
	wv, _ := (weightMapCodec{}).Append(nil, map[int32]int64{1: 42, -2: 7})
	f.Add(0, iv)
	f.Add(1, bv)
	f.Add(2, lv)
	f.Add(3, pv)
	f.Add(4, hv)
	f.Add(5, wv)
	f.Add(3, []byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 1}) // absurd count
	f.Add(4, []byte{200})                                            // truncated uvarint
	f.Fuzz(func(t *testing.T, which int, data []byte) {
		codec := codecs[((which%len(codecs))+len(codecs))%len(codecs)]
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
		re2, err := codec.Append(nil, m2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re2, re) {
			t.Fatalf("unstable canonical encoding: %x vs %x", re2, re)
		}
	})
}
