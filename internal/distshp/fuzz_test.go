package distshp

// Fuzzers for the delta-message wire codecs: whatever bytes arrive, Decode
// must either reject the frame (truncation) or produce a value that
// round-trips stably through Append/Size. `go test` runs the seed corpus,
// so these double as regression tests in CI.

import (
	"bytes"
	"reflect"
	"testing"

	"shp/internal/core"
	"shp/internal/pregel"
)

func FuzzDeltaCodec(f *testing.F) {
	f.Add(appendDelta(nil, msgDelta{Bucket: 2, COld: 3, CNew: 4}))
	f.Add(appendDelta(nil, msgDelta{Bucket: -1, COld: 0, CNew: 1}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, used, err := (deltaCodec{}).Decode(data)
		if err != nil {
			if len(data) >= deltaWireSize {
				t.Fatalf("rejected a full-size frame: %v", err)
			}
			return
		}
		if len(data) < deltaWireSize {
			t.Fatalf("accepted a truncated frame of %d bytes", len(data))
		}
		if used != deltaWireSize {
			t.Fatalf("consumed %d bytes, want %d", used, deltaWireSize)
		}
		// The fixed little-endian encoding is canonical: re-encoding the
		// decoded record must reproduce the consumed bytes exactly.
		re, err := (deltaCodec{}).Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, data[:used]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data[:used])
		}
		if (deltaCodec{}).Size(m) != len(re) {
			t.Fatalf("Size %d != encoded %d", (deltaCodec{}).Size(m), len(re))
		}
	})
}

// FuzzCheckpointCodec drives the checkpoint vertex-state codecs with
// arbitrary bytes: Decode must reject hostile input without panicking or
// over-allocating, and any accepted value must round-trip stably through
// Append/Decode (raw bytes may use overlong varints, so the comparison is
// value-level, like FuzzDeltaBatchCodec).
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
		var codec pregel.Codec
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
	one, _ := (deltaBatchCodec{}).Append(nil, &msgDeltaBatch{recs: []msgDelta{{Bucket: 2, COld: 0, CNew: 1}}})
	three, _ := (deltaBatchCodec{}).Append(nil, &msgDeltaBatch{recs: []msgDelta{
		{Bucket: 2, COld: 3, CNew: 4},
		{Bucket: 3, COld: 1, CNew: 0},
		{Bucket: 0, COld: 0, CNew: 9},
	}})
	empty, _ := (deltaBatchCodec{}).Append(nil, &msgDeltaBatch{})
	f.Add(one)
	f.Add(three)
	f.Add(empty)
	f.Add(one[:len(one)-1])                                       // truncated last record
	f.Add([]byte{200})                                            // truncated uvarint count
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 1}) // absurd count
	f.Fuzz(func(t *testing.T, data []byte) {
		m, used, err := (deltaBatchCodec{}).Decode(data)
		if err != nil {
			return // rejected; nothing to check beyond not panicking
		}
		if used > len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		batch := m.(*msgDeltaBatch)
		// Value round trip: the count uvarint may arrive in a non-canonical
		// overlong form, so compare decoded values, not raw bytes.
		re, err := (deltaBatchCodec{}).Append(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		if (deltaBatchCodec{}).Size(batch) != len(re) {
			t.Fatalf("Size %d != encoded %d", (deltaBatchCodec{}).Size(batch), len(re))
		}
		m2, used2, err := (deltaBatchCodec{}).Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if used2 != len(re) || !reflect.DeepEqual(m2, m) {
			t.Fatalf("unstable round trip: %+v vs %+v", m2, m)
		}
	})
}

func FuzzBucketCodec(f *testing.F) {
	f.Add(appendBucket(nil, msgBucket{Data: 7, New: 3}))
	f.Add(appendBucket(nil, msgBucket{Data: 0, New: -1}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, used, err := (bucketCodec{}).Decode(data)
		if err != nil {
			if len(data) >= bucketWireSize {
				t.Fatalf("rejected a full-size frame: %v", err)
			}
			return
		}
		if len(data) < bucketWireSize {
			t.Fatalf("accepted a truncated frame of %d bytes", len(data))
		}
		if used != bucketWireSize {
			t.Fatalf("consumed %d bytes, want %d", used, bucketWireSize)
		}
		re, err := (bucketCodec{}).Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, data[:used]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data[:used])
		}
		if (bucketCodec{}).Size(m) != len(re) {
			t.Fatalf("Size %d != encoded %d", (bucketCodec{}).Size(m), len(re))
		}
	})
}

func FuzzBucketBatchCodec(f *testing.F) {
	one, _ := (bucketBatchCodec{}).Append(nil, &msgBucketBatch{recs: []msgBucket{{Data: 2, New: 1}}})
	three, _ := (bucketBatchCodec{}).Append(nil, &msgBucketBatch{recs: []msgBucket{
		{Data: 2, New: 3},
		{Data: 9, New: 0},
		{Data: 0, New: 7},
	}})
	empty, _ := (bucketBatchCodec{}).Append(nil, &msgBucketBatch{})
	f.Add(one)
	f.Add(three)
	f.Add(empty)
	f.Add(one[:len(one)-1])                                       // truncated last record
	f.Add([]byte{200})                                            // truncated uvarint count
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 1}) // absurd count
	f.Fuzz(func(t *testing.T, data []byte) {
		m, used, err := (bucketBatchCodec{}).Decode(data)
		if err != nil {
			return // rejected; nothing to check beyond not panicking
		}
		if used > len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		batch := m.(*msgBucketBatch)
		// Value round trip: the count uvarint may arrive overlong, so
		// compare decoded values, not raw bytes.
		re, err := (bucketBatchCodec{}).Append(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		if (bucketBatchCodec{}).Size(batch) != len(re) {
			t.Fatalf("Size %d != encoded %d", (bucketBatchCodec{}).Size(batch), len(re))
		}
		m2, used2, err := (bucketBatchCodec{}).Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if used2 != len(re) || !reflect.DeepEqual(m2, m) {
			t.Fatalf("unstable round trip: %+v vs %+v", m2, m)
		}
	})
}

func FuzzGainCodec(f *testing.F) {
	full, _ := (gainCodec{}).Append(nil, &msgGain{Cur: 1.5, Oth: -0.25})
	f.Add(full)
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, used, err := (gainCodec{}).Decode(data)
		if err != nil {
			if len(data) >= 16 {
				t.Fatalf("rejected a full-size frame: %v", err)
			}
			return
		}
		if len(data) < 16 {
			t.Fatalf("accepted a truncated frame of %d bytes", len(data))
		}
		if used != 16 {
			t.Fatalf("consumed %d bytes, want 16", used)
		}
		// Raw IEEE bits both ways: even NaN payloads must survive exactly.
		re, err := (gainCodec{}).Append(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, data[:used]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data[:used])
		}
	})
}

// FuzzSnapshotValueCodecs drives every aggregated-value codec the checkpoint
// registry (newSnapshotRegistry) carries besides the vertex states: hostile
// bytes must be rejected or produce a value whose canonical encoding is
// stable through a second Decode/Append round.
func FuzzSnapshotValueCodecs(f *testing.F) {
	codecs := []pregel.Codec{
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
