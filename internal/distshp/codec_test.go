package distshp

import (
	"reflect"
	"slices"
	"testing"

	"shp/internal/pregel"
)

func roundTrip(t *testing.T, c pregel.Codec, m pregel.Message) {
	t.Helper()
	buf, err := c.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != c.Size(m) {
		t.Fatalf("%T: Size = %d but Append wrote %d bytes", m, c.Size(m), len(buf))
	}
	got, used, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf) {
		t.Fatalf("%T: decode consumed %d of %d bytes", m, used, len(buf))
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("%T round trip: got %+v, want %+v", m, got, m)
	}
}

func TestWireCodecs(t *testing.T) {
	roundTrip(t, bucketCodec{}, msgBucket{Data: 7, New: 3})
	roundTrip(t, bucketCodec{}, msgBucket{Data: 1 << 30, New: 6})
	roundTrip(t, gainCodec{}, &msgGain{Cur: 1.5, Oth: -2.25})
	roundTrip(t, gainCodec{}, &msgGain{})
	roundTrip(t, bucketBatchCodec{}, &msgBucketBatch{recs: []msgBucket{
		{Data: 1, New: 0},
		{Data: 2, New: 1},
		{Data: 3, New: 1},
	}})
	roundTrip(t, deltaCodec{}, msgDelta{Bucket: 4, COld: 2, CNew: 3})
	roundTrip(t, deltaCodec{}, msgDelta{Bucket: 1 << 29, COld: 0, CNew: 7})
	roundTrip(t, deltaBatchCodec{}, &msgDeltaBatch{recs: []msgDelta{
		{Bucket: 2, COld: 3, CNew: 4},
		{Bucket: 3, COld: 1, CNew: 0},
		{Bucket: 2, COld: 0, CNew: 1},
	}})
	roundTrip(t, deltaBatchCodec{}, &msgDeltaBatch{recs: []msgDelta{}})
}

func TestCodecTruncation(t *testing.T) {
	if _, _, err := (bucketCodec{}).Decode([]byte{1, 2}); err == nil {
		t.Fatal("truncated msgBucket should fail")
	}
	if _, _, err := (gainCodec{}).Decode(make([]byte, 15)); err == nil {
		t.Fatal("truncated msgGain should fail")
	}
	if _, _, err := (bucketBatchCodec{}).Decode([]byte{200}); err == nil {
		t.Fatal("truncated batch count should fail")
	}
	if _, _, err := (bucketBatchCodec{}).Decode([]byte{3, 0, 0}); err == nil {
		t.Fatal("batch count exceeding payload should fail")
	}
	if _, _, err := (deltaCodec{}).Decode(make([]byte, deltaWireSize-1)); err == nil {
		t.Fatal("truncated msgDelta should fail")
	}
	if _, _, err := (deltaBatchCodec{}).Decode(nil); err == nil {
		t.Fatal("empty msgDeltaBatch frame should fail")
	}
	if _, _, err := (deltaBatchCodec{}).Decode([]byte{200}); err == nil {
		t.Fatal("truncated delta batch count should fail")
	}
	if _, _, err := (deltaBatchCodec{}).Decode([]byte{2, 0, 0, 0}); err == nil {
		t.Fatal("delta batch count exceeding payload should fail")
	}
	buf, err := (deltaBatchCodec{}).Append(nil, &msgDeltaBatch{recs: []msgDelta{{Bucket: 2, COld: 0, CNew: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (deltaBatchCodec{}).Decode(buf[:len(buf)-1]); err == nil {
		t.Fatal("delta batch with truncated last record should fail")
	}
}

// TestCombineSemantics pins the fold for each kind and the ownership
// contract: a gain or batch accumulator is updated in place and returned
// (same pointer), two bare records start a batch, and b is only read.
func TestCombineSemantics(t *testing.T) {
	acc := &msgGain{Cur: 1, Oth: 2}
	in := &msgGain{Cur: 3, Oth: 4}
	g := combine(acc, in).(*msgGain)
	if g != acc || g.Cur != 4 || g.Oth != 6 {
		t.Fatalf("msgGain combine = %+v (in place: %v)", g, g == acc)
	}
	if *in != (msgGain{Cur: 3, Oth: 4}) {
		t.Fatalf("combine mutated b: %+v", in)
	}
	a := msgBucket{Data: 1}
	b := msgBucket{Data: 2}
	c := msgBucket{Data: 3}
	first := combine(a, b).(*msgBucketBatch)
	batch := combine(first, c).(*msgBucketBatch)
	if batch != first || len(batch.recs) != 3 || batch.recs[0].Data != 1 || batch.recs[2].Data != 3 {
		t.Fatalf("bucket batching = %+v (in place: %v)", batch.recs, batch == first)
	}
	other := combine(c, msgBucket{Data: 4}).(*msgBucketBatch)
	merged := combine(combine(a, b), other).(*msgBucketBatch)
	if len(merged.recs) != 4 {
		t.Fatalf("batch-batch combine = %+v", merged.recs)
	}
	// b's records were copied, not adopted: growing the result must not
	// reach back into b, and b reads as it did.
	merged.recs = append(merged.recs[:2], msgBucket{Data: 9}, msgBucket{Data: 9})
	if len(other.recs) != 2 || other.recs[0].Data != 3 || other.recs[1].Data != 4 {
		t.Fatalf("combine retained or mutated b: %+v", other.recs)
	}
}

// TestCombineDeltaRecords checks combiner behavior on merged delta records:
// any association order over the four record/batch pairings must flatten to
// the same batch with every record exactly once, in send order — merging
// already-merged batches neither drops nor duplicates records.
func TestCombineDeltaRecords(t *testing.T) {
	r := func(i int32) msgDelta { return msgDelta{Bucket: i % 4, COld: i, CNew: i + 1} }
	want := []msgDelta{r(1), r(2), r(3), r(4)}
	cases := []struct {
		name string
		got  pregel.Message
	}{
		{"left-assoc (record+record, batch+record)", combine(combine(combine(r(1), r(2)), r(3)), r(4))},
		{"right-assoc (record+batch)", combine(r(1), combine(r(2), combine(r(3), r(4))))},
		{"balanced (batch+batch)", combine(combine(r(1), r(2)), combine(r(3), r(4)))},
	}
	for _, tc := range cases {
		if got := tc.got.(*msgDeltaBatch).recs; !slices.Equal(got, want) {
			t.Fatalf("%s: records %+v, want %+v", tc.name, got, want)
		}
	}
	// Re-merging merged batches keeps the flat record multiset intact, and
	// leaves the right-hand batches as they were.
	left := combine(r(1), r(2)).(*msgDeltaBatch)
	right := combine(r(3), r(4)).(*msgDeltaBatch)
	tail := combine(r(5), r(6)).(*msgDeltaBatch)
	again := combine(combine(left, right), tail).(*msgDeltaBatch)
	if again != left {
		t.Fatal("batch+batch did not fold into the left accumulator")
	}
	if want := []msgDelta{r(1), r(2), r(3), r(4), r(5), r(6)}; !slices.Equal(again.recs, want) {
		t.Fatalf("re-merged batches hold %+v, want %+v", again.recs, want)
	}
	if !slices.Equal(right.recs, []msgDelta{r(3), r(4)}) || !slices.Equal(tail.recs, []msgDelta{r(5), r(6)}) {
		t.Fatalf("combine mutated b: %+v, %+v", right.recs, tail.recs)
	}
}

// TestCombineFoldsDecodedWithLocal is the receiver-side pass across source
// workers: one worker's batch arrives as the decoded bytes of a frame, the
// other was built in this process, and either may be the accumulator.
func TestCombineFoldsDecodedWithLocal(t *testing.T) {
	r := func(i int32) msgDelta { return msgDelta{Bucket: i % 4, COld: i, CNew: i + 1} }
	decoded := func(recs ...msgDelta) *msgDeltaBatch {
		t.Helper()
		buf, err := (deltaBatchCodec{}).Append(nil, &msgDeltaBatch{recs: recs})
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := (deltaBatchCodec{}).Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		return m.(*msgDeltaBatch)
	}
	want := []msgDelta{r(1), r(2), r(3), r(4)}
	if got := combine(decoded(r(1), r(2)), combine(r(3), r(4))).(*msgDeltaBatch).recs; !slices.Equal(got, want) {
		t.Fatalf("decoded <- local: %+v, want %+v", got, want)
	}
	wire := decoded(r(3), r(4))
	if got := combine(combine(r(1), r(2)), wire).(*msgDeltaBatch).recs; !slices.Equal(got, want) {
		t.Fatalf("local <- decoded: %+v, want %+v", got, want)
	}
	if !slices.Equal(wire.recs, []msgDelta{r(3), r(4)}) {
		t.Fatalf("combine mutated the decoded batch: %+v", wire.recs)
	}
	// A lone record from one worker meets a decoded batch from the next.
	if got := combine(r(1), decoded(r(2), r(3), r(4))).(*msgDeltaBatch).recs; !slices.Equal(got, want) {
		t.Fatalf("record <- decoded: %+v, want %+v", got, want)
	}
	gain, _, err := (gainCodec{}).Decode(mustAppend(t, gainCodec{}, &msgGain{Cur: 0.5, Oth: 0.25}))
	if err != nil {
		t.Fatal(err)
	}
	if g := combine(&msgGain{Cur: 1, Oth: 2}, gain).(*msgGain); g.Cur != 1.5 || g.Oth != 2.25 {
		t.Fatalf("local gain <- decoded gain = %+v", g)
	}
}

func mustAppend(t *testing.T, c pregel.Codec, m pregel.Message) []byte {
	t.Helper()
	buf, err := c.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestCombineRejectsMixedKinds pins the protocol invariant the combiner
// enforces: a vertex is either rebuilding (gains only) or clean (deltas
// only) within a superstep, so cross-kind merges must fail loudly.
func TestCombineRejectsMixedKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("combining msgGain with msgDelta should panic")
		}
	}()
	combine(&msgGain{Cur: 1}, msgDelta{Bucket: 1})
}
