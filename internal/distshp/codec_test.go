package distshp

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"shp/internal/pregel"
)

// le32 and le64 build expected wire bytes independently of the codec.
func le32(vs ...int32) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

func le64(fs ...float64) []byte {
	var b []byte
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// wideWire is a record codec whose ranges admit every record the byte-level
// tests here pin.
var wideWire = recordCodec{k: 1 << 30, maxDeg: 1 << 20}

// TestWireCodecs pins the bytes every envelope shape encodes to — the kind
// byte, batch count and payloads the wire has always carried — and checks
// Size and the decode round trip against them.
func TestWireCodecs(t *testing.T) {
	for _, c := range []struct {
		name string
		recs []record
		want []byte
	}{
		{"bucket", []record{bucketRecord(7, 3)}, cat([]byte{kindBucket}, le32(7, 3))},
		{"bucket, high id", []record{bucketRecord(1<<30, 6)}, cat([]byte{kindBucket}, le32(1<<30, 6))},
		{"gain", []record{gainRecord(1.5, -2.25)}, cat([]byte{kindGain}, le64(1.5, -2.25))},
		{"zero gain", []record{gainRecord(0, 0)}, cat([]byte{kindGain}, le64(0, 0))},
		{"bucket batch", []record{bucketRecord(1, 0), bucketRecord(2, 1), bucketRecord(3, 1)},
			cat([]byte{kindBucketBatch, 3}, le32(1, 0, 2, 1, 3, 1))},
		{"delta", []record{deltaRecord(4, 2, 3)}, cat([]byte{kindDelta}, le32(4, 2, 3))},
		{"delta, high bucket", []record{deltaRecord(1<<29, 0, 7)}, cat([]byte{kindDelta}, le32(1<<29, 0, 7))},
		{"delta batch", []record{deltaRecord(2, 3, 4), deltaRecord(3, 1, 0), deltaRecord(2, 0, 1)},
			cat([]byte{kindDeltaBatch, 3}, le32(2, 3, 4, 3, 1, 0, 2, 0, 1))},
	} {
		buf, err := wideWire.Append(nil, c.recs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(buf, c.want) {
			t.Fatalf("%s: encoded %x, want %x", c.name, buf, c.want)
		}
		if size, err := wideWire.Size(c.recs); err != nil || size != len(buf) {
			t.Fatalf("%s: Size = %d, %v for %d encoded bytes", c.name, size, err, len(buf))
		}
		got, used, err := wideWire.Decode(buf, nil)
		if err != nil || used != len(buf) || !slices.Equal(got, c.recs) {
			t.Fatalf("%s: decoded %+v (used %d of %d, err %v), want %+v", c.name, got, used, len(buf), err, c.recs)
		}
	}
}

func TestCodecTruncation(t *testing.T) {
	one, err := wideWire.Append(nil, []record{deltaRecord(2, 0, 1), deltaRecord(3, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated bucket", []byte{kindBucket, 1, 2}},
		{"truncated gain", cat([]byte{kindGain}, make([]byte, 15))},
		{"truncated delta", cat([]byte{kindDelta}, make([]byte, 11))},
		{"truncated batch count", []byte{kindBucketBatch, 200}},
		{"batch count exceeding payload", []byte{kindBucketBatch, 3, 0, 0}},
		{"delta batch count exceeding payload", []byte{kindDeltaBatch, 2, 0, 0, 0}},
		{"delta batch with truncated last record", one[:len(one)-1]},
		{"batch of one", cat([]byte{kindDeltaBatch, 1}, le32(2, 0, 1))},
		{"empty batch", []byte{kindBucketBatch, 0}},
		{"overlong batch count", cat([]byte{kindBucketBatch, 0x82, 0}, le32(1, 0, 2, 1))},
		{"unknown kind", cat([]byte{9}, le32(1, 2, 3, 4))},
	} {
		recs, _, err := wideWire.Decode(c.data, nil)
		if err == nil {
			t.Fatalf("%s: decoded %+v", c.name, recs)
		}
		if len(recs) != 0 {
			t.Fatalf("%s: failed decode appended %d records", c.name, len(recs))
		}
	}
}

// TestCombineSemantics pins the fold: two gains add into the held record in
// place; bucket updates and deltas decline and leave it as it was.
func TestCombineSemantics(t *testing.T) {
	held := gainRecord(1, 2)
	if !combine(&held, gainRecord(3, 4)) || held != gainRecord(4, 6) {
		t.Fatalf("gain fold = %v, %+v", held, held)
	}
	for _, pair := range [][2]record{
		{bucketRecord(1, 0), bucketRecord(2, 1)},
		{deltaRecord(1, 0, 1), deltaRecord(2, 1, 0)},
	} {
		held := pair[0]
		if combine(&held, pair[1]) || held != pair[0] {
			t.Fatalf("combine(%+v, %+v) folded to %+v", pair[0], pair[1], held)
		}
	}
}

// runRecords runs one superstep of send on a two-worker record engine with
// distshp's combiner and codec, and returns what each vertex received in the
// next superstep, with the run's stats.
func runRecords(t *testing.T, transport pregel.Transport, n int, send func(ctx *pregel.ContextOf[record, workerAgg], v pregel.VertexID)) ([][]record, *pregel.Stats) {
	t.Helper()
	vertices := make([]*pregel.Vertex, n)
	for i := range vertices {
		vertices[i] = &pregel.Vertex{ID: pregel.VertexID(i)}
	}
	got := make([][]record, n)
	eng, err := pregel.NewEngineOf(pregel.OptionsOf[record, workerAgg]{
		Workers:       2,
		MaxSupersteps: 2,
		Transport:     transport,
		Codecs:        wideWire,
		Combiner:      combine,
		Compute: func(ctx *pregel.ContextOf[record, workerAgg], v *pregel.Vertex, msgs []record) {
			if ctx.Superstep() == 0 {
				send(ctx, v.ID)
			} else {
				got[v.ID] = append(got[v.ID], msgs...)
			}
			ctx.VoteToHalt()
		},
	}, vertices)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return got, stats
}

// TestCombineDeltaRecords: records the combiner declines join their
// destination's envelope, so each worker ships one envelope per destination,
// and the destination receives every record exactly once in (source worker,
// send order): each sender's records in a row, senders id-ascending within
// each of the two workers' runs — on both transports.
func TestCombineDeltaRecords(t *testing.T) {
	const n, per = 16, 3
	for _, transport := range []func() pregel.Transport{pregel.MemoryTransport, pregel.TCPTransport} {
		got, stats := runRecords(t, transport(), n, func(ctx *pregel.ContextOf[record, workerAgg], v pregel.VertexID) {
			for k := int32(0); k < per; k++ {
				ctx.Send(0, deltaRecord(int32(v), k, k+1))
			}
		})
		if len(got[0]) != n*per {
			t.Fatalf("vertex 0 received %d records, want %d", len(got[0]), n*per)
		}
		seen := map[int32]bool{}
		runs, prev := 1, int32(-1)
		for i := 0; i < n; i++ {
			v, _, _ := got[0][i*per].delta()
			for k := int32(0); k < per; k++ {
				if r := got[0][i*per+int(k)]; r != deltaRecord(v, k, k+1) {
					t.Fatalf("record %d is %+v, want sender %d's record %d", i*per+int(k), r, v, k)
				}
			}
			if seen[v] {
				t.Fatalf("sender %d's records arrived twice", v)
			}
			seen[v] = true
			if v < prev {
				runs++
			}
			prev = v
		}
		if runs > 2 {
			t.Fatalf("senders arrived in %d ascending runs, want one per worker", runs)
		}
		if stats.TotalMessages != 2 {
			t.Fatalf("%d envelopes crossed, want one per worker", stats.TotalMessages)
		}
	}
}

// TestCombineFoldsDecodedWithLocal is the receiver-side pass across source
// workers: over TCP one worker's gains arrive decoded from a frame while the
// other's never left their outbox, and they fold into one record.
func TestCombineFoldsDecodedWithLocal(t *testing.T) {
	const n = 16
	got, stats := runRecords(t, pregel.TCPTransport(), n, func(ctx *pregel.ContextOf[record, workerAgg], v pregel.VertexID) {
		ctx.Send(0, gainRecord(1, 0.5))
	})
	if want := []record{gainRecord(n, n/2)}; !slices.Equal(got[0], want) {
		t.Fatalf("vertex 0 received %+v, want %+v", got[0], want)
	}
	if stats.RemoteMessages != 1 {
		t.Fatalf("%d envelopes crossed workers, want 1", stats.RemoteMessages)
	}
}

// TestCombineRejectsMixedKinds pins the protocol invariant: a vertex is
// either rebuilding (gains only) or clean (deltas only) within a superstep.
// The combiner declines to fold across kinds, and the codec refuses an
// envelope that mixes them, as it does gains that did not fold.
func TestCombineRejectsMixedKinds(t *testing.T) {
	held := gainRecord(1, 0)
	if combine(&held, deltaRecord(1, 0, 1)) || held != gainRecord(1, 0) {
		t.Fatalf("gain and delta folded to %+v", held)
	}
	for _, recs := range [][]record{
		{gainRecord(1, 0), deltaRecord(1, 0, 1)},
		{bucketRecord(1, 0), deltaRecord(1, 0, 1)},
		{gainRecord(1, 0), gainRecord(2, 0)},
	} {
		if _, err := wideWire.Append(nil, recs); err == nil {
			t.Fatalf("encoded the envelope %+v", recs)
		}
		if _, err := wideWire.Size(recs); err == nil {
			t.Fatalf("sized the envelope %+v", recs)
		}
	}
}
