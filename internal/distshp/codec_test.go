package distshp

import (
	"bytes"
	"encoding/binary"
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

func le64(vs ...int64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
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
		{"bucket, high slot", []record{bucketRecord(1<<19, 6)}, cat([]byte{kindBucket}, le32(1<<19, 6))},
		{"gain", []record{gainRecord(3, -9)}, cat([]byte{kindGain}, le64(3, -9))},
		{"zero gain", []record{gainRecord(0, 0)}, cat([]byte{kindGain}, le64(0, 0))},
		{"bucket batch", []record{bucketRecord(1, 0), bucketRecord(2, 1), bucketRecord(3, 1)},
			cat([]byte{kindBucketBatch, 3}, le32(1, 0, 2, 1, 3, 1))},
		{"patch", []record{patchRecord(4, -2)}, cat([]byte{kindPatch}, le64(4, -2))},
		{"zero patch", []record{patchRecord(0, 0)}, cat([]byte{kindPatch}, le64(0, 0))},
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
	one, err := wideWire.Append(nil, []record{bucketRecord(2, 0), bucketRecord(3, 1)})
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
		{"truncated patch", cat([]byte{kindPatch}, make([]byte, 15))},
		{"truncated batch count", []byte{kindBucketBatch, 200}},
		{"batch count exceeding payload", []byte{kindBucketBatch, 3, 0, 0}},
		{"bucket batch with truncated last record", one[:len(one)-1]},
		{"batch of one", cat([]byte{kindBucketBatch, 1}, le32(2, 0))},
		{"patch batch", cat([]byte{kindPatch + 1, 2}, le64(1, 2, 3, 4))},
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

// TestCombineSemantics pins the fold: two gains, or two patches, add into
// the held record in place; bucket updates and a gain beside a patch
// decline and leave it as it was.
func TestCombineSemantics(t *testing.T) {
	held := gainRecord(1, 2)
	if !combine(&held, gainRecord(3, 4)) || held != gainRecord(4, 6) {
		t.Fatalf("gain fold = %v, %+v", held, held)
	}
	held = patchRecord(-1, 2)
	if !combine(&held, patchRecord(3, -5)) || held != patchRecord(2, -3) {
		t.Fatalf("patch fold = %+v", held)
	}
	for _, pair := range [][2]record{
		{bucketRecord(1, 0), bucketRecord(2, 1)},
		{gainRecord(1, 0), patchRecord(2, 1)},
		{patchRecord(1, 0), gainRecord(2, 1)},
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

// TestCombineDeltaRecords: records the combiner declines (bucket updates,
// the one kind that batches) join their destination's envelope, so each
// worker ships one envelope per destination, and the destination receives
// every record exactly once in (source worker, send order): each sender's
// records in a row, senders id-ascending within each of the two workers'
// runs — on both transports. Patches, like gains, fold instead.
func TestCombineDeltaRecords(t *testing.T) {
	const n, per = 16, 3
	for _, transport := range []func() pregel.Transport{pregel.MemoryTransport, pregel.TCPTransport} {
		got, stats := runRecords(t, transport(), n, func(ctx *pregel.ContextOf[record, workerAgg], v pregel.VertexID) {
			for k := int32(0); k < per; k++ {
				ctx.Send(0, bucketRecord(int32(v), k))
				ctx.Send(1, patchRecord(int64(v), -int64(k)))
			}
		})
		if want := []record{patchRecord(per*n*(n-1)/2, -n*per*(per-1)/2)}; !slices.Equal(got[1], want) {
			t.Fatalf("vertex 1 received %+v, want the one folded patch %+v", got[1], want)
		}
		if len(got[0]) != n*per {
			t.Fatalf("vertex 0 received %d records, want %d", len(got[0]), n*per)
		}
		seen := map[int32]bool{}
		runs, prev := 1, int32(-1)
		for i := 0; i < n; i++ {
			v, _ := got[0][i*per].bucket()
			for k := int32(0); k < per; k++ {
				if r := got[0][i*per+int(k)]; r != bucketRecord(v, k) {
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
		if stats.TotalMessages != 4 {
			t.Fatalf("%d envelopes crossed, want one per worker and destination", stats.TotalMessages)
		}
	}
}

// TestCombineFoldsDecodedWithLocal is the receiver-side pass across source
// workers: over TCP one worker's gains arrive decoded from a frame while the
// other's never left their outbox, and they fold into one record.
func TestCombineFoldsDecodedWithLocal(t *testing.T) {
	const n = 16
	got, stats := runRecords(t, pregel.TCPTransport(), n, func(ctx *pregel.ContextOf[record, workerAgg], v pregel.VertexID) {
		ctx.Send(0, gainRecord(2, 1))
	})
	if want := []record{gainRecord(2*n, n)}; !slices.Equal(got[0], want) {
		t.Fatalf("vertex 0 received %+v, want %+v", got[0], want)
	}
	if stats.RemoteMessages != 1 {
		t.Fatalf("%d envelopes crossed workers, want 1", stats.RemoteMessages)
	}
}

// TestCombineRejectsMixedKinds pins the protocol invariant: a vertex is
// either rebuilding (gains only) or clean (patches only) within a superstep.
// The combiner declines to fold across kinds, and the codec refuses an
// envelope that mixes them, as it does gains or patches that did not fold.
func TestCombineRejectsMixedKinds(t *testing.T) {
	held := gainRecord(1, 0)
	if combine(&held, patchRecord(1, 0)) || held != gainRecord(1, 0) {
		t.Fatalf("gain and patch folded to %+v", held)
	}
	for _, recs := range [][]record{
		{gainRecord(1, 0), patchRecord(1, 0)},
		{bucketRecord(1, 0), patchRecord(1, 0)},
		{gainRecord(1, 0), gainRecord(2, 0)},
		{patchRecord(1, 0), patchRecord(2, 0)},
	} {
		if _, err := wideWire.Append(nil, recs); err == nil {
			t.Fatalf("encoded the envelope %+v", recs)
		}
		if _, err := wideWire.Size(recs); err == nil {
			t.Fatalf("sized the envelope %+v", recs)
		}
	}
}
