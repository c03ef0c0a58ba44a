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
var wideWire = recordCodec{k: 1 << 30, numData: 1 << 30}

// TestWireCodecs pins the bytes every envelope shape encodes to — the kind
// byte, batch count and payloads — and checks Size and the decode round trip
// against them. A mover record is (id, bucket) behind the bucket kind byte,
// and movers batch per destination worker; gains and patches batch by the
// same rule, the kind byte with its batch bit set.
func TestWireCodecs(t *testing.T) {
	for _, c := range []struct {
		name string
		recs []record
		want []byte
	}{
		{"mover", []record{moverRecord(7, 3)}, cat([]byte{kindBucket}, le32(7, 3))},
		{"mover, high id", []record{moverRecord(1<<19, 6)}, cat([]byte{kindBucket}, le32(1<<19, 6))},
		{"gain", []record{gainRecord(3, -9)}, cat([]byte{kindGain}, le64(3, -9))},
		{"zero gain", []record{gainRecord(0, 0)}, cat([]byte{kindGain}, le64(0, 0))},
		{"mover batch", []record{moverRecord(1, 0), moverRecord(2, 1), moverRecord(3, 1)},
			cat([]byte{1, 3}, le32(1, 0, 2, 1, 3, 1))},
		{"patch", []record{patchRecord(4, -2)}, cat([]byte{kindPatch}, le64(4, -2))},
		{"zero patch", []record{patchRecord(0, 0)}, cat([]byte{kindPatch}, le64(0, 0))},
		{"gain batch", []record{gainRecord(1, -1), gainRecord(2, 0)},
			cat([]byte{kindGain | batchBit, 2}, le64(1, -1, 2, 0))},
		{"patch batch", []record{patchRecord(5, 6), patchRecord(-7, 8), patchRecord(0, 0)},
			cat([]byte{kindPatch | batchBit, 3}, le64(5, 6, -7, 8, 0, 0))},
		{"long gain batch", slices.Repeat([]record{gainRecord(1, 2)}, 130),
			cat([]byte{kindGain | batchBit, 0x82, 0x01}, bytes.Repeat(le64(1, 2), 130))},
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
	one, err := wideWire.Append(nil, []record{moverRecord(2, 0), moverRecord(3, 1)})
	if err != nil {
		t.Fatal(err)
	}
	patches := envelopeBytes(patchRecord(1, 2), patchRecord(3, 4))
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated bucket", []byte{kindBucket, 1, 2}},
		{"truncated gain", cat([]byte{kindGain}, make([]byte, 15))},
		{"truncated patch", cat([]byte{kindPatch}, make([]byte, 15))},
		{"truncated batch count", []byte{kindBucket | batchBit, 200}},
		{"batch count exceeding payload", []byte{kindBucket | batchBit, 3, 0, 0}},
		{"bucket batch with truncated last record", one[:len(one)-1]},
		{"batch of one", cat([]byte{kindBucket | batchBit, 1}, le32(2, 0))},
		{"patch batch with truncated last record", patches[:len(patches)-1]},
		{"gain batch of one", cat([]byte{kindGain | batchBit, 1}, le64(1, 2))},
		{"empty batch", []byte{kindBucket | batchBit, 0}},
		{"overlong batch count", cat([]byte{kindBucket | batchBit, 0x82, 0}, le32(1, 0, 2, 1))},
		{"unknown kind", cat([]byte{8}, le32(1, 2, 3, 4))},
		{"unknown batch kind", cat([]byte{7, 2}, le64(1, 2, 3, 4))},
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

// TestCombineSemantics pins the per-worker fold: two gains, or two patches,
// for one data vertex add into the one record the fold holds for it, other
// vertices keep records of their own, and the flush ships each exactly once
// and leaves the fold empty, whether it walks the touched list (fewer than
// an eighth of the ids touched, at 64 ids) or every id in order (at 8).
func TestCombineSemantics(t *testing.T) {
	for _, n := range []int{8, 64} {
		got, _ := runRecords(t, pregel.MemoryTransport(), n, func(ctx *pregel.ContextOf[record, workerAgg], v pregel.VertexID, fold *gainFold) {
			if v == 2 {
				fold.add(ctx, 5, patchRecord(-1, 2))
				fold.add(ctx, 3, gainRecord(1, 2))
				fold.add(ctx, 3, gainRecord(3, 4))
				fold.add(ctx, 5, patchRecord(3, -5))
			}
		})
		if want := []record{gainRecord(4, 6)}; !slices.Equal(got[3], want) {
			t.Fatalf("%d ids: vertex 3 received %+v, want the folded gain %+v", n, got[3], want)
		}
		if want := []record{patchRecord(2, -3)}; !slices.Equal(got[5], want) {
			t.Fatalf("%d ids: vertex 5 received %+v, want the folded patch %+v", n, got[5], want)
		}
		for v, recs := range got {
			if v != 3 && v != 5 && len(recs) != 0 {
				t.Fatalf("%d ids: vertex %d received %+v", n, v, recs)
			}
		}
	}
	const n = 8
	fold := gainFold{held: make([]record, n)}
	fold.add(nil, 6, gainRecord(1, 1))
	fold.add(nil, 1, patchRecord(1, 1))
	if !slices.Equal(fold.touched, []int32{6, 1}) {
		t.Fatalf("touched %v, want first-touch order [6 1]", fold.touched)
	}
}

// runRecords runs one superstep of send on a two-worker record engine with
// distshp's codec and a per-worker gainFold that the PostSuperstep hook
// flushes, as Partition wires them, and returns what each vertex received
// in the next superstep, with the run's stats.
func runRecords(t *testing.T, transport pregel.Transport, n int, send func(ctx *pregel.ContextOf[record, workerAgg], v pregel.VertexID, fold *gainFold)) ([][]record, *pregel.Stats) {
	t.Helper()
	vertices := make([]*pregel.Vertex, n)
	for i := range vertices {
		vertices[i] = &pregel.Vertex{ID: pregel.VertexID(i)}
	}
	folds := []gainFold{{held: make([]record, n)}, {held: make([]record, n)}}
	got := make([][]record, n)
	eng, err := pregel.NewEngineOf(pregel.OptionsOf[record, workerAgg]{
		Workers:       2,
		MaxSupersteps: 2,
		Transport:     transport,
		Codecs:        wideWire,
		Compute: func(ctx *pregel.ContextOf[record, workerAgg], v *pregel.Vertex, msgs []record) {
			if ctx.Superstep() == 0 {
				send(ctx, v.ID, &folds[ctx.Worker()])
			} else {
				got[v.ID] = append(got[v.ID], msgs...)
			}
			ctx.VoteToHalt()
		},
		PostSuperstep: func(ctx *pregel.ContextOf[record, workerAgg]) { folds[ctx.Worker()].flush(ctx) },
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

// TestCombineDeltaRecords: with no fold in the engine, records of every
// kind one worker sends one vertex join one envelope, so each worker ships
// one envelope per destination, and the destination receives every record
// exactly once in (source worker, send order): each sender's records in a
// row, senders id-ascending within each of the two workers' runs — on both
// transports. Gains a worker folds in the program arrive as one record per
// worker, which the receiver adds as computeData does.
func TestCombineDeltaRecords(t *testing.T) {
	const n, per = 16, 3
	for _, transport := range []func() pregel.Transport{pregel.MemoryTransport, pregel.TCPTransport} {
		got, stats := runRecords(t, transport(), n, func(ctx *pregel.ContextOf[record, workerAgg], v pregel.VertexID, fold *gainFold) {
			for k := int32(0); k < per; k++ {
				ctx.Send(0, moverRecord(int32(v), k))
				ctx.Send(1, patchRecord(int64(v), -int64(k)))
			}
			fold.add(ctx, 2, gainRecord(2, int64(v)))
		})
		for _, dst := range []int{0, 1} {
			if len(got[dst]) != n*per {
				t.Fatalf("vertex %d received %d records, want %d", dst, len(got[dst]), n*per)
			}
			seen := map[int64]bool{}
			runs, prev := 1, int64(-1)
			for i := 0; i < n; i++ {
				var v int64
				if dst == 0 {
					d, _ := got[0][i*per].mover()
					v = int64(d)
				} else {
					v, _ = got[1][i*per].sums()
				}
				for k := int32(0); k < per; k++ {
					want := moverRecord(int32(v), k)
					if dst == 1 {
						want = patchRecord(v, -int64(k))
					}
					if r := got[dst][i*per+int(k)]; r != want {
						t.Fatalf("vertex %d: record %d is %+v, want sender %d's record %d", dst, i*per+int(k), r, v, k)
					}
				}
				if seen[v] {
					t.Fatalf("vertex %d: sender %d's records arrived twice", dst, v)
				}
				seen[v] = true
				if v < prev {
					runs++
				}
				prev = v
			}
			if runs > 2 {
				t.Fatalf("vertex %d: senders arrived in %d ascending runs, want one per worker", dst, runs)
			}
		}
		if len(got[2]) != 2 {
			t.Fatalf("vertex 2 received %+v, want one folded gain per worker", got[2])
		}
		var cur, oth int64
		for _, r := range got[2] {
			c, o := r.sums()
			cur += c
			oth += o
		}
		if cur != 2*n || oth != n*(n-1)/2 {
			t.Fatalf("vertex 2's gains add to (%d, %d), want (%d, %d)", cur, oth, 2*n, n*(n-1)/2)
		}
		if stats.TotalMessages != 6 {
			t.Fatalf("%d envelopes crossed, want one per worker and destination", stats.TotalMessages)
		}
	}
}

// TestCombineRejectsMixedKinds pins the protocol invariant: a vertex is
// either rebuilding (gains only) or clean (patches only) within a superstep.
// The fold panics on a mix, and the codec refuses an envelope that mixes
// kinds, while one of a single kind, batched, encodes.
func TestCombineRejectsMixedKinds(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the fold added a patch to a gain")
			}
		}()
		fold := gainFold{held: make([]record, 2)}
		fold.add(nil, 1, gainRecord(1, 0))
		fold.add(nil, 1, patchRecord(1, 0))
	}()
	for _, recs := range [][]record{
		{gainRecord(1, 0), patchRecord(1, 0)},
		{moverRecord(1, 0), patchRecord(1, 0)},
		{patchRecord(1, 0), patchRecord(2, 0), gainRecord(2, 0)},
	} {
		if _, err := wideWire.Append(nil, recs); err == nil {
			t.Fatalf("encoded the envelope %+v", recs)
		}
		if _, err := wideWire.Size(recs); err == nil {
			t.Fatalf("sized the envelope %+v", recs)
		}
	}
	for _, recs := range [][]record{
		{gainRecord(1, 0), gainRecord(2, 0)},
		{patchRecord(1, 0), patchRecord(2, 0)},
	} {
		if _, err := wideWire.Append(nil, recs); err != nil {
			t.Fatalf("refused the envelope %+v: %v", recs, err)
		}
	}
}
