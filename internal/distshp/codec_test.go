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

// TestWireCodecs pins the bytes every envelope shape encodes to — the
// header byte, batch count, id codes and payloads — and checks Size and the
// decode round trip against them. A mover record is (id, bucket) behind the
// bucket kind byte, and movers batch per destination worker; gains and
// patches for ascending ids lead with uvarint(gap<<1 | patch), and in any
// other order with uvarint(id<<1 | patch).
func TestWireCodecs(t *testing.T) {
	for _, c := range []struct {
		name string
		recs []record
		want []byte
	}{
		{"mover", []record{moverRecord(7, 3)}, cat([]byte{kindBucket}, le32(7, 3))},
		{"mover, high id", []record{moverRecord(1<<19, 6)}, cat([]byte{kindBucket}, le32(1<<19, 6))},
		{"mover batch", []record{moverRecord(1, 0), moverRecord(2, 1), moverRecord(3, 1)},
			cat([]byte{1, 3}, le32(1, 0, 2, 1, 3, 1))},
		{"gain", []record{gainRecord(3, -9)}, cat([]byte{ascendingIDs, 1, 4 << 1}, le64(-9))},
		{"zero gain at id 0", []record{gainRecord(0, 0)}, cat([]byte{ascendingIDs, 1, 1 << 1}, le64(0))},
		{"patch", []record{patchRecord(0, 4)}, cat([]byte{ascendingIDs, 1, 1<<1 | 1}, le64(4))},
		{"negative patch", []record{patchRecord(2, -2)}, cat([]byte{ascendingIDs, 1, 3<<1 | 1}, le64(-2))},
		{"gain, high id", []record{gainRecord(1<<19, 7)}, cat([]byte{ascendingIDs, 1, 0x82, 0x80, 0x40}, le64(7))},
		{"mixed batch", []record{gainRecord(1, 1), patchRecord(2, -1), gainRecord(70, 5)},
			cat([]byte{ascendingIDs, 3, 2 << 1}, le64(1), []byte{1<<1 | 1}, le64(-1), []byte{0x88, 0x01}, le64(5))},
		{"long gain batch", func() []record {
			recs := make([]record, 130)
			for i := range recs {
				recs[i] = gainRecord(int32(i), 3)
			}
			return recs
		}(), cat([]byte{ascendingIDs, 0x82, 0x01}, bytes.Repeat(cat([]byte{1 << 1}, le64(3)), 130))},
		{"descending", []record{gainRecord(5, 1), patchRecord(2, -1)},
			cat([]byte{anyIDs, 2, 5 << 1}, le64(1), []byte{2<<1 | 1}, le64(-1))},
		{"repeated id", []record{patchRecord(4, 1), patchRecord(4, 2)},
			cat([]byte{anyIDs, 2, 4<<1 | 1}, le64(1), []byte{4<<1 | 1}, le64(2))},
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
	patches := envelopeBytes(patchRecord(1, 1), patchRecord(3, 3))
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated bucket", []byte{kindBucket, 1, 2}},
		{"truncated gain", cat([]byte{ascendingIDs, 1, 2}, make([]byte, 7))},
		{"truncated id code", []byte{ascendingIDs, 1, 0x80}},
		{"missing id code", cat([]byte{ascendingIDs, 1}, make([]byte, 8))[:2]},
		{"truncated batch count", []byte{kindBucket | batchBit, 200}},
		{"batch count exceeding payload", []byte{kindBucket | batchBit, 3, 0, 0}},
		{"bucket batch with truncated last record", one[:len(one)-1]},
		{"batch of one", cat([]byte{kindBucket | batchBit, 1}, le32(2, 0))},
		{"patch batch with truncated last record", patches[:len(patches)-1]},
		{"empty gain batch", []byte{ascendingIDs, 0}},
		{"any-order batch of one", cat([]byte{anyIDs, 1, 2}, le64(1))},
		{"any-order batch that ascends", cat([]byte{anyIDs, 2, 2}, le64(1), []byte{4}, le64(1))},
		{"overlong id code", cat([]byte{ascendingIDs, 1, 0x82, 0}, le64(1))},
		{"empty batch", []byte{kindBucket | batchBit, 0}},
		{"overlong batch count", cat([]byte{kindBucket | batchBit, 0x82, 0}, le32(1, 0, 2, 1))},
		{"unknown kind", cat([]byte{10}, le32(1, 2, 3, 4))},
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

// hostsOf is the host table of n data vertices over workers, as a run
// builds it.
func hostsOf(n, workers int) []int32 {
	host := make([]int32, n)
	for d := range host {
		host[d] = int32(pregel.HashWorker(pregel.VertexID(d), workers))
	}
	return host
}

// TestCombineSemantics pins the per-worker fold: two gains, or two patches,
// for one data vertex add into the one record the fold holds for it, other
// vertices keep records of their own, and the flush ships each exactly once,
// to the worker that hosts it, by ascending id, and leaves the fold empty,
// whether it sorts the touched list (fewer than an eighth of the ids
// touched, at 64 ids) or walks every id (at 8).
func TestCombineSemantics(t *testing.T) {
	for _, n := range []int{8, 64} {
		arrived, _ := runRecords(t, pregel.MemoryTransport(), n, func(ctx *pregel.ContextOf[record, workerAgg], v pregel.VertexID, fold, _ *gainFold) {
			if v == 2 {
				fold.add(ctx, patchRecord(5, -1))
				fold.add(ctx, gainRecord(3, 1))
				fold.add(ctx, gainRecord(3, 3))
				fold.add(ctx, patchRecord(5, 3))
				fold.add(ctx, gainRecord(1, 7))
			}
		})
		for w, recs := range arrived {
			if !slices.IsSortedFunc(recs, func(a, b record) int { return int(a.id - b.id) }) {
				t.Fatalf("%d ids: worker %d received %+v, not by ascending id", n, w, recs)
			}
		}
		got := byVertex(arrived, n)
		for d, want := range map[int][]record{1: {gainRecord(1, 7)}, 3: {gainRecord(3, 4)}, 5: {patchRecord(5, 2)}} {
			if !slices.Equal(got[d], want) {
				t.Fatalf("%d ids: vertex %d received %+v, want the folded %+v", n, d, got[d], want)
			}
		}
		for v, recs := range got {
			if v != 1 && v != 3 && v != 5 && len(recs) != 0 {
				t.Fatalf("%d ids: vertex %d received %+v", n, v, recs)
			}
		}
	}
	const n = 8
	fold := newGainFold(hostsOf(n, 2))
	fold.add(nil, gainRecord(6, 1))
	fold.add(nil, patchRecord(1, 1))
	if !slices.Equal(fold.touched, []int32{6, 1}) {
		t.Fatalf("touched %v, want first-touch order [6 1]", fold.touched)
	}
}

// runRecords runs one gain step on a two-worker record engine with
// distshp's codec and per-worker folds, as Partition wires them: in
// superstep 0 each worker's hook runs send for each vertex placed on it,
// ascending, as a gain step runs its queries, with the worker's fold and a
// plain (fold-off) one, and flushes the fold. It returns what each worker's
// hook received in superstep 1, in arrival order, with the run's stats, and
// fails the test when a gain or patch reaches a worker that does not host
// its vertex or a record reaches a vertex.
func runRecords(t *testing.T, transport pregel.Transport, n int, send func(ctx *pregel.ContextOf[record, workerAgg], v pregel.VertexID, fold, plain *gainFold)) ([][]record, *pregel.Stats) {
	t.Helper()
	const workers = 2
	vertices := make([]*pregel.Vertex, n)
	for i := range vertices {
		vertices[i] = &pregel.Vertex{ID: pregel.VertexID(i)}
	}
	host := hostsOf(n, workers)
	folds := []gainFold{newGainFold(host), newGainFold(host)}
	plain := gainFold{host: host, plain: true}
	arrived := make([][]record, workers)
	eng, err := pregel.NewEngineOf(pregel.OptionsOf[record, workerAgg]{
		Workers:       workers,
		MaxSupersteps: 2,
		Transport:     transport,
		Codecs:        wideWire,
		Compute: func(ctx *pregel.ContextOf[record, workerAgg], v *pregel.Vertex, msgs []record) {
			if len(msgs) != 0 {
				t.Errorf("vertex %d was addressed %+v", v.ID, msgs)
			}
			ctx.VoteToHalt()
		},
		PreSuperstep: func(ctx *pregel.ContextOf[record, workerAgg], msgs []record) {
			w := ctx.Worker()
			if ctx.Superstep() == 1 {
				arrived[w] = slices.Clone(msgs)
				return
			}
			for v := pregel.VertexID(0); v < pregel.VertexID(n); v++ {
				if pregel.HashWorker(v, workers) == w {
					send(ctx, v, &folds[w], &plain)
				}
			}
			folds[w].flush(ctx)
		},
	}, vertices)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	for w, recs := range arrived {
		for _, r := range recs {
			if r.kind != kindBucket && int(host[r.id]) != w {
				t.Fatalf("worker %d received %+v for a vertex worker %d hosts", w, r, host[r.id])
			}
		}
	}
	return arrived, stats
}

// byVertex groups the gains and patches of arrived by vertex, in arrival
// order, over n vertices.
func byVertex(arrived [][]record, n int) [][]record {
	got := make([][]record, n)
	for _, recs := range arrived {
		for _, r := range recs {
			if r.kind != kindBucket {
				got[r.id] = append(got[r.id], r)
			}
		}
	}
	return got
}

// TestCombineDeltaRecords: with no fold in the engine, every record one
// worker sends another in a superstep joins one envelope, so each worker
// ships one envelope per destination worker, and the destination's hook
// receives every record exactly once in (source worker, send order), on
// both transports: movers, and patches the fold-off side sends one per
// incidence, each sender's in a row, senders id-ascending within each of
// the two workers' runs. Gains a worker folds arrive as one record per
// worker, which the receiver adds as runState.hear does.
func TestCombineDeltaRecords(t *testing.T) {
	const n, per = 16, 3
	host := hostsOf(n, 2)
	hub := int32(slices.Index(host, 1))                       // patches and gains go to worker 1
	gainHub := int32(slices.Index(host[hub+1:], 1)) + hub + 1 // the folded gains' vertex there
	for _, transport := range []func() pregel.Transport{pregel.MemoryTransport, pregel.TCPTransport} {
		arrived, stats := runRecords(t, transport(), n, func(ctx *pregel.ContextOf[record, workerAgg], v pregel.VertexID, fold, plain *gainFold) {
			for k := int32(0); k < per; k++ {
				ctx.SendWorker(0, moverRecord(int32(v), k))
				plain.add(ctx, patchRecord(hub, int64(v)*per+int64(k)))
			}
			fold.add(ctx, gainRecord(gainHub, 2+int64(v)))
		})
		movers, got := arrived[0], byVertex(arrived, n)
		for _, c := range []struct {
			name string
			recs []record
			want func(v int64, k int32) record
			of   func(r record) int64
		}{
			{"movers", movers, func(v int64, k int32) record { return moverRecord(int32(v), k) },
				func(r record) int64 { d, _ := r.mover(); return int64(d) }},
			{"patches", got[hub], func(v int64, k int32) record { return patchRecord(hub, v*per+int64(k)) },
				func(r record) int64 { return r.acc() / per }},
		} {
			if len(c.recs) != n*per {
				t.Fatalf("%s: %d records, want %d", c.name, len(c.recs), n*per)
			}
			seen := map[int64]bool{}
			runs, prev := 1, int64(-1)
			for i := 0; i < n; i++ {
				v := c.of(c.recs[i*per])
				for k := int32(0); k < per; k++ {
					if r := c.recs[i*per+int(k)]; r != c.want(v, k) {
						t.Fatalf("%s: record %d is %+v, want sender %d's record %d", c.name, i*per+int(k), r, v, k)
					}
				}
				if seen[v] {
					t.Fatalf("%s: sender %d's records arrived twice", c.name, v)
				}
				seen[v] = true
				if v < prev {
					runs++
				}
				prev = v
			}
			if runs > 2 {
				t.Fatalf("%s: senders arrived in %d ascending runs, want one per worker", c.name, runs)
			}
		}
		if len(got[gainHub]) != 2 {
			t.Fatalf("vertex %d received %+v, want one folded gain per worker", gainHub, got[gainHub])
		}
		var acc int64
		for _, r := range got[gainHub] {
			acc += r.acc()
		}
		if want := int64(2*n + n*(n-1)/2); acc != want {
			t.Fatalf("vertex %d's gains add to %d, want %d", gainHub, acc, want)
		}
		if stats.TotalMessages != 4 {
			t.Fatalf("%d envelopes crossed, want one per (worker, worker)", stats.TotalMessages)
		}
	}
}

// TestCombineRejectsMixedKinds pins the protocol invariant: a vertex is
// either rebuilding (gains only) or clean (patches only) within a superstep.
// The fold panics on a mix for one vertex, and the codec refuses an
// envelope that mixes movers with gains or patches, while gains and patches
// for distinct vertices share one.
func TestCombineRejectsMixedKinds(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the fold added a patch to a gain")
			}
		}()
		fold := newGainFold(hostsOf(2, 1))
		fold.add(nil, gainRecord(1, 1))
		fold.add(nil, patchRecord(1, 1))
	}()
	for _, recs := range [][]record{
		{moverRecord(1, 0), patchRecord(2, 1)},
		{gainRecord(1, 1), moverRecord(2, 0)},
		{patchRecord(1, 1), patchRecord(2, 2), moverRecord(3, 1)},
	} {
		if _, err := wideWire.Append(nil, recs); err == nil {
			t.Fatalf("encoded the envelope %+v", recs)
		}
		if _, err := wideWire.Size(recs); err == nil {
			t.Fatalf("sized the envelope %+v", recs)
		}
	}
	for _, recs := range [][]record{
		{gainRecord(1, 1), gainRecord(2, 2)},
		{patchRecord(1, 1), gainRecord(2, 2)},
		{patchRecord(3, 1), gainRecord(2, 2)},
	} {
		if _, err := wideWire.Append(nil, recs); err != nil {
			t.Fatalf("refused the envelope %+v: %v", recs, err)
		}
	}
}
