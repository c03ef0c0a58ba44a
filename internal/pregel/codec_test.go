package pregel

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"
)

func numberRegistry() *Registry {
	reg := NewRegistry()
	reg.Register(float64(0), Float64Codec{})
	reg.Register(int64(0), Int64Codec{})
	return reg
}

// TestEnvelopeRoundTrip encodes envelopes the way a frame carries them — a
// uvarint destination id, then the Registry's envelope of one record or a
// batch — and decodes them back, with Size agreeing with what Append wrote.
// A one-record envelope is its wire id and payload, nothing more.
func TestEnvelopeRoundTrip(t *testing.T) {
	reg := numberRegistry()
	type env struct {
		dst  VertexID
		msgs []Message
	}
	cases := []env{
		{dst: 0, msgs: []Message{float64(0)}},
		{dst: 1, msgs: []Message{3.14159}},
		{dst: 127, msgs: []Message{math.Inf(-1)}},
		{dst: 128, msgs: []Message{int64(-1)}},
		{dst: 1 << 40, msgs: []Message{int64(math.MaxInt64)}},
		{dst: 42, msgs: []Message{int64(math.MinInt64)}},
		{dst: 7, msgs: []Message{int64(3), 2.5, int64(-4)}},
		{dst: 9, msgs: slices.Repeat([]Message{int64(1)}, 200)},
	}
	if got, _ := reg.Append(nil, []Message{int64(-1)}); !bytes.Equal(got, []byte{1, 1}) {
		t.Fatalf("one int64 -1 encodes as %x, want 0101", got)
	}
	var buf []byte
	for _, c := range cases {
		want, err := reg.Size(c.msgs)
		if err != nil {
			t.Fatal(err)
		}
		buf = binary.AppendUvarint(buf, uint64(c.dst))
		before := len(buf)
		if buf, err = reg.Append(buf, c.msgs); err != nil {
			t.Fatal(err)
		}
		if got := len(buf) - before; got != want {
			t.Fatalf("Size(%v) = %d but Append wrote %d bytes", c.msgs, want, got)
		}
	}
	var recs []Message
	for _, want := range cases {
		dst, n := binary.Uvarint(buf)
		if n <= 0 {
			t.Fatal("truncated destination id")
		}
		before := len(recs)
		var used int
		var err error
		if recs, used, err = reg.Decode(buf[n:], recs); err != nil {
			t.Fatal(err)
		}
		buf = buf[n+used:]
		if VertexID(dst) != want.dst || !slices.Equal(recs[before:], want.msgs) {
			t.Fatalf("round trip: got %d %v, want %+v", dst, recs[before:], want)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes after decoding all envelopes", len(buf))
	}
}

func TestRegistryUnknownType(t *testing.T) {
	reg := NewRegistry()
	reg.Register(float64(0), Float64Codec{})
	if _, err := reg.Append(nil, []Message{"nope"}); err == nil {
		t.Fatal("encoding an unregistered type should fail")
	}
	if _, err := reg.Size([]Message{"nope"}); err == nil {
		t.Fatal("sizing an unregistered type should fail")
	}
	// One unregistered record fails its whole batch.
	if _, err := reg.Append(nil, []Message{1.0, "nope"}); err == nil {
		t.Fatal("encoding a batch holding an unregistered type should fail")
	}
	if _, err := reg.Size([]Message{1.0, "nope"}); err == nil {
		t.Fatal("sizing a batch holding an unregistered type should fail")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register(float64(0), Float64Codec{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	reg.Register(float64(1), Float64Codec{})
}

// TestDecodeTruncatedAndUnknownID feeds the engine's frame decoder damaged
// frames: every one must fail, none may panic.
func TestDecodeTruncatedAndUnknownID(t *testing.T) {
	eng, err := NewEngine(Options{
		Compute:       func(*Context, *Vertex, []Message) {},
		MaxSupersteps: 1,
		Codecs:        floatRegistry(),
	}, buildChain(8))
	if err != nil {
		t.Fatal(err)
	}
	w := eng.workers[0]
	for _, c := range []struct {
		name    string
		payload []byte
	}{
		{"empty frame", nil},
		{"missing codec id", []byte{5}},
		{"unknown codec id", []byte{5, 200, 0}},
		{"truncated float64 payload", []byte{5, 0, 1, 2}},
		{"batch count of one", append([]byte{5, batchID, 1, 0}, make([]byte, 8)...)},
		{"batch count of zero", []byte{5, batchID, 0}},
		{"non-minimal batch count", append([]byte{5, batchID, 0x82, 0x00, 0}, make([]byte, 17)...)},
		{"batch count past the payload", append([]byte{5, batchID, 30, 0}, make([]byte, 17)...)},
		{"absurd batch count", []byte{5, batchID, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1}},
		{"truncated batch count", []byte{5, batchID, 0x80}},
		{"batch truncated in its last record", append([]byte{5, batchID, 2, 0}, make([]byte, 16)...)},
		{"batch inside a batch", append([]byte{5, batchID, 2, batchID, 2, 0}, make([]byte, 17)...)},
		{"overlong envelope header", append([]byte{0x85, 0x00, 0}, make([]byte, 8)...)},
	} {
		if err := eng.decode(w, 0, frame{payload: c.payload, count: 1}); err == nil {
			t.Fatalf("%s: decode succeeded", c.name)
		}
	}
	// The overlong header's envelope, with the header in one byte, decodes.
	if err := eng.decode(w, 0, frame{payload: append([]byte{5, 0}, make([]byte, 8)...), count: 1}); err != nil {
		t.Fatalf("minimal envelope header: %v", err)
	}
}

// FuzzRegistryEnvelope: whatever bytes arrive, Decode must not panic, must
// refuse them without appending or accept a prefix that re-encodes to
// exactly those bytes, sizes to them and decodes again onto what is already
// there, and may allocate only what the bytes pay for: a record costs at
// least two bytes, a wire id and a payload byte.
func FuzzRegistryEnvelope(f *testing.F) {
	reg := numberRegistry()
	for _, msgs := range [][]Message{
		{2.5},
		{int64(-300)},
		{int64(1), 2.0},
		{int64(0), int64(0), int64(0)},
	} {
		buf, err := reg.Append(nil, msgs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{batchID, 0x82, 0x00, 1, 0, 1, 0})
	f.Add([]byte{batchID, 255, 255, 255, 255, 255, 255, 255, 255, 255, 1})
	f.Add([]byte{1, 0x80, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		recs, used, err := reg.Decode(data, nil)
		runtime.ReadMemStats(&m1)
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 64<<10+32*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			if len(recs) != 0 {
				t.Fatalf("failed decode (%v) appended %d records", err, len(recs))
			}
			return
		}
		if used < 2 || used > len(data) || len(recs) == 0 {
			t.Fatalf("decoded %d records from %d of %d bytes", len(recs), used, len(data))
		}
		re, err := reg.Append(nil, recs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, data[:used]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data[:used])
		}
		if size, err := reg.Size(recs); err != nil || size != len(re) {
			t.Fatalf("Size %d (%v) != encoded %d", size, err, len(re))
		}
		again, used2, err := reg.Decode(re, recs)
		if err != nil || used2 != used || len(again) != 2*len(recs) {
			t.Fatalf("decoding onto earlier records: %d records (used %d, err %v)", len(again), used2, err)
		}
		for i, r := range recs {
			if !sameBits(again[i], r) || !sameBits(again[len(recs)+i], r) {
				t.Fatalf("record %d decoded as %v, then %v and %v", i, r, again[i], again[len(recs)+i])
			}
		}
	})
}

// sameBits compares two decoded numbers by their bits, so a NaN equals
// itself.
func sameBits(a, b Message) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}
