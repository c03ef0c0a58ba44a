package pregel

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestEnvelopeRoundTrip encodes envelopes the way a frame carries them — a
// uvarint destination id, then the Registry's one-record envelope — and
// decodes them back, with Size agreeing with what Append wrote.
func TestEnvelopeRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Register(float64(0), Float64Codec{})
	reg.Register(int64(0), Int64Codec{})

	type env struct {
		dst VertexID
		msg Message
	}
	cases := []env{
		{dst: 0, msg: float64(0)},
		{dst: 1, msg: 3.14159},
		{dst: 127, msg: math.Inf(-1)},
		{dst: 128, msg: int64(-1)},
		{dst: 1 << 40, msg: int64(math.MaxInt64)},
		{dst: 42, msg: int64(math.MinInt64)},
	}
	var buf []byte
	for _, c := range cases {
		want, err := reg.Size([]Message{c.msg})
		if err != nil {
			t.Fatal(err)
		}
		buf = binary.AppendUvarint(buf, uint64(c.dst))
		before := len(buf)
		if buf, err = reg.Append(buf, []Message{c.msg}); err != nil {
			t.Fatal(err)
		}
		if got := len(buf) - before; got != want {
			t.Fatalf("Size(%v) = %d but Append wrote %d bytes", c.msg, want, got)
		}
	}
	var recs []Message
	for i, want := range cases {
		dst, n := binary.Uvarint(buf)
		if n <= 0 {
			t.Fatal("truncated destination id")
		}
		var used int
		var err error
		if recs, used, err = reg.Decode(buf[n:], recs); err != nil {
			t.Fatal(err)
		}
		buf = buf[n+used:]
		if VertexID(dst) != want.dst || len(recs) != i+1 || recs[i] != want.msg {
			t.Fatalf("round trip: got %d %v, want %+v", dst, recs, want)
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
	// A Registry has no batch form: an envelope of two records is refused.
	if _, err := reg.Append(nil, []Message{1.0, 2.0}); err == nil {
		t.Fatal("encoding a two-record envelope should fail")
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
	} {
		if err := eng.decode(w, 0, frame{payload: c.payload, count: 1}); err == nil {
			t.Fatalf("%s: decode succeeded", c.name)
		}
	}
}
