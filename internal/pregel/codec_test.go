package pregel

import (
	"math"
	"testing"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Register(float64(0), Float64Codec{})
	reg.Register(int64(0), Int64Codec{})

	cases := []envelope{
		{dst: 0, msg: float64(0)},
		{dst: 1, msg: 3.14159},
		{dst: 127, msg: math.Inf(-1)},
		{dst: 128, msg: int64(-1)},
		{dst: 1 << 40, msg: int64(math.MaxInt64)},
		{dst: 42, msg: int64(math.MinInt64)},
	}
	var buf []byte
	var memo kindMemo // kept across the two kinds: it must re-resolve when the type changes
	for _, env := range cases {
		want, err := reg.envelopeSize(env, &memo)
		if err != nil {
			t.Fatal(err)
		}
		before := len(buf)
		buf, err = reg.appendEnvelope(buf, env, &memo)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(buf) - before; got != want {
			t.Fatalf("envelopeSize(%v) = %d but Append wrote %d bytes", env, want, got)
		}
	}
	for _, want := range cases {
		got, used, err := reg.decodeEnvelope(buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[used:]
		if got.dst != want.dst || got.msg != want.msg {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes after decoding all envelopes", len(buf))
	}
}

func TestRegistryUnknownType(t *testing.T) {
	reg := NewRegistry()
	reg.Register(float64(0), Float64Codec{})
	if _, err := reg.appendEnvelope(nil, envelope{dst: 1, msg: "nope"}, &kindMemo{}); err == nil {
		t.Fatal("encoding an unregistered type should fail")
	}
	if _, err := reg.envelopeSize(envelope{dst: 1, msg: "nope"}, &kindMemo{}); err == nil {
		t.Fatal("sizing an unregistered type should fail")
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

func TestDecodeTruncatedAndUnknownID(t *testing.T) {
	reg := NewRegistry()
	reg.Register(float64(0), Float64Codec{})
	if _, _, err := reg.decodeEnvelope(nil); err == nil {
		t.Fatal("empty buffer should fail")
	}
	if _, _, err := reg.decodeEnvelope([]byte{5}); err == nil {
		t.Fatal("missing codec id should fail")
	}
	if _, _, err := reg.decodeEnvelope([]byte{5, 200, 0}); err == nil {
		t.Fatal("unknown codec id should fail")
	}
	if _, _, err := reg.decodeEnvelope([]byte{5, 0, 1, 2}); err == nil {
		t.Fatal("truncated float64 payload should fail")
	}
}
