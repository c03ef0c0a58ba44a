package pregel

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// Codec serializes a program's messages to and from flat bytes, one envelope
// at a time: an envelope is the 1..n records one worker sent one vertex in a
// superstep, in send order. Encoded envelopes sit back to back in frames
// after their destination id, so an encoding must be self-delimiting: Decode
// reports how many bytes it consumed.
//
// Codecs are what make BytesSent measured truth rather than an estimate:
// every byte a transport ships was produced by a codec, and the in-process
// backend charges exactly what Size reports.
type Codec[M any] interface {
	// Append encodes the envelope holding recs (at least one) onto buf.
	Append(buf []byte, recs []M) ([]byte, error)
	// Decode reads one envelope from the front of data, appends its records
	// to recs, and returns the extended slice with the bytes consumed. The
	// records must not alias data: transports reuse their receive buffers.
	Decode(data []byte, recs []M) ([]M, int, error)
	// Size returns the envelope's exact encoded size (what Append would add).
	Size(recs []M) (int, error)
}

// ValueCodec serializes one concrete type held in an interface value. A
// Registry binds value codecs to types to encode the messages of the
// Message-typed plane. Decode reports the bytes it consumed, and the value
// must not alias data.
type ValueCodec interface {
	Append(buf []byte, v any) ([]byte, error)
	Decode(data []byte) (any, int, error)
	Size(v any) int
}

// Registry maps concrete types to value codecs and assigns each a stable
// one-byte wire id in registration order. It is the Codec of the
// Message-typed plane. A one-record envelope is the record's wire id, then
// its payload; an envelope of two or more is the reserved id batchID, a
// minimal uvarint count, then each record as a one-record envelope.
type Registry struct {
	types  []reflect.Type // by wire id
	codecs []ValueCodec
}

// batchID marks a Registry envelope of two or more records; no type has it.
const batchID = 255

// NewRegistry returns an empty codec registry.
func NewRegistry() *Registry { return &Registry{} }

// Register binds the concrete type of sample to c. Registration order fixes
// the wire id, so both ends of a transport must register the same codecs in
// the same order. At most 255 types can be registered.
func (r *Registry) Register(sample any, c ValueCodec) {
	t := reflect.TypeOf(sample)
	if _, err := r.idOf(sample); err == nil {
		//shp:panics(invariant: registration happens once at wiring time before any superstep; a duplicate is a programming error)
		panic(fmt.Sprintf("pregel: codec for %v registered twice", t))
	}
	if len(r.types) == batchID {
		//shp:panics(invariant: the wire id is 8 bits with one reserved; overflow at wiring time is a programming error, not runtime input)
		panic("pregel: codec registry full")
	}
	r.types = append(r.types, t)
	r.codecs = append(r.codecs, c)
}

// idOf returns the wire id registered for v's concrete type. A program
// registers a handful of types, so a scan beats hashing the type.
func (r *Registry) idOf(v any) (uint8, error) {
	t := reflect.TypeOf(v)
	for id, rt := range r.types {
		if rt == t {
			return uint8(id), nil
		}
	}
	return 0, fmt.Errorf("pregel: no codec registered for %T", v)
}

// Append encodes an envelope: a lone record as its wire id and payload, more
// behind batchID and their count.
func (r *Registry) Append(buf []byte, recs []any) ([]byte, error) {
	if len(recs) > 1 {
		buf = binary.AppendUvarint(append(buf, batchID), uint64(len(recs)))
	}
	for _, v := range recs {
		id, err := r.idOf(v)
		if err != nil {
			return buf, err
		}
		if buf, err = r.codecs[id].Append(append(buf, id), v); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Decode reads an envelope onto recs. It accepts exactly what Append writes:
// a batch holds two or more records behind a minimal count, and no more of
// them than the bytes left could hold, one wire id each, so a hostile count
// allocates nothing the payload does not pay for.
func (r *Registry) Decode(data []byte, recs []any) ([]any, int, error) {
	n, used := uint64(1), 0
	if len(data) > 0 && data[0] == batchID {
		c, w := binary.Uvarint(data[1:])
		if w <= 0 {
			return recs, 0, fmt.Errorf("pregel: truncated batch count")
		}
		if c < 2 || w != uvarintLen(c) || c > uint64(len(data)-1-w) {
			return recs, 0, fmt.Errorf("pregel: batch count %d is not a minimal count of two or more within %d bytes", c, len(data)-1-w)
		}
		n, used = c, 1+w
	}
	base := len(recs)
	for i := uint64(0); i < n; i++ {
		if used == len(data) {
			return recs[:base], 0, fmt.Errorf("pregel: truncated codec id")
		}
		id := data[used]
		if int(id) >= len(r.codecs) {
			return recs[:base], 0, fmt.Errorf("pregel: unknown codec id %d", id)
		}
		v, w, err := r.codecs[id].Decode(data[used+1:])
		if err != nil {
			return recs[:base], 0, err
		}
		recs = append(recs, v)
		used += 1 + w
	}
	return recs, used, nil
}

// Size returns an envelope's encoded size.
func (r *Registry) Size(recs []any) (int, error) {
	n := 0
	if len(recs) > 1 {
		n = 1 + uvarintLen(uint64(len(recs)))
	}
	for _, v := range recs {
		id, err := r.idOf(v)
		if err != nil {
			return 0, err
		}
		n += 1 + r.codecs[id].Size(v)
	}
	return n, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Float64Codec encodes float64 values as 8 little-endian bytes.
type Float64Codec struct{}

// Append serializes a float64.
func (Float64Codec) Append(buf []byte, v any) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.(float64))), nil
}

// Decode reads a float64.
func (Float64Codec) Decode(data []byte) (any, int, error) {
	if len(data) < 8 {
		return nil, 0, fmt.Errorf("pregel: truncated float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), 8, nil
}

// Size returns 8.
func (Float64Codec) Size(any) int { return 8 }

// Int64Codec encodes int64 values as zig-zag varints.
type Int64Codec struct{}

// Append serializes an int64.
func (Int64Codec) Append(buf []byte, v any) ([]byte, error) {
	return binary.AppendVarint(buf, v.(int64)), nil
}

// Decode reads an int64 in its minimal encoding, the one Append writes.
func (c Int64Codec) Decode(data []byte) (any, int, error) {
	v, n := binary.Varint(data)
	if n <= 0 {
		return nil, 0, fmt.Errorf("pregel: truncated int64")
	}
	if n != c.Size(v) {
		return nil, 0, fmt.Errorf("pregel: int64 %d in %d bytes is not minimally encoded", v, n)
	}
	return v, n, nil
}

// Size returns the varint width of v.
func (Int64Codec) Size(v any) int {
	x := v.(int64)
	return uvarintLen(uint64(x)<<1 ^ uint64(x>>63))
}
