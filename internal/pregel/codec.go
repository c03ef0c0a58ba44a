package pregel

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// Codec serializes one message type to and from a flat binary form. Encoded
// messages are embedded in batch buffers (see Registry.appendEnvelope), so a
// codec's output must be self-delimiting: Decode reports how many bytes it
// consumed.
//
// Codecs are what make BytesSent measured truth rather than an estimate:
// every byte a transport ships was produced by a codec, and the engine
// charges exactly those bytes.
type Codec interface {
	// Append serializes m onto buf and returns the extended buffer.
	Append(buf []byte, m Message) ([]byte, error)
	// Decode reads one message from the front of data and returns it along
	// with the number of bytes consumed. The message must not alias data:
	// transports reuse their receive buffers from one frame to the next.
	Decode(data []byte) (Message, int, error)
	// Size returns m's exact encoded size in bytes (what Append would add).
	Size(m Message) int
}

// Registry maps concrete message types to codecs and assigns each a stable
// one-byte wire id in registration order. A registry is required by byte-
// measuring transports (TCP) and, when present, also upgrades the in-process
// transport's byte accounting from the MessageBytes estimate to encoded
// sizes.
type Registry struct {
	byType map[reflect.Type]uint8
	byID   []Codec
}

// NewRegistry returns an empty codec registry.
func NewRegistry() *Registry {
	return &Registry{byType: map[reflect.Type]uint8{}}
}

// Register binds the concrete type of sample to c. Registration order fixes
// the wire id, so both ends of a transport must register the same codecs in
// the same order. At most 256 types can be registered.
func (r *Registry) Register(sample Message, c Codec) {
	t := reflect.TypeOf(sample)
	if _, dup := r.byType[t]; dup {
		//shp:panics(invariant: registration happens once at wiring time before any superstep; a duplicate is a programming error)
		panic(fmt.Sprintf("pregel: codec for %v registered twice", t))
	}
	if len(r.byID) == 256 {
		//shp:panics(invariant: the kind byte is 8 bits; overflow at wiring time is a programming error, not runtime input)
		panic("pregel: codec registry full")
	}
	r.byType[t] = uint8(len(r.byID))
	r.byID = append(r.byID, c)
}

// kindMemo remembers the last type a caller resolved to a wire id. A
// superstep's traffic is all of one or two kinds, so an encoder that keeps a
// memo across the envelopes of a batch pays the type-keyed map lookup once
// per run of equal types instead of once per envelope. The zero value is
// ready; a memo belongs to one goroutine and one registry.
type kindMemo struct {
	typ reflect.Type
	id  uint8
}

// idOf returns the wire id registered for m's concrete type.
func (r *Registry) idOf(m Message, memo *kindMemo) (uint8, error) {
	t := reflect.TypeOf(m)
	if t != memo.typ || t == nil {
		id, ok := r.byType[t]
		if !ok {
			return 0, fmt.Errorf("pregel: no codec registered for %T", m)
		}
		memo.typ, memo.id = t, id
	}
	return memo.id, nil
}

// envelopeSize returns the encoded size of one envelope: uvarint destination
// id, one codec-id byte, then the message payload.
func (r *Registry) envelopeSize(env envelope, memo *kindMemo) (int, error) {
	id, err := r.idOf(env.msg, memo)
	if err != nil {
		return 0, err
	}
	return uvarintLen(uint64(env.dst)) + 1 + r.byID[id].Size(env.msg), nil
}

// appendValue encodes one bare value: a codec-id byte, then the payload.
// This is the unit shared by message envelopes and checkpoint snapshots —
// a snapshot is just values encoded through a registry, so the checkpoint
// plane gets the same measured-bytes guarantee as the wire.
func (r *Registry) appendValue(buf []byte, v Message, memo *kindMemo) ([]byte, error) {
	id, err := r.idOf(v, memo)
	if err != nil {
		return buf, err
	}
	buf = append(buf, id)
	return r.byID[id].Append(buf, v)
}

// decodeValue reads one bare value from the front of data.
func (r *Registry) decodeValue(data []byte) (Message, int, error) {
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("pregel: truncated codec id")
	}
	id := data[0]
	if int(id) >= len(r.byID) {
		return nil, 0, fmt.Errorf("pregel: unknown codec id %d", id)
	}
	m, used, err := r.byID[id].Decode(data[1:])
	if err != nil {
		return nil, 0, err
	}
	return m, 1 + used, nil
}

// appendEnvelope encodes one envelope onto buf.
func (r *Registry) appendEnvelope(buf []byte, env envelope, memo *kindMemo) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(env.dst))
	return r.appendValue(buf, env.msg, memo)
}

// decodeEnvelope reads one envelope from the front of data.
func (r *Registry) decodeEnvelope(data []byte) (envelope, int, error) {
	dst, n := binary.Uvarint(data)
	if n <= 0 {
		return envelope{}, 0, fmt.Errorf("pregel: truncated envelope header")
	}
	m, used, err := r.decodeValue(data[n:])
	if err != nil {
		return envelope{}, 0, err
	}
	return envelope{dst: VertexID(dst), msg: m}, n + used, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Float64Codec encodes float64 messages as 8 little-endian bytes.
type Float64Codec struct{}

// Append serializes a float64.
func (Float64Codec) Append(buf []byte, m Message) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.(float64))), nil
}

// Decode reads a float64.
func (Float64Codec) Decode(data []byte) (Message, int, error) {
	if len(data) < 8 {
		return nil, 0, fmt.Errorf("pregel: truncated float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), 8, nil
}

// Size returns 8.
func (Float64Codec) Size(Message) int { return 8 }

// Int64Codec encodes int64 messages as zig-zag varints.
type Int64Codec struct{}

// Append serializes an int64.
func (Int64Codec) Append(buf []byte, m Message) ([]byte, error) {
	return binary.AppendVarint(buf, m.(int64)), nil
}

// Decode reads an int64.
func (Int64Codec) Decode(data []byte) (Message, int, error) {
	v, n := binary.Varint(data)
	if n <= 0 {
		return nil, 0, fmt.Errorf("pregel: truncated int64")
	}
	return v, n, nil
}

// Size returns the varint width of m.
func (Int64Codec) Size(m Message) int {
	v := m.(int64)
	return uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}
