package distshp

// The wire codec of distshp's records. One codec encodes an envelope — the
// 1..n records one worker sent one vertex in a superstep, all of one kind —
// by one rule for every kind: a lone record as its kind byte and 8-byte
// payload, two or more as the kind byte with the batch bit set, a minimal
// uvarint count and the payloads. Superstep 0's mover records batch per
// destination worker, one envelope per (source worker, destination worker);
// the per-worker fold leaves one gain or patch per (worker, data vertex), a
// 9-byte envelope, and only the fold-off side of the equivalence tests
// sends their batches.

import (
	"encoding/binary"
	"fmt"
)

// Record kinds, which are also their wire kind bytes; batchBit marks an
// envelope of two or more.
const (
	kindBucket = 0
	kindGain   = 2
	kindPatch  = 4
	batchBit   = 1
)

// payloadSize is a record kind's fixed encoding, 0 for a byte that is no
// kind. Every kind's payload is its record's one word as a little-endian
// uint64, 8 bytes: a mover record's (ID, New) as two uint32s, a gain's int64
// gain units acc and a patch's change Δacc.
func payloadSize(kind uint8) int {
	switch kind {
	case kindBucket, kindGain, kindPatch:
		return 8
	}
	return 0
}

// envelopeKind returns the kind of an envelope's records, and refuses an
// envelope that mixes kinds, which has no encoding.
func envelopeKind(recs []record) (uint8, error) {
	kind := recs[0].kind
	for _, r := range recs[1:] {
		if r.kind != kind {
			return 0, fmt.Errorf("distshp: records of kinds %d and %d share an envelope", kind, r.kind)
		}
	}
	return kind, nil
}

// recordCodec is the engine's Codec[record] for a run over k buckets and
// numData data vertices. Decode rejects a mover id outside [0, numData) and
// a bucket outside [0, k) — what no run sends — so a hostile wire frame or
// checkpointed message fails to decode instead of indexing out of a mirror
// table or a query's row.
type recordCodec struct{ k, numData int32 }

func (recordCodec) Append(buf []byte, recs []record) ([]byte, error) {
	k, err := envelopeKind(recs)
	if err != nil {
		return buf, err
	}
	if len(recs) > 1 {
		buf = binary.AppendUvarint(append(buf, k|batchBit), uint64(len(recs)))
	} else {
		buf = append(buf, k)
	}
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint64(buf, r.word)
	}
	return buf, nil
}

func (recordCodec) Size(recs []record) (int, error) {
	if _, err := envelopeKind(recs); err != nil {
		return 0, err
	}
	n := 1 + len(recs)*payloadSize(recs[0].kind)
	if len(recs) > 1 {
		n += uvarintLen(uint64(len(recs)))
	}
	return n, nil
}

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

// Decode accepts exactly what Append writes: a batch holds at least two
// records behind a minimal uvarint count, so re-encoding what it decoded
// reproduces the bytes it consumed.
func (c recordCodec) Decode(data []byte, recs []record) ([]record, int, error) {
	if len(data) == 0 {
		return recs, 0, fmt.Errorf("distshp: truncated record kind")
	}
	kind, n, used := data[0]&^batchBit, uint64(1), 1
	size := payloadSize(kind)
	if size == 0 {
		return recs, 0, fmt.Errorf("distshp: unknown record kind %d", data[0])
	}
	if data[0]&batchBit != 0 {
		var w int
		if n, w = binary.Uvarint(data[1:]); w <= 0 {
			return recs, 0, fmt.Errorf("distshp: truncated batch count")
		}
		if n < 2 || w != uvarintLen(n) {
			return recs, 0, fmt.Errorf("distshp: batch count %d is not a minimal count of two or more", n)
		}
		used += w
	}
	if n > uint64((len(data)-used)/size) {
		return recs, 0, fmt.Errorf("distshp: %d records of kind %d exceed the %d-byte payload", n, kind, len(data)-used)
	}
	base := len(recs)
	for i := uint64(0); i < n; i++ {
		r := record{kind: kind, word: binary.LittleEndian.Uint64(data[used:])}
		if kind == kindBucket {
			if d, b := r.mover(); d < 0 || d >= c.numData || b < 0 || b >= c.k {
				return recs[:base], 0, fmt.Errorf("distshp: mover record (vertex %d, bucket %d) outside vertices [0, %d) or buckets [0, %d)", d, b, c.numData, c.k)
			}
		}
		recs = append(recs, r)
		used += size
	}
	return recs, used, nil
}
