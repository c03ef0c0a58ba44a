package distshp

// The wire codec of distshp's records. One codec encodes an envelope — the
// records one worker sent one vertex in a superstep: a lone record as its
// kind byte and payload; two or more bucket updates, the one kind the
// combiner declines to fold, as the batch byte, a uvarint count and the
// payloads. Gains and patches leave a worker folded, one record per
// envelope, so the codec refuses an envelope of two.

import (
	"encoding/binary"
	"fmt"
)

// Wire kind bytes. The bucket batch is the bucket kind plus one; gains and
// patches have no batch form.
const (
	kindBucket      = 0
	kindBucketBatch = 1
	kindGain        = 2
	kindPatch       = 3
)

// payloadSize is a record kind's fixed encoding: bucket updates are (Slot,
// New) as little-endian uint32s, gains the int64 gain units (Cur, Oth) and
// patches their changes (ΔCur, ΔOth) as little-endian uint64s.
func payloadSize(kind uint8) int {
	switch kind {
	case kindBucket:
		return 8
	case kindGain, kindPatch:
		return 16
	}
	return 0
}

// envelopeKind returns the kind byte an envelope of recs starts with, and
// refuses what has no encoding: mixed kinds, or gains or patches that did
// not fold.
func envelopeKind(recs []record) (uint8, error) {
	kind := recs[0].kind
	for _, r := range recs[1:] {
		if r.kind != kind {
			return 0, fmt.Errorf("distshp: records of kinds %d and %d share an envelope", kind, r.kind)
		}
	}
	if len(recs) == 1 {
		return kind, nil
	}
	if kind != kindBucket {
		return 0, fmt.Errorf("distshp: %d unfolded records of kind %d share an envelope", len(recs), kind)
	}
	return kindBucketBatch, nil
}

// recordCodec is the engine's Codec[record] for a run over k buckets whose
// largest query degree is maxDeg. Decode rejects a bucket outside [0, k) and
// a member slot outside [0, maxDeg) — what no run sends — so a hostile wire
// frame or checkpointed message fails to decode instead of indexing out of
// a query's registry or row.
type recordCodec struct{ k, maxDeg int32 }

func (recordCodec) Append(buf []byte, recs []record) ([]byte, error) {
	k, err := envelopeKind(recs)
	if err != nil {
		return buf, err
	}
	buf = append(buf, k)
	if len(recs) > 1 {
		buf = binary.AppendUvarint(buf, uint64(len(recs)))
	}
	for _, r := range recs {
		buf = binary.LittleEndian.AppendUint64(buf, r.lo)
		if r.kind != kindBucket {
			buf = binary.LittleEndian.AppendUint64(buf, r.hi)
		}
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
	kind, n, used := data[0], uint64(1), 1
	switch kind {
	case kindBucket, kindGain, kindPatch:
	case kindBucketBatch:
		kind--
		var w int
		if n, w = binary.Uvarint(data[1:]); w <= 0 {
			return recs, 0, fmt.Errorf("distshp: truncated batch count")
		}
		if n < 2 || w != uvarintLen(n) {
			return recs, 0, fmt.Errorf("distshp: batch count %d is not a minimal count of two or more", n)
		}
		used += w
	default:
		return recs, 0, fmt.Errorf("distshp: unknown record kind %d", kind)
	}
	size := payloadSize(kind)
	if n > uint64((len(data)-used)/size) {
		return recs, 0, fmt.Errorf("distshp: %d records of kind %d exceed the %d-byte payload", n, kind, len(data)-used)
	}
	base := len(recs)
	for i := uint64(0); i < n; i++ {
		p := data[used:]
		r := record{kind: kind, lo: binary.LittleEndian.Uint64(p)}
		if kind == kindBucket {
			if slot, b := r.bucket(); b < 0 || b >= c.k || slot < 0 || slot >= c.maxDeg {
				return recs[:base], 0, fmt.Errorf("distshp: bucket update (slot %d, bucket %d) outside slots [0, %d) or buckets [0, %d)", slot, b, c.maxDeg, c.k)
			}
		} else {
			r.hi = binary.LittleEndian.Uint64(p[8:])
		}
		recs = append(recs, r)
		used += size
	}
	return recs, used, nil
}
