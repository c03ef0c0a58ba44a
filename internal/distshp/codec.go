package distshp

// The wire codec of distshp's records. One codec encodes an envelope — the
// records one worker sent one vertex in a superstep: a lone record as its
// kind byte and payload; two or more (bucket updates or deltas, which the
// combiner declines to fold) as the kind's batch byte, a uvarint count and
// the payloads. Kind bytes and payloads are exactly what the per-kind codecs
// this replaced wrote, so wire and checkpoint bytes did not move.

import (
	"encoding/binary"
	"fmt"
)

// Wire kind bytes. A batch kind is its record kind plus one; gains have no
// batch form, because the combiner folds every pair of them.
const (
	kindBucket      = 0
	kindBucketBatch = 1
	kindGain        = 2
	kindDelta       = 3
	kindDeltaBatch  = 4
)

// payloadSize is a record kind's fixed encoding: bucket updates are (Data,
// New), deltas (Bucket, COld, CNew) as little-endian uint32s, and gains the
// int64 gain units (Cur, Oth) as little-endian uint64s. Deltas carry no query id — receivers patch by
// table-value differences alone, a quarter off every late-iteration gain
// superstep relative to a 16-byte record.
func payloadSize(kind uint8) int {
	switch kind {
	case kindBucket:
		return 8
	case kindGain:
		return 16
	case kindDelta:
		return 12
	}
	return 0
}

// envelopeKind returns the kind byte an envelope of recs starts with, and
// refuses what has no encoding: mixed kinds, or gains that did not fold.
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
	if kind == kindGain {
		return 0, fmt.Errorf("distshp: %d unfolded gain records share an envelope", len(recs))
	}
	return kind + 1, nil
}

// recordCodec is the engine's Codec[record] for a run over k buckets whose
// largest query degree is maxDeg. Decode rejects a bucket outside [0, k) and
// a delta count outside [0, maxDeg] — what no run sends — so a hostile wire
// frame or checkpointed message fails to decode instead of indexing out of
// a query's row or a gain table.
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
		switch r.kind {
		case kindGain:
			buf = binary.LittleEndian.AppendUint64(buf, r.hi)
		case kindDelta:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r.hi))
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
	case kindBucket, kindGain, kindDelta:
	case kindBucketBatch, kindDeltaBatch:
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
		switch kind {
		case kindBucket:
			if _, b := r.bucket(); b < 0 || b >= c.k {
				return recs[:base], 0, fmt.Errorf("distshp: bucket update to bucket %d outside [0, %d)", b, c.k)
			}
		case kindGain:
			r.hi = binary.LittleEndian.Uint64(p[8:])
		case kindDelta:
			r.hi = uint64(binary.LittleEndian.Uint32(p[8:]))
			if b, cOld, cNew := r.delta(); b < 0 || b >= c.k || min(cOld, cNew) < 0 || max(cOld, cNew) > c.maxDeg {
				return recs[:base], 0, fmt.Errorf("distshp: delta (%d, %d, %d) outside buckets [0, %d) or counts [0, %d]", b, cOld, cNew, c.k, c.maxDeg)
			}
		}
		recs = append(recs, r)
		used += size
	}
	return recs, used, nil
}
