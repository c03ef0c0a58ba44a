package distshp

// The wire codec of distshp's records. Every record addresses a worker, so
// an envelope holds what one worker sent another in a superstep, and a
// header byte says which of three forms it takes:
//
//   - superstep 0's movers: a lone one is the kind byte and its 8-byte
//     payload, two or more the kind byte with the batch bit set, a minimal
//     uvarint count and the payloads;
//   - superstep 1's gains and patches, which the per-worker fold flushes by
//     ascending id: a minimal uvarint count, then per record
//     uvarint(gap<<1 | patch) and the 8-byte payload, gap being the id's
//     distance from the previous record's (from -1 for the first), so a
//     record costs 9 bytes while its vertex is within 63 ids of the last;
//   - the same records in any other order, which only the fold-off side of
//     the equivalence tests sends (one record per incidence): the id in
//     full where the gap stood.

import (
	"encoding/binary"
	"fmt"
)

// Record kinds. kindBucket is also the mover forms' header byte, with
// batchBit set for two or more; ascendingIDs and anyIDs head the two forms
// of gains and patches.
const (
	kindBucket   = 0
	kindGain     = 2
	kindPatch    = 4
	batchBit     = 1
	ascendingIDs = 6
	anyIDs       = 8
)

// payloadSize is every record's payload: its word as a little-endian
// uint64, 8 bytes. A mover's is its (id, bucket) as two uint32s, a gain's
// its int64 gain units acc and a patch's its change Δacc.
const payloadSize = 8

// recordCodec is the engine's Codec[record] for a run over k buckets and
// numData data vertices. Decode rejects an id outside [0, numData) and a
// bucket outside [0, k) — what no run sends — so a hostile wire frame or
// checkpointed message fails to decode instead of indexing out of a mirror
// table, a query's row or the data slab.
type recordCodec struct{ k, numData int32 }

// form returns the header byte of an envelope of recs, and refuses movers
// that share an envelope with gains or patches, which has no encoding.
func form(recs []record) (uint8, error) {
	movers, ascending := recs[0].kind == kindBucket, true
	for i, r := range recs {
		if (r.kind == kindBucket) != movers {
			return 0, fmt.Errorf("distshp: records of kinds %d and %d share an envelope", recs[0].kind, r.kind)
		}
		ascending = ascending && (i == 0 || r.id > recs[i-1].id)
	}
	switch {
	case movers && len(recs) > 1:
		return kindBucket | batchBit, nil
	case movers:
		return kindBucket, nil
	case ascending:
		return ascendingIDs, nil
	}
	return anyIDs, nil
}

// idCode is the uvarint a gain or patch leads with in the forms of gains
// and patches: x, its id or its gap, above the patch bit.
func idCode(x int64, r record) uint64 {
	code := uint64(x) << 1
	if r.kind == kindPatch {
		code |= 1
	}
	return code
}

func (recordCodec) Append(buf []byte, recs []record) ([]byte, error) {
	h, err := form(recs)
	if err != nil {
		return buf, err
	}
	buf = append(buf, h)
	if h != kindBucket {
		buf = binary.AppendUvarint(buf, uint64(len(recs)))
	}
	prev := int64(-1)
	for _, r := range recs {
		switch h {
		case kindBucket, kindBucket | batchBit:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(uint32(r.id))|r.word<<32)
			continue
		case ascendingIDs:
			buf = binary.AppendUvarint(buf, idCode(int64(r.id)-prev, r))
			prev = int64(r.id)
		default:
			buf = binary.AppendUvarint(buf, idCode(int64(r.id), r))
		}
		buf = binary.LittleEndian.AppendUint64(buf, r.word)
	}
	return buf, nil
}

func (recordCodec) Size(recs []record) (int, error) {
	h, err := form(recs)
	if err != nil {
		return 0, err
	}
	n := 1 + len(recs)*payloadSize
	if h != kindBucket {
		n += uvarintLen(uint64(len(recs)))
	}
	prev := int64(-1)
	for _, r := range recs {
		switch h {
		case ascendingIDs:
			n += uvarintLen(idCode(int64(r.id)-prev, r))
			prev = int64(r.id)
		case anyIDs:
			n += uvarintLen(idCode(int64(r.id), r))
		}
	}
	return n, nil
}

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

// minimalUvarint reads a uvarint and refuses a truncated or overlong one.
func minimalUvarint(data []byte, what string) (uint64, int, error) {
	v, w := binary.Uvarint(data)
	if w <= 0 {
		return 0, 0, fmt.Errorf("distshp: truncated %s", what)
	}
	if w != uvarintLen(v) {
		return 0, 0, fmt.Errorf("distshp: %s %d is not minimally encoded", what, v)
	}
	return v, w, nil
}

// Decode accepts exactly what Append writes: a mover batch holds at least
// two records, the any-order form at least two whose ids do not ascend, and
// every count and id code is minimal, so re-encoding what it decoded
// reproduces the bytes it consumed.
func (c recordCodec) Decode(data []byte, recs []record) ([]record, int, error) {
	base := len(recs)
	recs, used, err := c.decode(data, recs)
	if err != nil {
		return recs[:base], 0, err
	}
	return recs, used, nil
}

func (c recordCodec) decode(data []byte, recs []record) ([]record, int, error) {
	if len(data) == 0 {
		return recs, 0, fmt.Errorf("distshp: truncated record kind")
	}
	h, n, used := data[0], uint64(1), 1
	switch h {
	case kindBucket:
	case kindBucket | batchBit, ascendingIDs, anyIDs:
		v, w, err := minimalUvarint(data[1:], "batch count")
		if err != nil {
			return recs, 0, err
		}
		least := uint64(2) // a lone mover has its own form, lone gains ascend
		if h == ascendingIDs {
			least = 1
		}
		if v < least {
			return recs, 0, fmt.Errorf("distshp: batch count %d of form %d is below %d", v, h, least)
		}
		n, used = v, 1+w
	default:
		return recs, 0, fmt.Errorf("distshp: unknown record kind %d", h)
	}
	if n > uint64((len(data)-used)/payloadSize) {
		return recs, 0, fmt.Errorf("distshp: %d records of form %d exceed the %d-byte payload", n, h, len(data)-used)
	}
	prev, ascending := int64(-1), true
	for i := uint64(0); i < n; i++ {
		var r record
		if h == kindBucket || h == kindBucket|batchBit {
			v := binary.LittleEndian.Uint64(data[used:])
			r = moverRecord(int32(uint32(v)), int32(uint32(v>>32)))
			if d, b := r.mover(); d < 0 || d >= c.numData || b < 0 || b >= c.k {
				return recs, 0, fmt.Errorf("distshp: mover record (vertex %d, bucket %d) outside vertices [0, %d) or buckets [0, %d)", d, b, c.numData, c.k)
			}
		} else {
			code, w, err := minimalUvarint(data[used:], "record id")
			if err != nil {
				return recs, 0, err
			}
			used += w
			if len(data)-used < payloadSize {
				return recs, 0, fmt.Errorf("distshp: truncated record payload")
			}
			id := code >> 1
			if h == ascendingIDs {
				if id == 0 {
					return recs, 0, fmt.Errorf("distshp: record %d repeats vertex %d: ids must ascend", i, prev)
				}
				id += uint64(prev)
			}
			if id >= uint64(c.numData) {
				return recs, 0, fmt.Errorf("distshp: record for vertex %d outside vertices [0, %d)", id, c.numData)
			}
			r = record{kind: kindGain, id: int32(id), word: binary.LittleEndian.Uint64(data[used:])}
			if code&1 != 0 {
				r.kind = kindPatch
			}
			ascending = ascending && int64(id) > prev
			prev = int64(id)
		}
		recs = append(recs, r)
		used += payloadSize
	}
	if h == anyIDs && ascending {
		return recs, 0, fmt.Errorf("distshp: %d records in ascending id order take the ascending form", n)
	}
	return recs, used, nil
}
