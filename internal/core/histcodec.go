package core

import (
	"encoding/binary"
	"fmt"
)

// The binary codec of DirHist, so the distributed master's persistent
// histograms can ride checkpoint snapshots. The encoding is sparse (only
// informative bins) and canonical (positive bins ascending, then negative
// bins ascending), so equal histograms encode to identical bytes — the
// property the snapshot-equality tests pin.

// signBin packs a sign flag and a bin index into one byte: bit 7 is the
// sign (0 = positive half, 1 = negative half), bits 0..6 the bin. histBins
// is 64, so bins always fit.
func signBin(negative bool, bin int) byte {
	b := byte(bin)
	if negative {
		b |= 0x80
	}
	return b
}

// AppendBinary encodes h sparsely onto buf: uvarint entry count, then per
// informative bin a sign/bin byte, a varint count, and the 8-byte sum in
// gain units.
func (h *DirHist) AppendBinary(buf []byte) []byte {
	n := 0
	for i := 0; i < histBins; i++ {
		if h.posCount[i] != 0 || h.posSum[i] != 0 {
			n++
		}
		if h.negCount[i] != 0 || h.negSum[i] != 0 {
			n++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := 0; i < histBins; i++ {
		if h.posCount[i] != 0 || h.posSum[i] != 0 {
			buf = append(buf, signBin(false, i))
			buf = binary.AppendVarint(buf, h.posCount[i])
			buf = binary.LittleEndian.AppendUint64(buf, uint64(h.posSum[i]))
		}
	}
	for i := 0; i < histBins; i++ {
		if h.negCount[i] != 0 || h.negSum[i] != 0 {
			buf = append(buf, signBin(true, i))
			buf = binary.AppendVarint(buf, h.negCount[i])
			buf = binary.LittleEndian.AppendUint64(buf, uint64(h.negSum[i]))
		}
	}
	return buf
}

// DecodeDirHist reads one DirHist from the front of data, returning it and
// the number of bytes consumed.
func DecodeDirHist(data []byte) (DirHist, int, error) {
	var h DirHist
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return h, 0, fmt.Errorf("core: truncated DirHist header")
	}
	if n > uint64(len(data)) { // each entry is >= 10 bytes
		return h, 0, fmt.Errorf("core: DirHist entry count %d exceeds payload", n)
	}
	off := used
	for i := uint64(0); i < n; i++ {
		if len(data) < off+1 {
			return h, 0, fmt.Errorf("core: truncated DirHist entry")
		}
		sb := data[off]
		off++
		bin := int(sb & 0x7F)
		if bin >= histBins {
			return h, 0, fmt.Errorf("core: DirHist bin %d out of range", bin)
		}
		count, cn := binary.Varint(data[off:])
		if cn <= 0 {
			return h, 0, fmt.Errorf("core: truncated DirHist count")
		}
		off += cn
		if len(data) < off+8 {
			return h, 0, fmt.Errorf("core: truncated DirHist sum")
		}
		sum := int64(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		if sb&0x80 != 0 {
			h.negCount[bin] = count
			h.negSum[bin] = sum
		} else {
			h.posCount[bin] = count
			h.posSum[bin] = sum
		}
	}
	return h, off, nil
}
