// Super-k-mer wire codec.
//
// One record carries a run of L bases covering L−k+1 overlapping k-mers
// plus the extension evidence k-mer analysis needs from the enclosing
// read: the bases immediately flanking the run and a per-position quality
// bit. The frame is deterministic little-endian, decoded by a sticky-error
// reader in the style of internal/ckpt (which this package cannot import
// without a cycle):
//
//	u16  L      run length in bases (k ≤ L ≤ 65535)
//	u8   flags  bit0 hasLead, bit1 hasTrail,
//	            bits2-3 lead base code, bits4-5 trail base code,
//	            bit6 weighted
//	[..] mask   ceil((L+2)/8) bytes, LSB-first: bit 0 = lead neighbor,
//	            bits 1..L = the run's bases, bit L+1 = trail neighbor;
//	            a set bit means "extension-quality position"
//	[..] bases  ceil(L/4) bytes, 2-bit codes, MSB-first within each byte
//	[u8] weight weighted records only: 1..255 occurrences per window
//	            (a read's records are unweighted: one occurrence each)
//
// A 13-window run (L = k+12) costs ~3 + (L+2+7)/8 + (L+3)/4 bytes —
// roughly 1.6 bytes per k-mer occurrence versus the ~26-byte per-item
// store record, which is where the stage-1 communication drop comes from.
package kmer

import (
	"encoding/binary"
	"errors"
)

// ExtAbsent is the left/right neighbor code DecodeSuperKmers reports when a
// window has no usable extension evidence on that side (run boundary with
// no flanking base, or a flanking base below the quality threshold).
// Concrete evidence is a 2-bit base code 0..3.
const ExtAbsent uint8 = 4

// MaxSuperKmerBases is the longest run one record can frame.
const MaxSuperKmerBases = 1<<16 - 1

// MaxSuperKmerWeight is the largest weight a record can carry.
const MaxSuperKmerWeight = 255

// ErrBadSuperKmer reports a malformed super-k-mer payload.
var ErrBadSuperKmer = errors.New("kmer: malformed super-k-mer payload")

const (
	skFlagLead     = 1 << 0
	skFlagTrail    = 1 << 1
	skFlagWeighted = 1 << 6
)

// SuperKmerRecordBytes returns the encoded size of an unweighted record
// covering L bases (a weighted one is a byte longer).
func SuperKmerRecordBytes(L int) int { return 3 + (L+2+7)/8 + (L+3)/4 }

// SuperKmerRecordLen returns the encoded size of the record payload starts
// with, read off its frame header, so a caller can walk a payload record by
// record. It returns 0 when the header is truncated or the record it frames
// runs past the end of payload; the record itself is not validated (the
// decoders do that).
func SuperKmerRecordLen(payload []byte) int {
	if len(payload) < 3 {
		return 0
	}
	weighted := int(payload[2]&skFlagWeighted) >> 6 // the trailer's byte
	if n := SuperKmerRecordBytes(int(payload[0])|int(payload[1])<<8) + weighted; n <= len(payload) {
		return n
	}
	return 0
}

// SuperKmerWeight returns the weight of one whole record, as
// SuperKmerRecordLen cuts it: its trailer, or 0 when it is unweighted.
func SuperKmerWeight(record []byte) int {
	if record[2]&skFlagWeighted == 0 {
		return 0
	}
	return int(record[len(record)-1])
}

// AppendSuperKmer appends one encoded record covering seq[start:start+L] to
// dst and returns the extended slice. Flanking bases at start−1 and
// start+L are captured as lead/trail evidence when present and ACGT. The
// quality mask records, for the lead, each run base, and the trail,
// whether qual at that position clears qualThresh (Phred+33, same
// convention as k-mer analysis); a nil qual qualifies every position. ok
// is false — and dst is returned unchanged — if the window is out of
// range, longer than MaxSuperKmerBases, or contains a non-ACGT base.
func AppendSuperKmer(dst []byte, seq, qual []byte, start, L, qualThresh int) (out []byte, ok bool) {
	if L < 1 || L > MaxSuperKmerBases || start < 0 || start+L > len(seq) {
		return dst, false
	}
	flags := byte(0)
	if p := start - 1; p >= 0 {
		if c := baseCodes[seq[p]]; c < 4 {
			flags |= skFlagLead | c<<2
		}
	}
	if p := start + L; p < len(seq) {
		if c := baseCodes[seq[p]]; c < 4 {
			flags |= skFlagTrail | c<<4
		}
	}
	base := len(dst)
	dst = append(dst, byte(L), byte(L>>8), flags)

	// Quality mask, built a 64-bit word at a time: stream bit j covers
	// position start-1+j (lead, the run, trail) and lands LSB-first, so a
	// word goes out little-endian.
	var w uint64
	for j := 0; j < L+2; j++ {
		if p := start - 1 + j; p >= 0 && (qual == nil || p < len(qual) && int(qual[p])-33 >= qualThresh) {
			w |= 1 << uint(j&63)
		}
		if j&63 == 63 {
			dst = binary.LittleEndian.AppendUint64(dst, w)
			w = 0
		}
	}
	for rem := (L+2+7)/8 - (L+2)/64*8; rem > 0; rem-- {
		dst = append(dst, byte(w))
		w >>= 8
	}

	var cur byte
	for j := 0; j < L; j++ {
		c := baseCodes[seq[start+j]]
		if c > 3 {
			return dst[:base], false
		}
		cur |= c << uint(6-2*(j&3))
		if j&3 == 3 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if L&3 != 0 {
		dst = append(dst, cur)
	}
	return dst, true
}

// AppendWeightedSuperKmer is AppendSuperKmer for a record each of whose
// windows stands for weight occurrences, flagged and carrying weight as its
// trailer. Weight 0 appends the unweighted record; one above
// MaxSuperKmerWeight is refused (ok false), never truncated.
func AppendWeightedSuperKmer(dst []byte, seq, qual []byte, start, L, qualThresh, weight int) (out []byte, ok bool) {
	if weight < 0 || weight > MaxSuperKmerWeight {
		return dst, false
	}
	if out, ok = AppendSuperKmer(dst, seq, qual, start, L, qualThresh); ok && weight > 0 {
		out[len(dst)+2] |= skFlagWeighted
		out = append(out, byte(weight))
	}
	return out, ok
}

// skReader is a sticky bounds-checked cursor over a super-k-mer payload.
type skReader struct {
	b   []byte
	off int
	bad bool
}

func (r *skReader) fail() { r.bad = true }

func (r *skReader) u8() byte {
	if r.bad || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *skReader) u16() int {
	lo, hi := r.u8(), r.u8()
	return int(lo) | int(hi)<<8
}

func (r *skReader) bytes(n int) []byte {
	if r.bad || n < 0 || len(r.b)-r.off < n {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}
