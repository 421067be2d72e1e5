// Super-k-mer wire codec.
//
// One record carries a run of L bases covering L−k+1 overlapping k-mers
// plus the extension evidence k-mer analysis needs from the enclosing
// read: the bases immediately flanking the run and a per-position quality
// bit. The frame is deterministic little-endian, parsed and validated in
// one place, SuperKmerCursor (roll.go):
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
	"slices"
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

// firstWindow is the k-mer of the first k bases of a record's packed
// bases, which are laid out exactly like a Kmer's words (first base in the
// top bits), so it is a word load, not k pushes.
func firstWindow(bases []byte, k int) Kmer {
	var first Kmer
	j := 0
	if len(bases) >= 8 {
		first.W[0], j = binary.BigEndian.Uint64(bases), 8
		if k > 32 && len(bases) >= 16 {
			first.W[1], j = binary.BigEndian.Uint64(bases[8:]), 16
		}
	}
	for ; j < (k+3)/4; j++ {
		first.W[j>>3] |= uint64(bases[j]) << uint(56-8*(j&7))
	}
	return first.mask(k)
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
	dst = slices.Grow(dst, SuperKmerRecordBytes(L))
	dst = append(dst, byte(L), byte(L>>8), flags)
	dst = appendQualMask(dst, qual, start-1, L+2, qualThresh)

	// The bases, four to a byte and so four per step: codes are 0..3 for
	// ACGT and 4 otherwise, so one OR tells whether all four are bases.
	run := seq[start : start+L]
	for ; len(run) >= 4; run = run[4:] {
		c0, c1, c2, c3 := baseCodes[run[0]], baseCodes[run[1]], baseCodes[run[2]], baseCodes[run[3]]
		if c0|c1|c2|c3 > 3 {
			return dst[:base], false
		}
		dst = append(dst, c0<<6|c1<<4|c2<<2|c3)
	}
	if len(run) > 0 {
		var cur byte
		for j, b := range run {
			c := baseCodes[b]
			if c > 3 {
				return dst[:base], false
			}
			cur |= c << uint(6-2*j)
		}
		dst = append(dst, cur)
	}
	return dst, true
}

// appendQualMask appends the quality mask of the n positions p0, p0+1, …
// of a read, a byte per eight positions, LSB-first: a position's bit is
// set when it is not before the read (p ≥ 0) and qual is nil or holds a
// byte there of at least qualThresh+33. Bits past the n-th are clear.
func appendQualMask(dst, qual []byte, p0, n, qualThresh int) []byte {
	// Eight quality bytes x at once, against t = qualThresh+33: x ≥ t is
	// the carry out of x + (256−t), which is computed below the top bit of
	// each byte so no carry crosses into the next; the eight carries are
	// then gathered into one byte by a multiply. A t above 255 adds 0 and
	// carries nowhere; a t of 0 or below qualifies every byte.
	const lo7, hi1 = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	all := qualThresh <= -33
	c := uint64(0)
	if !all && qualThresh <= 255-33 {
		c = uint64(256-(qualThresh+33)) * 0x0101010101010101
	}
	for j := 0; j < n; j += 8 {
		p := p0 + j
		var b byte
		inside := p >= 0 && p+8 <= len(qual)
		switch {
		case p >= 0 && qual == nil, inside && all:
			b = 0xff
		case inside:
			x := binary.LittleEndian.Uint64(qual[p:])
			carry := (x&c | (x|c)&((x&lo7)+(c&lo7))) & hi1
			b = byte((carry >> 7) * 0x0102040810204080 >> 56)
		default: // the read's ends
			for i := 0; i < 8; i++ {
				if q := p + i; q >= 0 && (qual == nil || q < len(qual) && int(qual[q])-33 >= qualThresh) {
					b |= 1 << i
				}
			}
		}
		if rem := n - j; rem < 8 {
			b &= 1<<rem - 1
		}
		dst = append(dst, b)
	}
	return dst
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
