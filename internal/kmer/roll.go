// The rolling k-mer scanner: the one place a window's packed forward and
// reverse-complement words are maintained. Every per-window producer of
// the package — ForEach, ForEachCanonical, DecodeSuperKmers,
// DecodeSuperKmersCanonical, Strands — is a view of it, so canonical form
// costs one two-word compare per window instead of a RevComp from scratch.
package kmer

import (
	"fmt"
	"math/bits"
)

// baseCodes maps a nucleotide letter (either case) to its 2-bit code, and
// everything else to 4.
var baseCodes = func() (t [256]uint8) {
	for i := range t {
		t[i] = 4
	}
	for c, b := range []byte("ACGT") {
		t[b], t[b|0x20] = uint8(c), uint8(c)
	}
	return t
}()

// complements maps a nucleotide letter (either case) to its upper-case
// complement, and everything else to 'N'.
var complements = func() (t [256]byte) {
	for i := range t {
		t[i] = 'N'
	}
	for c, b := range []byte("ACGT") {
		t[b], t[b|0x20] = "TGCA"[c], "TGCA"[c]
	}
	return t
}()

// roller holds a k-base window and its reverse complement side by side,
// both in Kmer's packed layout, and slides them one base at a time. After k
// pushes the words hold exactly the last k bases: older ones fall off the
// top of fw and are masked off the bottom of rc, so a scanner restarting
// after an invalid base only has to recount, never to clear.
type roller struct {
	fw, rc Kmer
	two    bool   // k > 32: the window spills into W[1]
	sh     uint   // bit offset of the window's last base in its word
	mask   uint64 // the last word's bases
}

func newRoller(k int) roller {
	kk := k
	if k > 32 {
		kk = k - 32
	}
	sh := uint(64 - 2*kk)
	return roller{two: k > 32, sh: sh, mask: ^uint64(0) << sh}
}

// push appends base code c on the 3' end of the window (and so prepends
// its complement to the reverse complement).
func (r *roller) push(c uint64) {
	if r.two {
		r.fw.W[0] = r.fw.W[0]<<2 | r.fw.W[1]>>62
		r.fw.W[1] = r.fw.W[1]<<2 | c<<r.sh
		r.rc.W[1] = (r.rc.W[1]>>2 | r.rc.W[0]<<62) & r.mask
		r.rc.W[0] = r.rc.W[0]>>2 | (3-c)<<62
		return
	}
	r.fw.W[0] = r.fw.W[0]<<2 | c<<r.sh
	r.rc.W[0] = (r.rc.W[0]>>2 | (3-c)<<62) & r.mask
}

// load sets the window to km and its reverse complement.
func (r *roller) load(km Kmer, k int) { r.fw, r.rc = km, km.RevComp(k) }

// pick returns the canonical one of a window's two strands, as
// Kmer.Canonical does: the reverse complement only when strictly smaller.
// Which strand wins is a coin flip per window, so the choice is computed
// as a borrow and a mask instead of a branch the predictor cannot learn.
//
// The strands travel as four words here and in the scanners' callbacks:
// Go passes a struct holding an array through memory, bare words in
// registers, and these calls happen once per window.
func pick(f0, f1, r0, r1 uint64) (c0, c1 uint64, flipped bool) {
	_, b := bits.Sub64(r1, f1, 0)
	_, b = bits.Sub64(r0, f0, b) // b = 1 iff rc < fw
	m := -b
	return f0 ^ (f0^r0)&m, f1 ^ (f1^r1)&m, b != 0
}

// Strands is a window of k bases and its reverse complement, slid together
// one base at a time: a walk over a graph keyed by canonical k-mer rolls
// both strands instead of taking a RevComp per step.
type Strands struct{ r roller }

// NewStrands starts at window fw, whose reverse complement is rc.
func NewStrands(fw, rc Kmer, k int) Strands {
	r := newRoller(k)
	r.fw, r.rc = fw, rc
	return Strands{r}
}

// Push appends base code c (0–3) on the 3' end: the window moves to
// fw.NextRight(k, c) and its reverse complement to rc.NextLeft(k, 3-c).
func (s *Strands) Push(c uint64) { s.r.push(c) }

// Fw returns the window.
func (s *Strands) Fw() Kmer { return s.r.fw }

// Canonical returns what s.Fw().Canonical(k) does, from the two strands.
func (s *Strands) Canonical() (canon Kmer, flipped bool) {
	c0, c1, flipped := pick(s.r.fw.W[0], s.r.fw.W[1], s.r.rc.W[0], s.r.rc.W[1])
	return Kmer{W: [2]uint64{c0, c1}}, flipped
}

// scan rolls over seq and reports every window of k valid bases with its
// start position and both strands (forward words f0 f1, reverse
// complement r0 r1). Windows containing a non-ACGT character are skipped.
func scan(seq []byte, k int, fn func(pos int, f0, f1, r0, r1 uint64)) {
	if len(seq) < k || k <= 0 || k > MaxK {
		return
	}
	r := newRoller(k)
	run := 0 // consecutive valid bases ending at i
	for i, b := range seq {
		c := baseCodes[b]
		if c > 3 {
			run = 0
			continue
		}
		r.push(uint64(c))
		if run++; run >= k {
			fn(i-k+1, r.fw.W[0], r.fw.W[1], r.rc.W[0], r.rc.W[1])
		}
	}
}

// ForEach calls fn for every valid k-mer window of seq, with its start
// position. Windows containing non-ACGT characters are skipped. The packed
// value is maintained incrementally, so a scan is O(len(seq)).
func ForEach(seq []byte, k int, fn func(pos int, km Kmer)) {
	scan(seq, k, func(pos int, f0, f1, _, _ uint64) { fn(pos, Kmer{W: [2]uint64{f0, f1}}) })
}

// ForEachCanonical is ForEach delivering each window in canonical form:
// fn(pos, canon, flipped) receives exactly what km.Canonical(k) returns
// for the window ForEach would have reported at pos.
func ForEachCanonical(seq []byte, k int, fn func(pos int, canon Kmer, flipped bool)) {
	scan(seq, k, func(pos int, f0, f1, r0, r1 uint64) {
		c0, c1, flipped := pick(f0, f1, r0, r1)
		fn(pos, Kmer{W: [2]uint64{c0, c1}}, flipped)
	})
}

// decode walks the super-k-mer records of payload (see superkmer.go for
// the frame) and reports every window with both strands and the read-
// oriented extension evidence on its two sides; strands as in scan.
func decode(payload []byte, k int, fn func(f0, f1, r0, r1 uint64, left, right uint8)) (windows int, err error) {
	if k <= 0 || k > MaxK {
		return 0, fmt.Errorf("%w: k=%d", ErrBadSuperKmer, k)
	}
	rd := &skReader{b: payload}
	for rd.off < len(rd.b) {
		L := rd.u16()
		flags := rd.u8()
		if rd.bad || L < k {
			return windows, fmt.Errorf("%w: run length %d below k=%d", ErrBadSuperKmer, L, k)
		}
		mask := rd.bytes((L + 2 + 7) / 8)
		bases := rd.bytes((L + 3) / 4)
		// a weighted record's trailer: a missing byte is truncation (below)
		if flags&skFlagWeighted != 0 && rd.u8() == 0 && !rd.bad {
			return windows, fmt.Errorf("%w: weight 0", ErrBadSuperKmer)
		}
		if rd.bad {
			return windows, fmt.Errorf("%w: truncated record (L=%d)", ErrBadSuperKmer, L)
		}
		baseAt := func(j int) uint64 {
			return uint64(bases[j>>2]) >> uint(6-2*(j&3)) & 3
		}
		bit := func(j int) bool {
			return mask[j>>3]>>uint(j&7)&1 == 1
		}
		// The record's bases are packed exactly like a Kmer's words (first
		// base in the top bits), so the first window is a byte load, not
		// k pushes.
		var first Kmer
		for j, b := range bases[:(k+3)/4] {
			first.W[j>>3] |= uint64(b) << uint(56-8*(j&7))
		}
		r := newRoller(k)
		r.load(first.mask(k), k)
		nwin := L - k + 1
		for i := 0; i < nwin; i++ {
			if i > 0 {
				r.push(baseAt(i + k - 1))
			}
			left, right := ExtAbsent, ExtAbsent
			if i == 0 {
				if flags&skFlagLead != 0 && bit(0) {
					left = flags >> 2 & 3
				}
			} else if bit(i) {
				left = uint8(baseAt(i - 1))
			}
			if i == nwin-1 {
				if flags&skFlagTrail != 0 && bit(L+1) {
					right = flags >> 4 & 3
				}
			} else if bit(i + k + 1) {
				right = uint8(baseAt(i + k))
			}
			fn(r.fw.W[0], r.fw.W[1], r.rc.W[0], r.rc.W[1], left, right)
		}
		windows += nwin
	}
	return windows, nil
}

// DecodeSuperKmers walks every record in payload (records are
// concatenated back to back) and calls fn once per k-mer window, in run
// order, with the window's packed k-mer as read and its left/right
// extension evidence (a base code 0..3, or ExtAbsent); a weighted record's
// windows are reported once each (SuperKmerWeight reads the weight). The
// k-mer is NOT canonicalized; DecodeSuperKmersCanonical is the variant
// that is. Returns the number of windows delivered; a framing error (bad
// length, truncated record, zero weight, trailing garbage) aborts the walk
// with ErrBadSuperKmer.
func DecodeSuperKmers(payload []byte, k int, fn func(km Kmer, left, right uint8)) (windows int, err error) {
	return decode(payload, k, func(f0, f1, _, _ uint64, left, right uint8) {
		fn(Kmer{W: [2]uint64{f0, f1}}, left, right)
	})
}

// DecodeSuperKmersCanonical is DecodeSuperKmers delivering each window in
// canonical form with its evidence oriented to match: when the canonical
// k-mer is the reverse complement, the two sides are swapped and
// complemented — what a caller of DecodeSuperKmers would do by hand after
// km.Canonical(k).
func DecodeSuperKmersCanonical(payload []byte, k int, fn func(canon Kmer, left, right uint8)) (windows int, err error) {
	return decode(payload, k, func(f0, f1, r0, r1 uint64, left, right uint8) {
		c0, c1, flipped := pick(f0, f1, r0, r1)
		// branch-free for the same reason as pick: on a flip the sides
		// trade places, complemented
		var m uint8
		if flipped {
			m = 0xff
		}
		l, r := ComplementExt(right), ComplementExt(left)
		fn(Kmer{W: [2]uint64{c0, c1}}, left^(left^l)&m, right^(right^r)&m)
	})
}

// ComplementExt complements an extension code as the decoders report it
// (a base code 0..3), leaving ExtAbsent alone: what a side's evidence
// becomes when the k-mer it belongs to is flipped.
func ComplementExt(c uint8) uint8 { return compExt[c] }

var compExt = [5]uint8{3, 2, 1, 0, ExtAbsent}
