// The rolling k-mer scanner: the one place a window's packed forward and
// reverse-complement words are maintained. Every per-window producer of
// the package — ForEach, ForEachCanonical, SuperKmerCursor, Strands — is
// a view of it, so canonical form costs one two-word compare per window
// instead of a RevComp from scratch.
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

// SuperKmerCursor walks a payload of super-k-mer records (see superkmer.go
// for the frame) record by record and window by window: NextRecord opens
// the next record, Next moves to its next window, and Window or Canonical
// read that window with its extension evidence. It is the one parser of
// the frame: opening a record validates all of it before any of its
// windows is reported, and a framing error (a run shorter than k, a
// truncated record, a zero weight, trailing bytes) ends the walk with Err
// set. The zero value walks nothing; Reset points it at a payload.
//
//	var c SuperKmerCursor
//	c.Reset(payload, k)
//	for c.NextRecord() {
//		for c.Next() {
//			km, left, right := c.Canonical()
//		}
//	}
//	if err := c.Err(); err != nil { ... }
type SuperKmerCursor struct {
	rest []byte // the records not yet opened
	size int    // the payload's length
	k    int
	err  error

	// the open record
	off         int // its offset in the payload
	bases, mask []byte
	flags       byte
	weight      int
	i, last     int    // the current window (-1 before the first) and the last
	next        uint64 // base code i+k, the one the next window pushes
	r           roller

	// the current window's evidence as read, and the window canonical
	// with its evidence oriented to match
	left, right uint8
	canon       Kmer
	cl, cr      uint8
}

// Reset moves c to the start of payload, for windows of k bases.
func (c *SuperKmerCursor) Reset(payload []byte, k int) {
	c.rest, c.size, c.k, c.err = payload, len(payload), k, nil
	c.i, c.last = -1, -1
	if k <= 0 || k > MaxK {
		c.rest, c.err = nil, fmt.Errorf("%w: k=%d", ErrBadSuperKmer, k)
		return
	}
	c.r = newRoller(k)
}

// Err reports the framing error that ended the walk, or nil.
func (c *SuperKmerCursor) Err() error { return c.err }

// NextRecord opens the next record and reports whether there is one; false
// at the end of the payload or at a malformed record (Err). The cursor
// then stands before the record's first window.
func (c *SuperKmerCursor) NextRecord() bool {
	c.i, c.last = -1, -1
	p, k := c.rest, c.k
	if len(p) == 0 || c.err != nil {
		return false
	}
	if len(p) < 3 {
		c.err = fmt.Errorf("%w: truncated record header", ErrBadSuperKmer)
		return false
	}
	L, flags := int(p[0])|int(p[1])<<8, p[2]
	if L < k {
		c.err = fmt.Errorf("%w: run length %d below k=%d", ErrBadSuperKmer, L, k)
		return false
	}
	nm, nb := (L+2+7)/8, (L+3)/4
	n := 3 + nm + nb + int(flags&skFlagWeighted)>>6
	if len(p) < n {
		c.err = fmt.Errorf("%w: truncated record (L=%d)", ErrBadSuperKmer, L)
		return false
	}
	c.weight = 0
	if flags&skFlagWeighted != 0 {
		if c.weight = int(p[n-1]); c.weight == 0 {
			c.err = fmt.Errorf("%w: weight 0", ErrBadSuperKmer)
			return false
		}
	}
	c.off = c.size - len(p)
	c.mask, c.bases, c.flags, c.rest = p[3:3+nm], p[3+nm:3+nm+nb], flags, p[n:]
	c.r.load(firstWindow(c.bases, k), k)
	c.last = L - k
	return true
}

// Offset returns the open record's offset in the payload.
func (c *SuperKmerCursor) Offset() int { return c.off }

// Weight returns the open record's weight: its trailer, or 0 when it is
// unweighted (each window then stands for one occurrence).
func (c *SuperKmerCursor) Weight() int { return c.weight }

// Windows returns the number of windows of the open record.
func (c *SuperKmerCursor) Windows() int { return c.last + 1 }

// Minimizer returns the canonical minimizer (Kmer.Minimizer, at minimizer
// length m) of the open record's first window, read off the two strands
// the cursor already holds: the minimizer every window of a run
// ScanSuperKmers reported shares, and so the bin its sender placed it by.
// It must be called before Next moves past the first window.
func (c *SuperKmerCursor) Minimizer(m int) uint64 {
	return strandsMinimizer(c.r.fw, c.r.rc, c.k, m)
}

// Next moves to the open record's next window and reports whether there
// is one. The window is rolled in, both sides' evidence read, and its
// canonical form chosen here, once, whichever of Window and Canonical the
// caller then reads.
func (c *SuperKmerCursor) Next() bool {
	i := c.i + 1
	if i > c.last {
		return false
	}
	c.i = i
	mask := c.mask
	left, right := ExtAbsent, ExtAbsent
	if i == 0 {
		if c.flags&skFlagLead != 0 && mask[0]&1 != 0 {
			left = c.flags >> 2 & 3
		}
	} else {
		// base i−1 is the one about to fall off the window's top
		if mask[i>>3]>>uint(i&7)&1 != 0 {
			left = uint8(c.r.fw.W[0] >> 62)
		}
		c.r.push(c.next)
	}
	// mask bit j+1 is the quality of base j = i+k, the right neighbour
	j := i + c.k
	if i == c.last {
		if c.flags&skFlagTrail != 0 && mask[(j+1)>>3]>>uint((j+1)&7)&1 != 0 {
			right = c.flags >> 4 & 3
		}
	} else {
		c.next = uint64(c.bases[j>>2]) >> uint(6-2*(j&3)) & 3
		if mask[(j+1)>>3]>>uint((j+1)&7)&1 != 0 {
			right = uint8(c.next)
		}
	}
	c.left, c.right = left, right

	c0, c1, flipped := pick(c.r.fw.W[0], c.r.fw.W[1], c.r.rc.W[0], c.r.rc.W[1])
	c.canon = Kmer{W: [2]uint64{c0, c1}}
	// branch-free for the same reason as pick: on a flip the sides trade
	// places, complemented
	var m uint8
	if flipped {
		m = 0xff
	}
	c.cl = left ^ (left^ComplementExt(right))&m
	c.cr = right ^ (right^ComplementExt(left))&m
	return true
}

// Window returns the current window as read, with its read-oriented
// extension evidence on each side: a base code 0..3, or ExtAbsent.
func (c *SuperKmerCursor) Window() (km Kmer, left, right uint8) {
	return c.r.fw, c.left, c.right
}

// Canonical returns the current window in canonical form with its
// evidence oriented to match: when the canonical k-mer is the reverse
// complement, the two sides are swapped and complemented — what a caller
// of Window would do by hand after km.Canonical(k).
func (c *SuperKmerCursor) Canonical() (canon Kmer, left, right uint8) {
	return c.canon, c.cl, c.cr
}

// DecodeSuperKmers walks every record in payload (records are
// concatenated back to back) and calls fn once per k-mer window, in run
// order, with the window's packed k-mer as read and its left/right
// extension evidence (a base code 0..3, or ExtAbsent); a weighted record's
// windows are reported once each (SuperKmerWeight reads the weight). The
// k-mer is NOT canonicalized; SuperKmerCursor.Canonical is. Returns the
// number of windows delivered; a framing error (bad length, truncated
// record, zero weight, trailing garbage) aborts the walk with
// ErrBadSuperKmer.
func DecodeSuperKmers(payload []byte, k int, fn func(km Kmer, left, right uint8)) (windows int, err error) {
	var c SuperKmerCursor
	c.Reset(payload, k)
	for c.NextRecord() {
		for c.Next() {
			fn(c.Window())
			windows++
		}
	}
	return windows, c.Err()
}

// ComplementExt complements an extension code as the decoders report it
// (a base code 0..3), leaving ExtAbsent alone: what a side's evidence
// becomes when the k-mer it belongs to is flipped.
func ComplementExt(c uint8) uint8 { return compExt[c&7] }

// compExt is indexed by the low three bits so that a lookup needs no
// bounds check.
var compExt = [8]uint8{3, 2, 1, 0, ExtAbsent}
