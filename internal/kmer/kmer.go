// Package kmer provides the packed k-mer type used throughout the
// assembler: up to 64 bases in two machine words, with the canonical-form,
// reverse-complement and neighbor operations the de Bruijn graph needs,
// plus the extension codes Meraculous attaches to each k-mer.
//
// Encoding: A=0, C=1, G=2, T=3 (lexicographic), two bits per base. Base 0
// (the 5' end) occupies the most significant bit pair of word 0, so that
// comparing words numerically compares k-mers lexicographically. Bases
// 32..63 live in word 1 with the same convention. Unused low-order bits
// are zero, which Pack and the neighbor operations maintain as an
// invariant.
package kmer

import (
	"fmt"
	"math/bits"
)

// MaxK is the largest supported k-mer length.
const MaxK = 64

// Kmer is a packed DNA string of externally-known length k ≤ 64.
// The zero value is the all-'A' k-mer.
type Kmer struct {
	W [2]uint64
}

// BaseCode maps a nucleotide letter to its 2-bit code; ok is false for
// non-ACGT characters (e.g. 'N'). Lower case is accepted.
func BaseCode(b byte) (code uint64, ok bool) {
	c := baseCodes[b]
	return uint64(c & 3), c < 4
}

// CodeBase is the inverse of BaseCode for valid codes 0..3.
func CodeBase(c uint64) byte { return "ACGT"[c&3] }

// Complement returns the complementary base letter: upper case for a
// nucleotide of either case, 'N' for anything else.
func Complement(b byte) byte { return complements[b] }

// Pack converts seq[0:k] into a Kmer. ok is false if the window contains a
// non-ACGT character.
func Pack(seq []byte, k int) (km Kmer, ok bool) {
	if k <= 0 || k > MaxK || len(seq) < k {
		return Kmer{}, false
	}
	for i := 0; i < k; i++ {
		c, valid := BaseCode(seq[i])
		if !valid {
			return Kmer{}, false
		}
		km.setBase(i, c)
	}
	return km, true
}

// FromString packs a string; it panics on invalid input (intended for
// tests and literals).
func FromString(s string) Kmer {
	km, ok := Pack([]byte(s), len(s))
	if !ok {
		panic(fmt.Sprintf("kmer: invalid k-mer literal %q", s))
	}
	return km
}

func (km *Kmer) setBase(i int, c uint64) {
	w := i >> 5
	sh := uint(62 - 2*(i&31))
	km.W[w] = km.W[w]&^(3<<sh) | c<<sh
}

// Base returns the 2-bit code of base i.
func (km Kmer) Base(i int) uint64 {
	w := i >> 5
	sh := uint(62 - 2*(i&31))
	return km.W[w] >> sh & 3
}

// Append returns the string s with the k bases of km appended.
func (km Kmer) Append(s []byte, k int) []byte {
	for i := 0; i < k; i++ {
		s = append(s, CodeBase(km.Base(i)))
	}
	return s
}

// String renders the k-mer as ACGT text.
func (km Kmer) String(k int) string {
	return string(km.Append(make([]byte, 0, k), k))
}

// grouprev reverses the order of the 32 two-bit groups in v.
func grouprev(v uint64) uint64 {
	v = (v&0x3333333333333333)<<2 | v>>2&0x3333333333333333
	v = (v&0x0f0f0f0f0f0f0f0f)<<4 | v>>4&0x0f0f0f0f0f0f0f0f
	return bits.ReverseBytes64(v)
}

// RevComp returns the reverse complement of a k-mer of length k.
func (km Kmer) RevComp(k int) Kmer {
	if k <= 32 {
		// One word: complementing turns the zero padding into ones,
		// reversing moves them to the top, and the shift that re-aligns
		// the k bases pushes exactly those out.
		return Kmer{W: [2]uint64{grouprev(^km.W[0]) << uint(64-2*k), 0}}
	}
	// Reverse-complement as if the k-mer were 64 bases long, then shift
	// the result left so the k meaningful bases re-align at position 0.
	r0 := grouprev(^km.W[1])
	r1 := grouprev(^km.W[0])
	return Kmer{W: [2]uint64{r0, r1}}.shiftLeftBases(64 - k).mask(k)
}

// shiftLeftBases shifts the 128-bit base string left by n bases (toward
// position 0), discarding the leading bases.
func (km Kmer) shiftLeftBases(n int) Kmer {
	b := uint(2 * n)
	switch {
	case b == 0:
		return km
	case b < 64:
		return Kmer{W: [2]uint64{km.W[0]<<b | km.W[1]>>(64-b), km.W[1] << b}}
	case b == 64:
		return Kmer{W: [2]uint64{km.W[1], 0}}
	case b < 128:
		return Kmer{W: [2]uint64{km.W[1] << (b - 64), 0}}
	default:
		return Kmer{}
	}
}

// shiftRightBases shifts the 128-bit base string right by n bases.
func (km Kmer) shiftRightBases(n int) Kmer {
	b := uint(2 * n)
	switch {
	case b == 0:
		return km
	case b < 64:
		return Kmer{W: [2]uint64{km.W[0] >> b, km.W[1]>>b | km.W[0]<<(64-b)}}
	case b == 64:
		return Kmer{W: [2]uint64{0, km.W[0]}}
	case b < 128:
		return Kmer{W: [2]uint64{0, km.W[0] >> (b - 64)}}
	default:
		return Kmer{}
	}
}

// mask zeroes every bit beyond the k-th base, restoring the invariant.
func (km Kmer) mask(k int) Kmer {
	if k >= 64 {
		return km
	}
	if k > 32 {
		keep := uint(2 * (k - 32))
		km.W[1] &= ^uint64(0) << (64 - keep)
		return km
	}
	if k == 32 {
		km.W[1] = 0
		return km
	}
	km.W[0] &= ^uint64(0) << (64 - uint(2*k))
	km.W[1] = 0
	return km
}

// NextRight returns the neighbor reached by shifting in base code c on the
// right (3') end: km[1:k] + c.
func (km Kmer) NextRight(k int, c uint64) Kmer {
	n := km.shiftLeftBases(1).mask(k)
	n.setBase(k-1, c&3)
	return n
}

// NextLeft returns the neighbor reached by shifting in base code c on the
// left (5') end: c + km[0:k-1].
func (km Kmer) NextLeft(k int, c uint64) Kmer {
	n := km.shiftRightBases(1).mask(k)
	n.setBase(0, c&3)
	return n
}

// Less reports lexicographic order.
func (km Kmer) Less(o Kmer) bool {
	if km.W[0] != o.W[0] {
		return km.W[0] < o.W[0]
	}
	return km.W[1] < o.W[1]
}

// Canonical returns the lexicographically smaller of km and its reverse
// complement, plus whether the result is the reverse complement (flipped).
func (km Kmer) Canonical(k int) (canon Kmer, flipped bool) {
	rc := km.RevComp(k)
	if rc.Less(km) {
		return rc, true
	}
	return km, false
}

// Hash mixes the k-mer into a 64-bit hash with the given seed.
func (km Kmer) Hash(seed uint64) uint64 {
	h := splitmix(km.W[0] ^ seed)
	return splitmix(h ^ bits.RotateLeft64(km.W[1], 31))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// --- extension codes -------------------------------------------------

// Ext codes describe what lies beyond one end of a k-mer (or contig) in
// the read data set, following Meraculous:
//
//	'A','C','G','T' — a unique high-quality extension base
//	ExtFork         — two or more high-quality candidate bases (branch)
//	ExtNone         — no high-quality extension (dead end)
const (
	ExtFork byte = 'F'
	ExtNone byte = 'X'
)

// IsBaseExt reports whether e is a concrete base extension.
func IsBaseExt(e byte) bool {
	return e == 'A' || e == 'C' || e == 'G' || e == 'T'
}

// RevCompString reverse-complements an ASCII DNA sequence (N maps to N).
func RevCompString(s []byte) []byte {
	return AppendRevComp(make([]byte, 0, len(s)), s)
}

// AppendRevComp appends the reverse complement of s to dst: RevCompString
// into a buffer the caller owns.
func AppendRevComp(dst, s []byte) []byte {
	for i := len(s) - 1; i >= 0; i-- {
		dst = append(dst, complements[s[i]])
	}
	return dst
}
