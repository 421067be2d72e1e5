// Package bloom implements the Bloom filter HipMer uses during k-mer
// analysis to avoid inserting single-occurrence (overwhelmingly erroneous)
// k-mers into the main hash tables, cutting memory by up to 85% on human
// and wheat data (paper §3.1). Stage 1 here counts each owner's minimizer
// bins exactly instead, so no stage uses this package; the benchmark
// harness measures its add rate.
package bloom

import "math"

// Filter is a classic Bloom filter using Kirsch–Mitzenmacher double
// hashing: the i-th probe is h1 + i*h2. It is sized from an expected
// element count and target false-positive rate.
//
// Filter is not safe for concurrent use; the paper gives each rank its own
// filter over its owned key partition (owner computes).
type Filter struct {
	bits  []uint64
	m     uint64 // number of bits
	k     int    // number of probes
	count uint64 // elements added (estimate)
}

// New creates a filter for approximately n elements with false-positive
// probability p. n and p are clamped to sane minimums.
func New(n uint64, p float64) *Filter {
	if n == 0 {
		n = 1
	}
	if p <= 0 || p >= 1 {
		p = 0.05
	}
	// optimal m = -n ln p / (ln 2)^2, k = m/n ln 2
	m := uint64(math.Ceil(-float64(n) * math.Log(p) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Filter{bits: make([]uint64, (m+63)/64), m: m, k: k}
}

// NumProbes returns the number of hash probes per operation.
func (f *Filter) NumProbes() int { return f.k }

// Bits returns the filter size in bits.
func (f *Filter) Bits() uint64 { return f.m }

func (f *Filter) probe(h1, h2 uint64, i int) uint64 {
	return (h1 + uint64(i)*h2) % f.m
}

// Add inserts an element identified by two independent 64-bit hashes and
// reports whether it was possibly already present (i.e. all probed bits
// were set before the insert). The "possibly present" return is exactly
// what the k-mer analysis needs: the second sighting of a k-mer promotes
// it to the real hash table.
func (f *Filter) Add(h1, h2 uint64) (wasPresent bool) {
	wasPresent = true
	for i := 0; i < f.k; i++ {
		b := f.probe(h1, h2, i)
		w, mask := b>>6, uint64(1)<<(b&63)
		if f.bits[w]&mask == 0 {
			wasPresent = false
			f.bits[w] |= mask
		}
	}
	if !wasPresent {
		f.count++
	}
	return wasPresent
}

// Contains reports whether the element is possibly in the set. False
// negatives never occur.
func (f *Filter) Contains(h1, h2 uint64) bool {
	for i := 0; i < f.k; i++ {
		b := f.probe(h1, h2, i)
		if f.bits[b>>6]&(1<<(b&63)) == 0 {
			return false
		}
	}
	return true
}

// ApproxCount returns the number of distinct inserts observed (first-time
// Adds). It undercounts by the false-positive rate.
func (f *Filter) ApproxCount() uint64 { return f.count }

// FillRatio returns the fraction of set bits, useful for monitoring.
func (f *Filter) FillRatio() float64 {
	var set int
	for _, w := range f.bits {
		set += popcount(w)
	}
	return float64(set) / float64(f.m)
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
