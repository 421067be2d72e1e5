// Package hll implements a HyperLogLog cardinality estimator. HipMer's
// k-mer analysis makes an initial pass over the reads to estimate the
// number of distinct k-mers so the Bloom filters can be sized efficiently
// (paper §3.1). Stage 1 here sizes each owner's filters from the windows
// its minimizer bins carry instead, so no stage uses this package; the
// benchmark harness measures its add rate. Sketches are mergeable —
// registers combine by maximum.
package hll

import (
	"math"
	"math/bits"
)

// Sketch is a HyperLogLog sketch with 2^p registers.
type Sketch struct {
	p    uint8
	regs []uint8
}

// New creates a sketch with precision p in [4, 18]; the standard error is
// about 1.04/sqrt(2^p).
func New(p uint8) *Sketch {
	if p < 4 {
		p = 4
	}
	if p > 18 {
		p = 18
	}
	return &Sketch{p: p, regs: make([]uint8, 1<<p)}
}

// Add offers a pre-hashed element to the sketch.
func (s *Sketch) Add(hash uint64) {
	idx := hash >> (64 - s.p)
	rest := hash<<s.p | 1<<(s.p-1) // caps the rank at 64-p+1
	rank := uint8(bits.LeadingZeros64(rest) + 1)
	if rank > s.regs[idx] {
		s.regs[idx] = rank
	}
}

// Reset empties the sketch, keeping its registers for reuse.
func (s *Sketch) Reset() { clear(s.regs) }

// Merge folds other into s. Both sketches must share a precision.
func (s *Sketch) Merge(other *Sketch) {
	if s.p != other.p {
		panic("hll: precision mismatch in Merge")
	}
	for i, r := range other.regs {
		if r > s.regs[i] {
			s.regs[i] = r
		}
	}
}

// Estimate returns the estimated number of distinct elements added, with
// the standard small-range (linear counting) correction.
func (s *Sketch) Estimate() uint64 {
	m := float64(len(s.regs))
	var sum float64
	zeros := 0
	for _, r := range s.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		e = m * math.Log(m/float64(zeros))
	}
	return uint64(e + 0.5)
}

// Registers returns the sketch's registers, not a copy. Their element-wise
// maximum over several sketches is those sketches merged, so a team can
// reduce registers with a max collective and copy the result back.
func (s *Sketch) Registers() []uint8 { return s.regs }

// Precision returns the sketch precision p.
func (s *Sketch) Precision() uint8 { return s.p }
