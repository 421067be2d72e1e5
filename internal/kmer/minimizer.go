// Canonical minimizer scanning for super-k-mer binning.
//
// The minimizer of a k-mer window is the smallest canonical m-mer value it
// contains, where the canonical value of an m-mer is min(fwd, revcomp)
// packed in the low 2m bits of a uint64. Because a window and its reverse
// complement contain the same set of canonical m-mer values, the minimizer
// is invariant under strand flips — both orientations of a k-mer route to
// the same owner. Consecutive windows of a read usually share their
// minimizer, so a read decomposes into a small number of maximal runs
// ("super-k-mers"): L bases carrying L−k+1 k-mers that can travel as one
// sequence-packed record instead of L−k+1 table items.
package kmer

// MaxMinimizerLen is the largest supported minimizer length (the canonical
// m-mer value must fit a uint64 with two bits per base, and one bit of
// headroom keeps min(fwd,rc) comparisons cheap).
const MaxMinimizerLen = 31

// DefaultMinimizerLen is the minimizer length used when the caller does not
// choose one. 4^9 ≈ 262k distinct minimizers spread well over any
// realistic rank count while keeping runs long (~(k−m+2)/2 windows).
const DefaultMinimizerLen = 9

// ClampMinimizerLen resolves a requested minimizer length m against k-mer
// length k: 0 (or negative) selects the default, values are capped below k
// and at MaxMinimizerLen, and forced odd (an odd m cannot equal its own
// reverse complement, which keeps canonical m-mer ties rare).
func ClampMinimizerLen(k, m int) int {
	if m <= 0 {
		m = DefaultMinimizerLen
	}
	if m >= k {
		m = k - 1
	}
	if m > MaxMinimizerLen {
		m = MaxMinimizerLen
	}
	if m%2 == 0 {
		m--
	}
	if m < 1 {
		m = 1
	}
	return m
}

// MinimizerHash scatters a canonical m-mer value into a placement hash.
// Minimizer values are short and highly structured (low-entropy high bits),
// so placement must not use them raw.
func MinimizerHash(v uint64) uint64 { return splitmix(v ^ 0x51edbead) }

// Minimizer returns the canonical minimizer value of a packed k-mer: the
// minimum over its k−m+1 m-mer windows of min(fwd, revcomp) packed in the
// low 2m bits. It is invariant under RevComp: km.Minimizer(k,m) ==
// km.RevComp(k).Minimizer(k,m). O(k); the streaming scanner below keeps
// per-window cost O(1), this form serves placement of single keys (Get /
// Mutate on the k-mer table), the bin of a super-k-mer record
// (SuperKmerCursor.Minimizer) and property tests.
func (km Kmer) Minimizer(k, m int) uint64 {
	return strandsMinimizer(km, km.RevComp(k), k, m)
}

// strandsMinimizer is Kmer.Minimizer of a window fw whose reverse
// complement is rc. A window's canonical m-mers are the pairs
// min(fwd, revcomp) at each offset, and the reverse complements of its
// m-mers are exactly the m-mers of rc, so the minimizer is the smallest
// m-mer of either strand. Each strand is shifted down so that its last
// base is the lowest pair of bits; its m-mers are then the low 2m bits as
// it shifts on down, two bits a step, with constant shifts only.
func strandsMinimizer(fw, rc Kmer, k, m int) uint64 {
	mask := uint64(1)<<(2*uint(m)) - 1
	if k <= 32 {
		s := uint(64 - 2*k)
		f, r := fw.W[0]>>s, rc.W[0]>>s
		bf, br := f&mask, r&mask
		for j := m; j < k; j++ {
			f, r = f>>2, r>>2
			bf, br = min(bf, f&mask), min(br, r&mask)
		}
		return min(bf, br)
	}
	// Two words: (f0, f1) and (r0, r1) are the strands as 128-bit values.
	s := uint(128 - 2*k)
	f0, f1 := fw.W[0]>>s, fw.W[1]>>s|fw.W[0]<<(64-s)
	r0, r1 := rc.W[0]>>s, rc.W[1]>>s|rc.W[0]<<(64-s)
	bf, br := f1&mask, r1&mask
	for j := m; j < k; j++ {
		f0, f1 = f0>>2, f1>>2|f0<<62
		r0, r1 = r0>>2, r1>>2|r0<<62
		bf, br = min(bf, f1&mask), min(br, r1&mask)
	}
	return min(bf, br)
}

// ScanSuperKmers segments seq into super-k-mers: for every maximal run of
// consecutive valid k-mer windows sharing one canonical minimizer value it
// calls fn(start, nwin, minimizer), where the run covers bases
// [start, start+nwin+k-1) and its nwin windows are exactly the k-mers
// starting at start..start+nwin-1. Windows containing non-ACGT characters
// are skipped, exactly as in ForEach: every window ForEach visits belongs
// to exactly one reported run.
//
// The sliding-window minimum keeps the window's smallest m-mer and the
// last position holding it, and rescans the window's k−m+1 m-mers only
// when that position leaves it: on random sequence about once per
// (k−m+2)/2 windows, and never more than once per window.
func ScanSuperKmers(seq []byte, k, m int, fn func(start, nwin int, minimizer uint64)) {
	if len(seq) < k || k <= 0 || k > MaxK || m <= 0 || m > k || m > MaxMinimizerLen {
		return
	}
	mask := uint64(1)<<(2*uint(m)) - 1
	rcShift := 2 * uint(m-1)

	// The canonical m-mers of the last 64 positions, by position mod 64: a
	// window holds k−m+1 ≤ MaxK of them. Lives on the stack.
	var vals [MaxK]uint64
	var fwd, rc uint64
	run := 0                         // consecutive valid bases ending at i
	minPos, minVal := -1, ^uint64(0) // the window's smallest m-mer, last position holding it
	runStart, runWins := 0, 0        // the pending super-k-mer, none while runWins is 0,
	runMin := uint64(0)              // and its minimizer
	for i := 0; i < len(seq); i++ {
		c := uint64(baseCodes[seq[i]])
		if c > 3 {
			if runWins > 0 {
				fn(runStart, runWins, runMin)
			}
			run, runWins, minVal = 0, 0, ^uint64(0)
			continue
		}
		run++
		fwd = (fwd<<2 | c) & mask
		rc = rc>>2 | (3-c)<<rcShift
		if run < m {
			continue
		}
		p := i - m + 1 // the m-mer just completed starts here
		v := min(fwd, rc)
		vals[p&(MaxK-1)] = v
		if v <= minVal {
			minPos, minVal = p, v
		}
		if run < k {
			continue
		}
		w := i - k + 1 // current k-mer window start
		if minPos < w {
			minVal = ^uint64(0)
			for q := w; q <= p; q++ {
				if x := vals[q&(MaxK-1)]; x <= minVal {
					minPos, minVal = q, x
				}
			}
		}
		if runWins > 0 && minVal == runMin {
			runWins++
			continue
		}
		if runWins > 0 {
			fn(runStart, runWins, runMin)
		}
		runStart, runWins, runMin = w, 1, minVal
	}
	if runWins > 0 {
		fn(runStart, runWins, runMin)
	}
}
