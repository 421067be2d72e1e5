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
// Mutate on the k-mer table) and property tests.
func (km Kmer) Minimizer(k, m int) uint64 {
	mask := uint64(1)<<(2*uint(m)) - 1
	rcShift := 2 * uint(m-1)
	var fwd, rc uint64
	best := ^uint64(0)
	for i := 0; i < k; i++ {
		c := km.Base(i)
		fwd = (fwd<<2 | c) & mask
		rc = rc>>2 | (3-c)<<rcShift
		if i >= m-1 {
			v := fwd
			if rc < v {
				v = rc
			}
			if v < best {
				best = v
			}
		}
	}
	return best
}

// mmerPos is one monotone-deque entry: the canonical value of the m-mer
// whose window starts at base index pos.
type mmerPos struct {
	pos int
	val uint64
}

// ScanSuperKmers segments seq into super-k-mers: for every maximal run of
// consecutive valid k-mer windows sharing one canonical minimizer value it
// calls fn(start, nwin, minimizer), where the run covers bases
// [start, start+nwin+k-1) and its nwin windows are exactly the k-mers
// starting at start..start+nwin-1. Windows containing non-ACGT characters
// are skipped, exactly as in ForEach: every window ForEach visits belongs
// to exactly one reported run. The sliding-window minimum is maintained
// with a monotone deque, so a scan is O(len(seq)).
func ScanSuperKmers(seq []byte, k, m int, fn func(start, nwin int, minimizer uint64)) {
	if len(seq) < k || k <= 0 || k > MaxK || m <= 0 || m > k || m > MaxMinimizerLen {
		return
	}
	mask := uint64(1)<<(2*uint(m)) - 1
	rcShift := 2 * uint(m-1)

	// Deque of m-mer candidates with strictly increasing values. One
	// window holds at most k−m+1 ≤ MaxK of them; the ring is the next
	// power of two so that wrapping is a mask. Lives on the stack.
	const ringMask = 2*MaxK - 1
	var ring [ringMask + 1]mmerPos
	head, tail := 0, 0 // [head, tail) in ring, modulo len(ring)
	push := func(e mmerPos) {
		for tail != head {
			prev := (tail - 1) & ringMask
			if ring[prev].val < e.val {
				break
			}
			tail = prev
		}
		ring[tail] = e
		tail = (tail + 1) & ringMask
	}

	var fwd, rc uint64
	run := 0            // consecutive valid bases ending at i
	runStart := -1      // start of the pending super-k-mer, -1 if none
	runWins := 0        // windows accumulated in the pending run
	runMin := uint64(0) // minimizer of the pending run
	flush := func() {
		if runWins > 0 {
			fn(runStart, runWins, runMin)
		}
		runStart, runWins = -1, 0
	}
	for i := 0; i < len(seq); i++ {
		c := uint64(baseCodes[seq[i]])
		if c > 3 {
			flush()
			run = 0
			head, tail = 0, 0
			fwd, rc = 0, 0
			continue
		}
		run++
		fwd = (fwd<<2 | c) & mask
		rc = rc>>2 | (3-c)<<rcShift
		if run >= m {
			v := fwd
			if rc < v {
				v = rc
			}
			push(mmerPos{pos: i - m + 1, val: v})
		}
		if run < k {
			continue
		}
		w := i - k + 1 // current k-mer window start
		for head != tail && ring[head].pos < w {
			head = (head + 1) & ringMask
		}
		minv := ring[head].val
		if runWins > 0 && minv == runMin {
			runWins++
			continue
		}
		flush()
		runStart, runWins, runMin = w, 1, minv
	}
	flush()
}
