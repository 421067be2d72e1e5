package gapclose

import (
	"bytes"
	"runtime"
	"sync"

	"hipmer/internal/aligner"
	"hipmer/internal/flat"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// scratch is the working memory of one running task — a spanning scan, a
// (gap, k) ladder step, a patch and its verification. The zero value is
// ready: each buffer is allocated by the first task that needs it and
// reused by every later one, so a warmed scratch allocates only what its
// task returns. Only the task that took it from the pool touches it.
type scratch struct {
	graph      miniGraph
	walked     []byte      // the walk in progress
	rcLa, rcRa []byte      // reverse complements of the spanning anchors
	a, b       []byte      // patching operands
	joined     []byte      // verification window: left flank + closure + right flank
	windows    []kmer.Kmer // the verification window's canonical k-mers
}

// scratchPool hands out the scratches of one Run: as many as goroutines can
// physically run at once, however many ranks hold a task — the ladder split
// would otherwise grow a mini-graph on three ranks where the whole-gap loop
// grew one — and the one returned last first, so that a Run whose tasks
// never overlap warms a single scratch. Nothing blocks while it holds one
// (a task is pure computation, verification reads a frozen table), so a
// smaller pool would idle a processor and a larger one only spend memory.
// Taking one waits in wall time only; the virtual clock never sees the pool.
type scratchPool struct {
	out  chan struct{} // one token per scratch taken and not yet returned
	mu   sync.Mutex
	idle []*scratch
}

func newScratchPool() *scratchPool {
	return &scratchPool{out: make(chan struct{}, runtime.GOMAXPROCS(0))}
}

func (p *scratchPool) get() *scratch {
	p.out <- struct{}{}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.idle); n > 0 {
		s := p.idle[n-1]
		p.idle = p.idle[:n-1]
		return s
	}
	return new(scratch)
}

func (p *scratchPool) put(s *scratch) {
	p.mu.Lock()
	p.idle = append(p.idle, s)
	p.mu.Unlock()
	<-p.out
}

// miniGraph is the mini-assembly de Bruijn graph of one gap at one k: for
// every canonical k-mer of the gap's reads, how often each base follows it
// (counts[0:4]) and how often each base follows its reverse complement
// (counts[4:8]). Both strands of a window share one entry, so a build makes
// one upsert per window. Walk k ≤ 41 fits the two-word k-mer, so windows
// are packed, never copied; k is odd, so no window is its own reverse
// complement and the two halves never alias.
//
// Only windows of k nucleotides are stored, with case folded as everywhere
// else in package kmer. A walk whose start window holds another character
// dead-ends at once, and an anchor window that does never matches — the
// flanks of scaffolding rounds ≥ 2 are earlier scaffolds and carry the Ns
// of unclosed gaps. (A table keyed by the window's bytes would match such
// a window only against a read with the same characters at the same
// offsets, and reads carry no N runs.)
type miniGraph struct {
	counts flat.Map[kmer.Kmer, [8]int32]
}

// miniGraphHash is the graph's hash of a packed k-mer: one finalizer, a
// bijection on the one-word k-mers of k ≤ 32. Kmer.Hash's two rounds of
// mixing were a fifth of a build.
func miniGraphHash(km kmer.Kmer) uint64 {
	return flat.Mix(km.W[0] ^ km.W[1]*0x9e3779b97f4a7c15)
}

// build replaces the graph with that of reads at k, in one rolling pass per
// read: the window at pos is followed by read[pos+k] on the read's strand,
// and its reverse complement by the complement of read[pos-1] on the other.
// k must be odd.
func (g *miniGraph) build(reads [][]byte, k int) {
	if k%2 == 0 {
		panic("gapclose: mini-graph k must be odd")
	}
	g.counts.Clear()
	for _, rd := range reads {
		kmer.ForEachCanonical(rd, k, func(pos int, canon kmer.Kmer, flipped bool) {
			// the counts after the read's window start at half, those after
			// its reverse complement at 4 - half
			half := 0
			if flipped {
				half = 4
			}
			v, _ := g.counts.Upsert(miniGraphHash(canon), canon)
			if pos+k < len(rd) {
				if c, ok := kmer.BaseCode(rd[pos+k]); ok {
					v[half+int(c)]++
				}
			}
			if pos > 0 {
				if c, ok := kmer.BaseCode(rd[pos-1]); ok {
					v[7-half-int(c)]++
				}
			}
		})
	}
}

// after returns the counts of the bases following window w, or nil when no
// read holds it.
func (g *miniGraph) after(w *kmer.Strands) *[4]int32 {
	canon, flipped := w.Canonical()
	v := g.counts.Get(miniGraphHash(canon), canon)
	if v == nil {
		return nil
	}
	if flipped {
		return (*[4]int32)(v[4:])
	}
	return (*[4]int32)(v[:4])
}

const (
	// minOverlap is the anchor length for spanning and patching.
	minOverlap = 15
	// minIdentity is the least identity of a patching overlap.
	minIdentity = 0.92
	// walkK, maxWalkK and walkKStep are the mini-assembly k ladder: the
	// first k, the last, and the increment between walk attempts.
	walkK     = 21
	maxWalkK  = 41
	walkKStep = 10
	// maxGapFactor bounds a walk to maxGapFactor × the estimated gap plus
	// a constant slack, protecting against runaway walks.
	maxGapFactor = 3
)

// ladderStep is the outcome of one (gap, k) task: the closure when a walk
// crossed the gap at this k, otherwise how far each directed walk got.
type ladderStep struct {
	ok           bool
	seq          []byte // the closure, in scaffold direction (ok only)
	partL, partR []byte // the partial walks from the left and the right flank
}

// walkStep is the walking half of one (gap, k) task, over the gap's
// mini-graph at k that s holds: a walk from the left flank and, failing
// that, one from the right. It returns the bases the walks looked up, at
// most walkBound(g), and those they filled in by copying a cycle (see
// walk). A task needs nothing of the gap's other k values, so the steps of
// one ladder can run on different ranks; reduceLadder puts their outcomes
// back in order. The caller has checked that both flanks hold k bases.
func (s *scratch) walkStep(g *gapState, k int, out *ladderStep) (steps, filled int) {
	maxLen := g.est*maxGapFactor + 200
	from, fromOK := kmer.Pack(g.left[len(g.left)-k:], k)
	to, toOK := kmer.Pack(g.right, k)
	fromRC, toRC := from.RevComp(k), to.RevComp(k)
	var n int
	out.ok, n = s.walk(from, fromRC, to, fromOK, toOK, k, maxLen)
	steps, filled = n, len(s.walked)-n
	if out.ok {
		out.seq = bytes.Clone(s.closure(k))
		return steps, filled
	}
	out.partL = append(out.partL[:0], s.walked...)
	// right-to-left: the same walk on the other strand, from the reverse
	// complement of the right anchor to that of the left
	out.ok, n = s.walk(toRC, to, fromRC, toOK, fromOK, k, maxLen)
	steps, filled = steps+n, filled+len(s.walked)-n
	if out.ok {
		out.seq = kmer.RevCompString(s.closure(k))
		return steps, filled
	}
	out.partR = append(out.partR[:0], s.walked...)
	return steps, filled
}

// walkBound is the most steps walkStep can take on g at any k of the
// ladder: two walks of at most maxGapFactor × the estimate + 200 bases past
// the anchor, and the k bases of the anchor they end on.
func walkBound(g *gapState) int {
	return 2 * (g.est*maxGapFactor + 200 + maxWalkK)
}

// reduceLadder folds the steps of one gap's ladder, given in order of
// increasing k, into what trying them one after the other yields: the
// closure of the smallest k that walked across (at is its index), or else
// (at = -1) the longest partial walk from either side, the smaller k
// winning ties — the operands of patching.
func reduceLadder(steps []ladderStep) (at int, bestL, bestR []byte) {
	for i := range steps {
		st := &steps[i]
		if st.ok {
			return i, nil, nil
		}
		if len(st.partL) > len(bestL) {
			bestL = st.partL
		}
		if len(st.partR) > len(bestR) {
			bestR = st.partR
		}
	}
	return -1, bestL, bestR
}

// patch overlaps the two partial walks (§4.8's final method): the left
// flank extended by bestL against the reverse complement of bestR followed
// by the right flank.
func (s *scratch) patch(g *gapState, bestL, bestR []byte) ([]byte, bool) {
	s.a = append(append(s.a[:0], g.left...), bestL...)
	s.b = append(kmer.AppendRevComp(s.b[:0], bestR), g.right...)
	if o, ok := aligner.BestOverlap(s.a, s.b, minOverlap, minIdentity); ok {
		// joined = a + (b after the overlap); the closure is the part
		// strictly between the flanks
		s.a = append(s.a, s.b[o.LenB:]...)
		if len(s.a) >= len(g.left)+len(g.right) {
			return bytes.Clone(s.a[len(g.left) : len(s.a)-len(g.right)]), true
		}
	}
	return nil, false
}

// verifyClosure checks a closure's junction k-mers — every window that
// touches closure sequence or straddles a flank boundary — against the
// frozen global k-mer table. A correct closure is assembled from real
// read k-mers, so most junction windows should have survived k-mer
// analysis; a chimeric join produces windows never seen in any read. The
// closure is deemed verified when at least half the windows are found
// (single-read spans legitimately contain low-count k-mers the MinCount
// filter dropped). The windows are all known up front, so they are read
// in one batch, lock-free on the frozen table.
func (s *scratch) verifyClosure(r *xrt.Rank, g *gapState, seq []byte, opt Options) bool {
	k := opt.K
	s.joined = append(append(append(s.joined[:0], g.left...), seq...), g.right...)
	lo := max(len(g.left)-k+1, 0)
	hi := min(len(g.left)+len(seq), len(s.joined)-k)
	if hi < lo {
		return false
	}
	s.windows = s.windows[:0]
	kmer.ForEachCanonical(s.joined[lo:hi+k], k, func(_ int, canon kmer.Kmer, _ bool) {
		s.windows = append(s.windows, canon)
	})
	found := 0
	opt.KmerTable.GetBatch(r, s.windows, func(_ int, _ kanalysis.KmerData, ok bool) {
		if ok {
			found++
		}
	})
	return len(s.windows) > 0 && 2*found >= len(s.windows)
}

// trySpanning looks among reads, a run of g's, for the first that contains
// the end of the left flank and the start of the right flank in order
// (§4.8 method 1), on either strand. The other strand is searched in
// place: the first occurrence of an anchor in a read's reverse complement
// is the last occurrence of the anchor's reverse complement in the read.
func (s *scratch) trySpanning(g *gapState, reads [][]byte) ([]byte, bool) {
	la := tail(g.left, minOverlap)
	ra := head(g.right, minOverlap)
	s.rcLa = kmer.AppendRevComp(s.rcLa[:0], la)
	s.rcRa = kmer.AppendRevComp(s.rcRa[:0], ra)
	for _, rd := range reads {
		if li := bytes.Index(rd, la); li >= 0 {
			from := li + len(la)
			if ri := bytes.Index(rd[from:], ra); ri >= 0 {
				return bytes.Clone(rd[from : from+ri]), true
			}
		}
		if li := bytes.LastIndex(rd, s.rcLa); li >= 0 {
			if ri := bytes.LastIndex(rd[:li], s.rcRa); ri >= 0 {
				return kmer.RevCompString(rd[ri+len(ra) : li]), true
			}
		}
	}
	return nil, false
}

// walk greedily extends from k-mer from, whose reverse complement is
// fromRC, through the graph, choosing the dominant extension at each step,
// until k-mer to is reached (it reports true), the walk dead-ends, or
// maxLen is exceeded. The bases walked are left in s.walked either way: the
// partial extension, or — on success — the closure followed by the k bases
// of to (see closure). fromOK and toOK say whether the two windows were
// nucleotides throughout. steps is how many of the bases were looked up.
//
// A step depends on the current k-mer alone, so a walk that comes back to a
// k-mer circles from there on. Brent's cycle detection finds that without
// a visited set: a tortoise k-mer, moved to the walk's head whenever the
// steps since it reach a power of two, is met again after λ steps exactly
// when the walk has closed a cycle of length λ. Every k-mer of the cycle
// has then been checked against to and extended, so the walk can neither
// arrive nor dead-end, and each later base repeats the one λ before it:
// they are copied up to maxLen + k instead of looked up. The walk is the
// one a plain walk takes, after μ + O(λ) lookups for a cycle entered at μ.
func (s *scratch) walk(from, fromRC, to kmer.Kmer, fromOK, toOK bool, k, maxLen int) (ok bool, steps int) {
	s.walked = s.walked[:0]
	if !fromOK {
		return false, 0
	}
	limit := maxLen + k
	tortoise, power, lam := from, 1, 0
	for cur := kmer.NewStrands(from, fromRC, k); len(s.walked) < limit; {
		if toOK && cur.Fw() == to {
			return true, len(s.walked)
		}
		arr := s.graph.after(&cur)
		if arr == nil {
			return false, len(s.walked)
		}
		// dominant extension: best count must be unambiguous
		bi, bc, sc := -1, int32(0), int32(0)
		for b, c := range arr {
			if c > bc {
				bi, sc, bc = b, bc, c
			} else if c > sc {
				sc = c
			}
		}
		if bi < 0 || bc == sc {
			return false, len(s.walked)
		}
		s.walked = append(s.walked, kmer.CodeBase(uint64(bi)))
		cur.Push(uint64(bi))
		if lam++; cur.Fw() == tortoise {
			steps = len(s.walked)
			s.fill(lam, limit)
			return false, steps
		}
		if lam == power {
			tortoise, power, lam = cur.Fw(), 2*power, 0
		}
	}
	return false, len(s.walked)
}

// fill extends s.walked to n bases, each a copy of the base lam before it:
// the rest of a walk whose last lam bases went round a cycle.
func (s *scratch) fill(lam, n int) {
	for len(s.walked) < n {
		s.walked = append(s.walked, s.walked[len(s.walked)-lam])
	}
}

// closure is the result of a successful walk at k: the bases strictly
// between the flanks, i.e. the walk without the anchor it ended on (none,
// when the flanks overlap and the anchor was reached in under k steps).
func (s *scratch) closure(k int) []byte {
	return s.walked[:max(len(s.walked)-k, 0)]
}
