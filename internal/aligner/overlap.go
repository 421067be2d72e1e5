package aligner

// Overlap describes a suffix(a)↔prefix(b) alignment found by BestOverlap.
type Overlap struct {
	LenA    int // bases of a's suffix consumed
	LenB    int // bases of b's prefix consumed
	Matches int
	Score   int
	Columns int // alignment columns (for identity)
}

// Identity returns the fraction of alignment columns that are matches.
func (o Overlap) Identity() float64 {
	if o.Columns == 0 {
		return 0
	}
	return float64(o.Matches) / float64(o.Columns)
}

const (
	ovlMatch    = 2
	ovlMismatch = -3
	ovlGap      = -4
)

// OverlapWindow bounds BestOverlap's DP to the relevant sequence ends: at
// most the last OverlapWindow bases of a (the DP's rows) against the first
// OverlapWindow of b.
const OverlapWindow = 512

// BestOverlap computes the best-scoring alignment between a suffix of a
// and a prefix of b, allowing mismatches and gaps — the "patch" operation
// of gap closing (paper §4.8: "find an acceptable overlap between the two
// sequences"). ok is false when no overlap meets the thresholds.
func BestOverlap(a, b []byte, minOverlap int, minIdentity float64) (Overlap, bool) {
	wa := a
	if len(wa) > OverlapWindow {
		wa = wa[len(wa)-OverlapWindow:]
	}
	wb := b
	if len(wb) > OverlapWindow {
		wb = wb[:OverlapWindow]
	}
	n, m := len(wa), len(wb)
	if n == 0 || m == 0 {
		return Overlap{}, false
	}
	type cell struct {
		score   int
		origin  int // row where the alignment started (free leading gap in a)
		matches int
		cols    int
	}
	prev := make([]cell, m+1)
	cur := make([]cell, m+1)
	for i := 0; i <= n; i++ {
		prev[0] = cell{score: 0, origin: 0}
	}
	// row 0: aligning nothing of a against b's prefix costs gaps
	for j := 1; j <= m; j++ {
		prev[j] = cell{score: j * ovlGap, origin: 0, cols: j}
	}
	best := Overlap{Score: -1 << 30}
	for i := 1; i <= n; i++ {
		cur[0] = cell{score: 0, origin: i} // free start anywhere in a
		for j := 1; j <= m; j++ {
			sub := ovlMismatch
			isMatch := wa[i-1] == wb[j-1]
			if isMatch {
				sub = ovlMatch
			}
			d := prev[j-1]
			dc := cell{score: d.score + sub, origin: d.origin,
				matches: d.matches, cols: d.cols + 1}
			if isMatch {
				dc.matches++
			}
			u := prev[j]
			uc := cell{score: u.score + ovlGap, origin: u.origin,
				matches: u.matches, cols: u.cols + 1}
			l := cur[j-1]
			lc := cell{score: l.score + ovlGap, origin: l.origin,
				matches: l.matches, cols: l.cols + 1}
			bestc := dc
			if uc.score > bestc.score {
				bestc = uc
			}
			if lc.score > bestc.score {
				bestc = lc
			}
			cur[j] = bestc
			if i == n { // alignment must consume a to its end
				c := cur[j]
				lenA := n - c.origin
				if lenA >= minOverlap && j >= minOverlap && c.score > best.Score {
					o := Overlap{LenA: lenA, LenB: j, Matches: c.matches,
						Score: c.score, Columns: c.cols}
					if o.Identity() >= minIdentity {
						best = o
					}
				}
			}
		}
		prev, cur = cur, prev
	}
	if best.Score == -1<<30 {
		return Overlap{}, false
	}
	return best, true
}
