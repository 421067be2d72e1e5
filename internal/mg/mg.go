// Package mg implements the Misra–Gries frequent-items ("heavy hitters")
// algorithm with mergeable summaries, as used by HipMer's k-mer analysis
// (paper §3.1) to identify k-mers frequent enough to cause owner-computes
// load imbalance on repetitive genomes. With θ counters, every item whose
// true frequency f(x) ≥ n/θ is guaranteed to be reported, and the reported
// estimate f'(x) satisfies f(x) − n/θ ≤ f'(x) ≤ f(x).
//
// Summaries merge by adding counts and subtracting the (θ+1)-th largest
// combined count (Agarwal et al., "Mergeable summaries"), preserving the
// error bound, which is what lets each rank scan its reads independently
// and the team reduce to a global heavy-hitter set — the parallelization
// of Cafaro & Tempesta the paper cites.
//
// The counters live in a flat hash-addressed table that grows with the
// stream: a rank that sees a few thousand items pays for a few thousand
// counters, not for θ of them, and a scan that already holds an item's
// hash (k-mer analysis does) offers it with OfferHashed and is never
// hashed again.
package mg

import (
	"sort"

	"hipmer/internal/flat"
)

// Item is what a summary counts: comparable, and able to hash itself (the
// k-mer type's own Hash method has this shape).
type Item interface {
	comparable
	Hash(seed uint64) uint64
}

// Summary is a Misra–Gries sketch over items of type K.
type Summary[K Item] struct {
	theta    int
	seed     uint64
	counters flat.Map[K, int64]
	n        int64 // stream length observed
	scratch  []int64
}

// New creates a summary with θ counters (θ = 32,000 in the paper's wheat
// experiments) that hashes items with seed 0.
func New[K Item](theta int) *Summary[K] { return NewSeeded[K](theta, 0) }

// NewSeeded is New for callers that already hold x.Hash(seed) for the
// items they offer: OfferHashed takes that value instead of recomputing
// it. Summaries that are merged must share a seed.
func NewSeeded[K Item](theta int, seed uint64) *Summary[K] {
	if theta < 1 {
		theta = 1
	}
	s := &Summary[K]{theta: theta, seed: seed}
	// Between merges the table never holds more than θ entries, so that
	// is where its growth aims: no step overshoots the final array.
	s.counters.Aim((theta*4 + 2) / 3)
	return s
}

// Expect tells a summary that has seen nothing yet how long its stream
// will be at most, and sizes the counter table once for it: a stream of
// n items fills min(θ, n) counters, which the growth steps of an aimed
// table (×8, landing on θ·4/3) overshoot for every stream between an
// eighth of θ and θ. Capacity only — the counts are the same whatever the
// table's size.
func (s *Summary[K]) Expect(items int) {
	if items > 0 {
		s.counters.Grow((min(s.theta, items)*4 + 2) / 3)
	}
}

// Reset returns the summary to the state New left it in — nothing seen,
// nothing tracked — but keeps the counter table it grew, so a summary
// reused for a stream of similar length does not allocate again.
func (s *Summary[K]) Reset() {
	s.counters.Clear()
	s.n = 0
}

// Offer feeds one occurrence of item x into the summary.
func (s *Summary[K]) Offer(x K) { s.OfferHashed(x.Hash(s.seed), x) }

// OfferHashed is Offer with h = x.Hash(seed) supplied by the caller, seed
// being the summary's (NewSeeded).
func (s *Summary[K]) OfferHashed(h uint64, x K) {
	s.n++
	if s.counters.Len() < s.theta {
		c, _ := s.counters.Upsert(h, x)
		*c++
		return
	}
	if c := s.counters.Get(h, x); c != nil {
		*c++
		return
	}
	// decrement-all step; zeroed counters leave
	s.counters.Filter(func(_ K, c *int64) bool {
		*c--
		return *c > 0
	})
}

// N returns the number of items offered (including via merges).
func (s *Summary[K]) N() int64 { return s.n }

// Theta returns the counter budget.
func (s *Summary[K]) Theta() int { return s.theta }

// Count returns the estimated count of x (0 if untracked). The estimate
// is a lower bound on the true count.
func (s *Summary[K]) Count(x K) int64 {
	if c := s.counters.Get(x.Hash(s.seed), x); c != nil {
		return *c
	}
	return 0
}

// Items returns the tracked items and their estimated counts.
func (s *Summary[K]) Items() map[K]int64 {
	out := make(map[K]int64, s.counters.Len())
	s.counters.Range(func(_ uint64, k K, c *int64) bool {
		out[k] = *c
		return true
	})
	return out
}

// HeavyHitters returns items whose estimated count is at least minCount,
// sorted by descending estimate and, among equal estimates, by ascending
// item hash: the order is a function of what the summary holds, never of
// the capacities its table passed through on the way (a recycled table
// and a fresh one range in different slot orders).
func (s *Summary[K]) HeavyHitters(minCount int64) []Hit[K] {
	type found struct {
		hit  Hit[K]
		hash uint64
	}
	var all []found
	s.counters.Range(func(h uint64, k K, c *int64) bool {
		if *c >= minCount {
			all = append(all, found{Hit[K]{Item: k, Count: *c}, h})
		}
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].hit.Count != all[j].hit.Count {
			return all[i].hit.Count > all[j].hit.Count
		}
		return all[i].hash < all[j].hash
	})
	var hits []Hit[K]
	for _, f := range all {
		hits = append(hits, f.hit)
	}
	return hits
}

// Hit is one reported frequent item.
type Hit[K comparable] struct {
	Item  K
	Count int64
}

// Merge folds other into s, preserving the Misra–Gries error guarantee
// for the combined stream. Both summaries should share θ, and must share
// their hash seed.
func (s *Summary[K]) Merge(other *Summary[K]) {
	if s.seed != other.seed {
		panic("mg: Merge of summaries with different hash seeds")
	}
	// Room for the whole union up front: other is walked in slot order,
	// and flat.Map must not take such a copy into a table that grows
	// under it (see the package comment there).
	union := s.counters.Len() + other.counters.Len()
	s.counters.Grow((union*4 + 2) / 3)
	other.counters.Range(func(h uint64, k K, c *int64) bool {
		mine, _ := s.counters.Upsert(h, k)
		*mine += *c
		return true
	})
	s.n += other.n
	if s.counters.Len() <= s.theta {
		return
	}
	// subtract the (θ+1)-th largest count from everything
	counts := s.scratch[:0]
	s.counters.Range(func(_ uint64, _ K, c *int64) bool {
		counts = append(counts, *c)
		return true
	})
	s.scratch = counts
	sub := kthLargest(counts, s.theta)
	s.counters.Filter(func(_ K, c *int64) bool {
		*c -= sub
		return *c > 0
	})
}

// kthLargest returns the element that a descending sort of a would put at
// index k, by three-way quickselect: the counters of a k-mer stream are
// overwhelmingly small and equal, which a two-way partition handles
// quadratically and a full sort pays n log n for on every merge. Reorders a.
func kthLargest(a []int64, k int) int64 {
	lo, hi := 0, len(a) // the answer lies in a[lo:hi]
	for {
		// median of three as the pivot
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		if x > y {
			x, y = y, x
		}
		if y > z {
			y = z
			if x > y {
				y = x
			}
		}
		pivot := y
		// partition a[lo:hi] into  > pivot | == pivot | < pivot
		gt, i, lt := lo, lo, hi
		for i < lt {
			switch v := a[i]; {
			case v > pivot:
				a[gt], a[i] = a[i], a[gt]
				gt++
				i++
			case v < pivot:
				lt--
				a[lt], a[i] = a[i], a[lt]
			default:
				i++
			}
		}
		switch {
		case k < gt:
			hi = gt
		case k >= lt:
			lo = lt
		default:
			return pivot
		}
	}
}
