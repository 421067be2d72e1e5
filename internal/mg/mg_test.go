package mg

import (
	"math/rand"
	"sort"
	"testing"
)

// ik and sk are the tests' item types: plain ints and strings that can
// hash themselves, as mg.Item asks.
type ik int

func (x ik) Hash(seed uint64) uint64 { return mix(uint64(x) ^ seed) }

type sk string

func (x sk) Hash(seed uint64) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(x); i++ {
		h = (h ^ uint64(x[i])) * 0x100000001b3
	}
	return mix(h)
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// zipfStream generates a skewed stream mimicking a repetitive genome's
// k-mer frequency distribution.
func zipfStream(rng *rand.Rand, n, universe int) []ik {
	z := rand.NewZipf(rng, 1.3, 1, uint64(universe-1))
	out := make([]ik, n)
	for i := range out {
		out[i] = ik(z.Uint64())
	}
	return out
}

func trueCounts(stream []ik) map[ik]int64 {
	c := make(map[ik]int64)
	for _, x := range stream {
		c[x]++
	}
	return c
}

func TestGuaranteeAllFrequentItemsReported(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stream := zipfStream(rng, 200000, 10000)
	theta := 100
	s := New[ik](theta)
	for _, x := range stream {
		s.Offer(x)
	}
	truth := trueCounts(stream)
	bound := int64(len(stream) / theta)
	for x, f := range truth {
		if f >= bound && s.Count(x) == 0 {
			t.Fatalf("item %d with count %d >= n/θ=%d not tracked", x, f, bound)
		}
	}
}

func TestCountBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	stream := zipfStream(rng, 100000, 5000)
	theta := 200
	s := New[ik](theta)
	for _, x := range stream {
		s.Offer(x)
	}
	truth := trueCounts(stream)
	bound := int64(len(stream) / theta)
	for x, est := range s.Items() {
		f := truth[x]
		if est > f {
			t.Fatalf("item %d: estimate %d exceeds true count %d", x, est, f)
		}
		if est < f-bound {
			t.Fatalf("item %d: estimate %d below f-n/θ = %d", x, est, f-bound)
		}
	}
}

func TestMergePreservesGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stream := zipfStream(rng, 300000, 8000)
	theta := 150
	parts := 8
	merged := New[ik](theta)
	chunk := len(stream) / parts
	for i := 0; i < parts; i++ {
		s := New[ik](theta)
		for _, x := range stream[i*chunk : (i+1)*chunk] {
			s.Offer(x)
		}
		merged.Merge(s)
	}
	truth := trueCounts(stream[:parts*chunk])
	n := int64(parts * chunk)
	bound := n / int64(theta)
	if merged.N() != n {
		t.Fatalf("merged N = %d, want %d", merged.N(), n)
	}
	for x, f := range truth {
		est := merged.Count(x)
		if est > f {
			t.Fatalf("merged item %d: estimate %d > true %d", x, est, f)
		}
		if f >= 2*bound && est == 0 {
			// items comfortably above threshold must survive merging
			t.Fatalf("very frequent item %d (count %d, bound %d) lost in merge", x, f, bound)
		}
	}
	// size bound: merge must not blow up the summary
	if len(merged.Items()) > theta {
		t.Fatalf("merged summary has %d counters, θ=%d", len(merged.Items()), theta)
	}
}

func TestHeavyHittersSortedAndThresholded(t *testing.T) {
	s := New[sk](10)
	for i := 0; i < 50; i++ {
		s.Offer("big")
	}
	for i := 0; i < 20; i++ {
		s.Offer("mid")
	}
	s.Offer("tiny")
	hits := s.HeavyHitters(5)
	if len(hits) != 2 {
		t.Fatalf("got %d hits, want 2: %v", len(hits), hits)
	}
	if hits[0].Item != "big" || hits[1].Item != "mid" {
		t.Fatalf("wrong order: %v", hits)
	}
	if hits[0].Count > 50 {
		t.Fatalf("estimate %d above true count", hits[0].Count)
	}
}

func TestUniformStreamYieldsNoSpuriousGiants(t *testing.T) {
	// On a uniform stream nothing is frequent; estimates must stay tiny.
	rng := rand.New(rand.NewSource(4))
	s := New[ik](50)
	n := 100000
	for i := 0; i < n; i++ {
		s.Offer(ik(rng.Intn(100000)))
	}
	for x, c := range s.Items() {
		if c > int64(n/50) {
			t.Fatalf("uniform stream: item %d got estimate %d", x, c)
		}
	}
}

func TestThetaClamp(t *testing.T) {
	s := New[ik](0)
	s.Offer(1)
	s.Offer(1)
	if s.Count(1) == 0 && len(s.Items()) > 1 {
		t.Fatal("θ clamp broken")
	}
	if s.Theta() != 1 {
		t.Fatalf("theta = %d, want 1", s.Theta())
	}
}

func BenchmarkOffer(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	stream := zipfStream(rng, 100000, 10000)
	s := New[ik](32000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Offer(stream[i%len(stream)])
	}
}

// refSummary is the textbook algorithm over a Go map — what this package
// was before its counters moved to a flat table — kept as the reference
// the real one must match item for item.
type refSummary struct {
	theta    int
	counters map[ik]int64
}

func (s *refSummary) offer(x ik) {
	if c, ok := s.counters[x]; ok {
		s.counters[x] = c + 1
		return
	}
	if len(s.counters) < s.theta {
		s.counters[x] = 1
		return
	}
	for k, c := range s.counters {
		if c == 1 {
			delete(s.counters, k)
		} else {
			s.counters[k] = c - 1
		}
	}
}

func (s *refSummary) merge(o *refSummary) {
	for k, c := range o.counters {
		s.counters[k] += c
	}
	if len(s.counters) <= s.theta {
		return
	}
	counts := make([]int64, 0, len(s.counters))
	for _, c := range s.counters {
		counts = append(counts, c)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	sub := counts[s.theta]
	for k, c := range s.counters {
		if c <= sub {
			delete(s.counters, k)
		} else {
			s.counters[k] = c - sub
		}
	}
}

// TestMatchesReferenceAlgorithm: per-part summaries and their rank-order
// fold equal the map-based reference exactly, across budgets small enough
// to force decrement-all steps and merge-time trimming, with half the
// offers arriving pre-hashed.
func TestMatchesReferenceAlgorithm(t *testing.T) {
	same := func(what string, got map[ik]int64, want map[ik]int64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d counters, reference has %d", what, len(got), len(want))
		}
		for k, c := range want {
			if got[k] != c {
				t.Fatalf("%s: item %d = %d, reference %d", what, k, got[k], c)
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		theta := []int{1, 7, 64, 300, 5000}[trial%5]
		const seed = 0xc0ffee
		merged := NewSeeded[ik](theta, seed)
		refMerged := &refSummary{theta, map[ik]int64{}}
		for part := 0; part < 6; part++ {
			stream := zipfStream(rng, rng.Intn(20000), 1+rng.Intn(3000))
			s := NewSeeded[ik](theta, seed)
			ref := &refSummary{theta, map[ik]int64{}}
			for i, x := range stream {
				if i%2 == 0 {
					s.Offer(x)
				} else {
					s.OfferHashed(x.Hash(seed), x)
				}
				ref.offer(x)
			}
			same("part", s.Items(), ref.counters)
			merged.Merge(s)
			refMerged.merge(ref)
			same("merged", merged.Items(), refMerged.counters)
		}
	}
}

func TestKthLargest(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		a := make([]int64, n)
		for i := range a {
			a[i] = int64(rng.Intn(1 + rng.Intn(50))) // heavy duplication
		}
		sorted := append([]int64(nil), a...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		k := rng.Intn(n)
		if got := kthLargest(a, k); got != sorted[k] {
			t.Fatalf("kthLargest(k=%d of %d) = %d, sort says %d", k, n, got, sorted[k])
		}
	}
}

// BenchmarkMergeSummaries is the orchestrator-side fold of k-mer analysis:
// 32 full per-rank summaries into one.
func BenchmarkMergeSummaries(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	const theta, ranks = 32000, 32
	parts := make([]*Summary[ik], ranks)
	for r := range parts {
		parts[r] = New[ik](theta)
		for _, x := range zipfStream(rng, 60000, 400000) {
			parts[r].Offer(x)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := New[ik](theta)
		for _, p := range parts {
			merged.Merge(p)
		}
	}
}

// TestHeavyHittersOrderIgnoresCapacity: the same offers reach the same
// counts whatever sizes the table passed through, but a table ranges in
// slot order and slot order follows capacity — a fresh summary, one sized
// for a longer stream, and one recycled from a much larger stream must
// still report their hits in one order, ties included (the stream offers
// its 50 items in groups of five equal counts).
func TestHeavyHittersOrderIgnoresCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const theta = 500
	var stream []ik
	for x := 0; x < 50; x++ {
		for n := 0; n < 10+x/5; n++ {
			stream = append(stream, ik(x))
		}
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	fresh := New[ik](theta)
	sized := New[ik](theta)
	sized.Expect(10 * theta)
	recycled := New[ik](4 * theta) // grows past anything theta allows
	for i := 0; i < 20000; i++ {
		recycled.Offer(ik(1000 + i%1900))
	}
	recycled.Reset()
	summaries := []*Summary[ik]{fresh, sized, recycled}
	for _, s := range summaries {
		for _, x := range stream {
			s.Offer(x)
		}
	}
	if fresh.counters.Cap() == sized.counters.Cap() || sized.counters.Cap() == recycled.counters.Cap() {
		t.Fatalf("capacities %d/%d/%d: the three tables were meant to differ",
			fresh.counters.Cap(), sized.counters.Cap(), recycled.counters.Cap())
	}
	want := fresh.HeavyHitters(5)
	ties := 0
	for i := 1; i < len(want); i++ {
		if want[i].Count == want[i-1].Count {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no equal counts among the hits; the tie-break is not exercised")
	}
	for _, s := range summaries[1:] {
		got := s.HeavyHitters(5)
		if len(got) != len(want) {
			t.Fatalf("%d hits from a %d-slot table, %d from the fresh one", len(got), s.counters.Cap(), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("hit %d from a %d-slot table is %+v, fresh table says %+v",
					i, s.counters.Cap(), got[i], want[i])
			}
		}
	}
}

// TestResetThenReuseMatchesFresh: a summary that was filled, merged into
// and Reset is indistinguishable — counters, stream length, and what it
// contributes to a merge — from a new one fed the same second stream.
func TestResetThenReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, theta := range []int{7, 300} {
		reused := New[ik](theta)
		for _, x := range zipfStream(rng, 30000, 5000) {
			reused.Offer(x)
		}
		reused.Merge(reused2(rng, theta))
		reused.Reset()
		if reused.N() != 0 || len(reused.Items()) != 0 {
			t.Fatalf("after Reset: n=%d, %d counters", reused.N(), len(reused.Items()))
		}
		second := zipfStream(rng, 20000, 2000)
		fresh := New[ik](theta)
		for _, x := range second {
			reused.Offer(x)
			fresh.Offer(x)
		}
		into, intoFresh := reused2(rng, theta), New[ik](theta)
		intoFresh.Merge(into) // a copy of into
		into.Merge(reused)
		intoFresh.Merge(fresh)
		for what, pair := range map[string][2]*Summary[ik]{
			"summary": {reused, fresh}, "merge target": {into, intoFresh},
		} {
			got, want := pair[0].Items(), pair[1].Items()
			if pair[0].N() != pair[1].N() || len(got) != len(want) {
				t.Fatalf("θ=%d %s: n=%d with %d counters, fresh has n=%d with %d",
					theta, what, pair[0].N(), len(got), pair[1].N(), len(want))
			}
			for k, c := range want {
				if got[k] != c {
					t.Fatalf("θ=%d %s: item %d = %d, fresh %d", theta, what, k, got[k], c)
				}
			}
		}
	}
}

// reused2 is a summary over a stream of its own, for the merges above.
func reused2(rng *rand.Rand, theta int) *Summary[ik] {
	s := New[ik](theta)
	for _, x := range zipfStream(rng, 10000, 3000) {
		s.Offer(x)
	}
	return s
}
