package gapclose

import (
	"bytes"
	"testing"

	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// plainWalk is the walk as it was before it detected cycles, kept as the
// oracle: one lookup per base, until the right anchor, a dead end or
// maxLen + k bases. It appends to walked and returns it; cycle is the
// length λ of the cycle the walk went round (0 if it visited no k-mer
// twice) and mu the step it entered it at.
func plainWalk(g *miniGraph, walked []byte, from, to kmer.Kmer, fromOK, toOK bool, k, maxLen int) (out []byte, ok bool, mu, cycle int) {
	if !fromOK {
		return walked, false, 0, 0
	}
	seen := map[kmer.Kmer]int{}
	for cur := from; len(walked) < maxLen+k; {
		if toOK && cur == to {
			return walked, true, 0, 0
		}
		if at, again := seen[cur]; again && cycle == 0 {
			mu, cycle = at, len(walked)-at
		}
		seen[cur] = len(walked)
		st := kmer.NewStrands(cur, cur.RevComp(k), k)
		arr := g.after(&st)
		if arr == nil {
			return walked, false, mu, cycle
		}
		bi, bc, sc := -1, int32(0), int32(0)
		for b, c := range arr {
			if c > bc {
				bi, sc, bc = b, bc, c
			} else if c > sc {
				sc = c
			}
		}
		if bi < 0 || bc == sc {
			return walked, false, mu, cycle
		}
		walked = append(walked, kmer.CodeBase(uint64(bi)))
		cur = cur.NextRight(k, uint64(bi))
	}
	return walked, false, mu, cycle
}

// checkWalk walks s's graph from from to to both ways and requires the
// same outcome and byte-equal bases, and, where the plain walk went round a
// cycle entered at step μ, Brent's bound on the lookups: the tortoise
// waits at step 2^i − 1 for 2^i steps, so it is met by step
// 2·max(μ + 1, λ) + λ. It returns the lookups, the bases filled and the
// plain walk's cycle length.
func checkWalk(t *testing.T, s *scratch, from, to kmer.Kmer, fromOK, toOK bool, k, maxLen int) (steps, filled, cycle int) {
	t.Helper()
	want, wantOK, mu, cycle := plainWalk(&s.graph, nil, from, to, fromOK, toOK, k, maxLen)
	ok, steps := s.walk(from, from.RevComp(k), to, fromOK, toOK, k, maxLen)
	if ok != wantOK || !bytes.Equal(s.walked, want) {
		t.Fatalf("k=%d maxLen=%d: walk %v after %d bases, plain walk %v after %d (first difference at %d)",
			k, maxLen, ok, len(s.walked), wantOK, len(want), firstDiff(s.walked, want))
	}
	if filled = len(s.walked) - steps; filled > 0 && cycle == 0 {
		t.Fatalf("k=%d: %d bases filled on a walk that never closed a cycle", k, filled)
	}
	if cycle > 0 && steps > 2*max(mu+1, cycle)+cycle {
		t.Fatalf("k=%d: %d lookups for a cycle of %d entered at step %d", k, steps, cycle, mu)
	}
	return steps, filled, cycle
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// circle returns reads that cover every window of the circular sequence c
// (three turns of it, cut into reads of 100 overlapping by 60) on
// alternating strands.
func circle(c []byte) [][]byte {
	turns := bytes.Repeat(c, 3+200/len(c))
	var reads [][]byte
	for at := 0; at+100 <= len(turns); at += 40 {
		rd := turns[at : at+100]
		if len(reads)%2 == 1 {
			rd = kmer.RevCompString(rd)
		}
		reads = append(reads, rd)
	}
	return reads
}

func TestWalkMatchesPlainWalk(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(47)
	unique := genome.Random(rng, 120)
	loop := genome.Random(rng, 90)
	long := genome.Random(rng, 400)
	absent := kmer.FromString(string(genome.Random(rng, k)))
	polyA := bytes.Repeat([]byte("A"), 80)
	pack := func(seq []byte) kmer.Kmer { return kmer.FromString(string(seq[:k])) }
	at := func(seq []byte, i int) kmer.Kmer { return kmer.FromString(string(seq[i : i+k])) }
	for _, c := range []struct {
		name     string
		reads    [][]byte
		from, to kmer.Kmer
		maxLen   int
		cycle    bool // the walk closes a cycle and fills the rest
	}{
		// a run of one base is a self-loop: λ = 1
		{"poly-A", [][]byte{polyA}, pack(polyA), absent, 300, true},
		{"dinucleotide", [][]byte{bytes.Repeat([]byte("AC"), 40)}, pack(bytes.Repeat([]byte("AC"), 20)), absent, 300, true},
		{"into-self-loop", [][]byte{append(append([]byte(nil), unique...), polyA...)}, pack(unique), absent, 500, true},
		{"into-cycle", append(circle(loop), append(append([]byte(nil), unique...), loop...)), pack(unique), absent, 700, true},
		{"cycle-holds-anchor", circle(loop), pack(loop), at(loop, 50), 700, false},
		{"cycle-holds-anchor-entered", append(circle(loop), append(append([]byte(nil), unique...), loop...)), pack(unique), at(loop, 60), 700, false},
		{"anchor-not-nucleotide", circle(loop), pack(loop), kmer.Kmer{}, 700, true},
		{"maxLen-below-cycle", circle(long), pack(long), absent, 250, false},
		// λ = 400 from step 0 is met at step 511 + 400 = 911
		{"met-at-limit", circle(long), pack(long), absent, 911 - k, false},
		{"met-one-below-limit", circle(long), pack(long), absent, 912 - k, true},
		{"long-cycle", circle(long), pack(long), absent, 3000, true},
		{"no-cycle", [][]byte{long}, pack(long), absent, 1000, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var s scratch
			s.graph.build(c.reads, k)
			toOK := c.name != "anchor-not-nucleotide"
			_, filled, cycle := checkWalk(t, &s, c.from, c.to, true, toOK, k, c.maxLen)
			if (filled > 0) != c.cycle {
				t.Fatalf("%d bases filled round a cycle of %d; want filling: %v", filled, cycle, c.cycle)
			}
			// the other strand walks the same graph
			checkWalk(t, &s, c.to.RevComp(k), c.from.RevComp(k), toOK, true, k, c.maxLen)
		})
	}
}

func FuzzWalkMatchesPlainWalk(f *testing.F) {
	f.Add([]byte("ACGTTGCAAGGCTTAGACGTTGCAAGGCTTAGACGTTGCAAGGCTTAGACGTTGCAAGGCTTAG"), uint16(0), uint16(40), uint16(300), byte(0))
	f.Add(bytes.Repeat([]byte("A"), 60), uint16(3), uint16(9), uint16(100), byte(1))
	f.Add(bytes.Repeat([]byte("ACGTTGCAAGGCTTAGCATTAGGACCA"), 6), uint16(1), uint16(30), uint16(500), byte(2))
	f.Fuzz(func(t *testing.T, data []byte, fromAt, toAt, maxLen uint16, kSel byte) {
		// the input is one ACGT stream, read three times over in turns so
		// that a sequence with a repeat closes cycles, and cut into reads
		k := []int{21, 31, 41}[int(kSel)%3]
		seq := make([]byte, 0, 3*len(data))
		for range 3 {
			for _, b := range data {
				seq = append(seq, "ACGT"[b&3])
			}
		}
		if len(seq) < k {
			return
		}
		var reads [][]byte
		for at := 0; at < len(seq); at += 50 {
			reads = append(reads, seq[at:min(at+80, len(seq))])
		}
		var s scratch
		s.graph.build(reads, k)
		window := func(i uint16) kmer.Kmer {
			at := int(i) % (len(seq) - k + 1)
			return kmer.FromString(string(seq[at : at+k]))
		}
		from, to := window(fromAt), window(toAt)
		if toAt%7 == 0 {
			to = to.NextRight(k, 3-to.Base(k-1)) // most likely nowhere in the graph
		}
		checkWalk(t, &s, from, to, true, true, k, int(maxLen%2000))
	})
}
