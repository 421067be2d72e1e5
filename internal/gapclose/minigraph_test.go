package gapclose

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// kmerCountsRef is the mini-assembly graph as gap closing built it before
// it moved onto packed k-mers, kept as the oracle: keyed by the window's
// bytes, filled from each read and from a reverse-complemented copy of it.
func kmerCountsRef(reads [][]byte, k int) map[string][4]int {
	counts := make(map[string][4]int)
	add := func(seq []byte) {
		for i := 0; i+k < len(seq); i++ {
			w := string(seq[i : i+k])
			c, ok := kmer.BaseCode(seq[i+k])
			if !ok {
				continue
			}
			arr := counts[w]
			arr[c]++
			counts[w] = arr
		}
	}
	for _, rd := range reads {
		add(rd)
		add(kmer.RevCompString(rd))
	}
	return counts
}

// checkMiniGraph builds both graphs and requires them to agree on every
// window of k nucleotides: same four counts, and no entry on either side
// the other lacks. The reference sees the reads upper-cased — it keyed
// lower-case windows by their bytes on the read's strand and upper-cased
// them on the other; the packed graph folds case on both — and its keys
// holding any other character have no packed counterpart (they are the
// windows a walk can never stand on).
func checkMiniGraph(t *testing.T, reads [][]byte, k int) {
	t.Helper()
	upper := make([][]byte, len(reads))
	for i, rd := range reads {
		upper[i] = bytes.ToUpper(rd)
	}
	ref := kmerCountsRef(upper, k)
	var g miniGraph
	g.build(reads, k)
	nucleotide := 0
	for w, want := range ref {
		km, ok := kmer.Pack([]byte(w), k)
		if !ok {
			continue
		}
		nucleotide++
		got := g.after(km)
		if got == nil {
			t.Fatalf("k=%d: window %s missing from the packed graph (reference %v)", k, w, want)
		}
		for c := range want {
			if int(got[c]) != want[c] {
				t.Fatalf("k=%d: window %s: counts %v, reference %v", k, w, *got, want)
			}
		}
	}
	if g.counts.Len() != nucleotide {
		t.Fatalf("k=%d: packed graph holds %d windows, reference %d", k, g.counts.Len(), nucleotide)
	}
}

func TestMiniGraphMatchesStringReference(t *testing.T) {
	rng := xrt.NewPrng(41)
	g := genome.WheatLike(rng, 3000)
	var reads [][]byte
	for i := 0; i < 300; i++ {
		n := 30 + rng.Intn(120)
		pos := rng.Intn(len(g) - n)
		rd := append([]byte(nil), g[pos:pos+n]...)
		switch i % 7 {
		case 1:
			rd[rng.Intn(n)] = 'N'
		case 2:
			for j := n / 3; j < n/2; j++ {
				rd[j] |= 0x20
			}
		case 3:
			rd = kmer.RevCompString(rd)
		case 4:
			rd[0], rd[n-1] = 'N', 'n'
		}
		reads = append(reads, rd)
	}
	reads = append(reads, nil, []byte("ACGT"), bytes.Repeat([]byte("AC"), 40), bytes.Repeat([]byte("N"), 50))
	for _, k := range []int{21, 31, 41} {
		checkMiniGraph(t, reads, k)
	}
	// a reused graph forgets the previous build
	var mg miniGraph
	mg.build(reads, 21)
	mg.build(reads[:1], 21)
	var fresh miniGraph
	fresh.build(reads[:1], 21)
	if mg.counts.Len() != fresh.counts.Len() {
		t.Fatalf("rebuilt graph holds %d windows, fresh one %d", mg.counts.Len(), fresh.counts.Len())
	}
}

func FuzzMiniGraph(f *testing.F) {
	f.Add([]byte("ACGTACGTTGCANNACGTacgtACGTTTGACCAGTAGGATCCAGATTACAGGATTACCAGGATTTACAGGGATTTAC"), byte(0))
	f.Add(bytes.Repeat([]byte("ACGTTGCAAGGCTTAGN"), 12), byte(1))
	f.Add(bytes.Repeat([]byte("at"), 60), byte(2))
	f.Fuzz(func(t *testing.T, data []byte, kSel byte) {
		// the input is one alphabet-mapped stream cut into reads at every
		// 16th symbol value
		const alphabet = "ACGTACGTACGTacgtN"
		var reads [][]byte
		var cur []byte
		for _, b := range data {
			if b%32 == 31 {
				reads = append(reads, cur)
				cur = nil
				continue
			}
			cur = append(cur, alphabet[int(b)%len(alphabet)])
		}
		reads = append(reads, cur)
		checkMiniGraph(t, reads, []int{21, 31, 41}[int(kSel)%3])
	})
}

// walkHeavyGap is a 300-base gap under 400 error-free 100-base reads, none
// of which spans it, with a 35-base repeat inside it and again beyond the
// right flank. The reads tile the region evenly, so at k = 21 and 31 either
// directed walk leaves the repeat on an exact tie and fails; at k = 41 the
// windows reach past the repeat and the walk crosses. Closing it therefore
// builds the graph at all three k and walks it six times. interior is the
// sequence a closure must reproduce.
func walkHeavyGap() (g *gapState, interior []byte) {
	rng := xrt.NewPrng(43)
	seq := genome.Random(rng, 1300)
	const gapLo, gapHi = 400, 700
	copy(seq[930:965], seq[500:535])
	differ := func(i, j int) { // make the bases beside the two copies disagree
		if seq[i] == seq[j] {
			c, _ := kmer.BaseCode(seq[j])
			seq[j] = kmer.CodeBase(c + 1)
		}
	}
	differ(535, 965)
	differ(499, 929)
	var reads [][]byte
	for start := 300; len(reads) < 400; start += 2 {
		rd := seq[start : start+100]
		if len(reads)%2 == 1 {
			rd = kmer.RevCompString(rd)
		}
		reads = append(reads, rd)
	}
	return &gapState{left: seq[gapLo-200 : gapLo], right: seq[gapHi : gapHi+200],
		est: gapHi - gapLo, reads: reads}, seq[gapLo:gapHi]
}

// repeatFlankedGap is a gap like the slowest of a wheat-like scaffolding
// round: 400 reads of 100 and 150 bases, 50 kbp in all, drawn from the last
// 1.2 kbp of eight lightly diverged copies of a 1.5 kbp repeat and the 300
// unique bases after each, with 0.5 % substitution errors. The gap is the
// 150 bases of copy 0 right after its repeat, so the left flank is repeat
// sequence and the right flank unique.
func repeatFlankedGap() *gapState {
	const side, gapLen = 300, 150
	rng := xrt.NewPrng(44)
	repeat := genome.Random(rng, 1500)
	var copies [][]byte
	for i := 0; i < 8; i++ {
		copies = append(copies, slices.Concat(genome.Mutate(rng, repeat, 0.002), genome.Random(rng, side)))
	}
	var reads [][]byte
	for len(reads) < 400 {
		src := copies[rng.Intn(len(copies))][len(repeat)-1200:]
		n := 100 + 50*(len(reads)%2)
		at := rng.Intn(len(src) - n + 1)
		rd := genome.Mutate(rng, src[at:at+n], 0.005)
		if rng.Intn(2) == 1 {
			rd = kmer.RevCompString(rd)
		}
		reads = append(reads, rd)
	}
	end := len(repeat)
	return &gapState{left: copies[0][end-200 : end], right: copies[0][end+gapLen : end+side],
		est: gapLen, reads: reads}
}

func TestCloseGapAllocations(t *testing.T) {
	g, interior := walkHeavyGap()
	var s scratch
	steps := make([]ladderStep, 3)
	// Walked at the third step: not spanned, and neither smaller k crossed.
	m, seq, ran := closeGapSeq(&s, g, steps) // the scratch and the steps' partial walks are warm from here on
	if m != Walked || ran != 3 || !bytes.Equal(seq, interior) {
		t.Fatalf("precondition: %v closure of %d bases after %d steps, want the %d-base interior walked at the third", m, len(seq), ran, len(interior))
	}
	if allocs := testing.AllocsPerRun(20, func() { closeGapSeq(&s, g, steps) }); allocs > 4 {
		t.Fatalf("one gap's scan and ladder on a warmed scratch: %.0f allocations, ceiling 4", allocs)
	}
}

func BenchmarkCloseGap(b *testing.B) {
	g, _ := walkHeavyGap()
	var s scratch
	steps := make([]ladderStep, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m, _, _ := closeGapSeq(&s, g, steps); m != Walked {
			b.Fatalf("closed by %v", m)
		}
	}
}

// BenchmarkMiniGraphUnits measures, each per unit at k = 21, what a ladder
// step is billed for — a build per read base (the whole read set) and a
// walk per step (both walks) — and what a step counted in 8 chunks of its
// reads on 8 ranks would add: the merge, per entry, of the partial graphs
// of chunks 1–7 into that of chunk 0 (entries/away-base is how many there
// are per base those chunks count). At buildFactor items per built base,
// walkFactor is buildFactor × ns/walk-step over ns/build-base, rounded up.
func BenchmarkMiniGraphUnits(b *testing.B) {
	heavy, _ := walkHeavyGap()
	for _, c := range []struct {
		name string
		g    *gapState
	}{{"walk-heavy", heavy}, {"repeat-flanked", repeatFlankedGap()}} {
		b.Run(c.name, func(b *testing.B) {
			j := newJobs([]*gapState{c.g})[0]
			var reads [8][][]byte
			for i, rd := range c.g.reads {
				reads[i*8/len(c.g.reads)] = append(reads[i*8/len(c.g.reads)], rd)
			}
			parts := make([]miniGraph, 7)
			entries, away := 0, 0
			for i := range parts {
				parts[i].build(reads[i+1], walkK)
				entries += parts[i].counts.Len()
				for _, rd := range reads[i+1] {
					away += len(rd)
				}
			}
			var s scratch
			var st ladderStep
			var build, merge, walk time.Duration
			steps := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				s.graph.build(c.g.reads, walkK)
				t1 := time.Now()
				steps = s.walkStep(c.g, walkK, &st)
				t2 := time.Now()
				s.graph.build(reads[0], walkK)
				t3 := time.Now()
				for p := range parts {
					parts[p].counts.Range(func(h uint64, km kmer.Kmer, v *[4]int32) bool {
						to, _ := s.graph.counts.Upsert(h, km)
						for x, n := range v {
							to[x] += n
						}
						return true
					})
				}
				merge += time.Since(t3)
				build += t1.Sub(t0)
				walk += t2.Sub(t1)
			}
			per := func(d time.Duration, units int) float64 {
				return float64(d.Nanoseconds()) / float64(b.N) / float64(max(units, 1))
			}
			b.ReportMetric(per(build, j.readBases), "ns/build-base")
			b.ReportMetric(per(walk, steps), "ns/walk-step")
			b.ReportMetric(per(merge, entries), "ns/merged-entry")
			b.ReportMetric(float64(entries)/float64(away), "entries/away-base")
		})
	}
}
