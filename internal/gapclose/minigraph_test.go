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
// window of k nucleotides, on both strands: same four counts following it,
// where a window the reference lacks has none. The packed graph holds one
// entry per distinct canonical window and the reference one per window
// with a following base on either strand. The reference sees the reads
// upper-cased — it keyed lower-case windows by their bytes on the read's
// strand and upper-cased them on the other; the packed graph folds case on
// both — and its keys holding any other character have no packed
// counterpart (they are the windows a walk can never stand on).
func checkMiniGraph(t *testing.T, reads [][]byte, k int) {
	t.Helper()
	upper := make([][]byte, len(reads))
	for i, rd := range reads {
		upper[i] = bytes.ToUpper(rd)
	}
	ref := kmerCountsRef(upper, k)
	var g miniGraph
	g.build(reads, k)
	canonical := map[kmer.Kmer]bool{}
	for _, rd := range upper {
		for i := 0; i+k <= len(rd); i++ {
			km, ok := kmer.Pack(rd[i:i+k], k)
			if !ok {
				continue
			}
			canon, _ := km.Canonical(k)
			canonical[canon] = true
			for _, w := range []kmer.Kmer{km, km.RevComp(k)} {
				want := ref[w.String(k)]
				st := kmer.NewStrands(w, w.RevComp(k), k)
				got := g.after(&st)
				if got == nil {
					t.Fatalf("k=%d: window %s missing from the packed graph (reference %v)", k, w.String(k), want)
				}
				for c := range want {
					if int(got[c]) != want[c] {
						t.Fatalf("k=%d: window %s: counts %v, reference %v", k, w.String(k), *got, want)
					}
				}
			}
		}
	}
	if g.counts.Len() != len(canonical) {
		t.Fatalf("k=%d: packed graph holds %d windows, reads hold %d canonical ones", k, g.counts.Len(), len(canonical))
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
	// an even k would let a window be its own reverse complement
	defer func() {
		if recover() == nil {
			t.Fatal("build accepted k = 22")
		}
	}()
	mg.build(reads, 22)
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
// step is billed for — a build per read base (the whole read set), a walk
// per step looked up (both walks, right after the build, as a ladder step
// runs them) and a base filled in round a cycle (a walk's whole bound
// after a 60-base cycle) — and what a step counted in 8 chunks of its
// reads on 8 ranks would add: the merge, per entry, of the partial graphs
// of chunks 1–7 into that of chunk 0 (entries/away-base is how many there
// are per base those chunks count). A walk is timed without walkStep's
// per-call work (packing its anchors, copying its result), and ns/lookup
// is the part of a step that is the graph lookup alone: the same steps
// replayed as lookups and rolls along the recorded path, without choosing
// the dominant extension or checking for a cycle. Iterations alternate
// the two, each right after a build. At buildFactor items per built base,
// walkFactor is buildFactor × ns/walk-step over ns/build-base, rounded up,
// and fillBases is ns/build-base over ns/fill-base over buildFactor,
// rounded down.
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
			const cycle = 60
			bound := c.g.est*maxGapFactor + 200 + walkK
			var s scratch
			s.graph.build(c.g.reads, walkK)
			walks := planWalks(&s, c.g)
			steps := 0
			for _, w := range walks {
				steps += len(w.path)
			}
			var build, merge, walk, lookup, fill time.Duration
			var sink int32
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				s.graph.build(c.g.reads, walkK)
				t1 := time.Now()
				for _, w := range walks {
					if i%2 == 0 {
						s.walk(w.from, w.fromRC, w.to, w.fromOK, w.toOK, walkK, w.maxLen)
						continue
					}
					cur := kmer.NewStrands(w.from, w.fromRC, walkK)
					for _, code := range w.path {
						sink += s.graph.after(&cur)[code]
						cur.Push(code)
					}
				}
				t2 := time.Now()
				s.walked = append(s.walked[:0], c.g.left[:cycle]...)
				s.fill(cycle, bound)
				t3 := time.Now()
				s.graph.build(reads[0], walkK)
				t4 := time.Now()
				for p := range parts {
					parts[p].counts.Range(func(h uint64, km kmer.Kmer, v *[8]int32) bool {
						to, _ := s.graph.counts.Upsert(h, km)
						for x, n := range v {
							to[x] += n
						}
						return true
					})
				}
				merge += time.Since(t4)
				build += t1.Sub(t0)
				if i%2 == 0 {
					walk += t2.Sub(t1)
				} else {
					lookup += t2.Sub(t1)
				}
				fill += t3.Sub(t2)
			}
			per := func(d time.Duration, units int) float64 {
				return float64(d.Nanoseconds()) / float64(b.N) / float64(max(units, 1))
			}
			if sink < 0 {
				b.Fatal("a negative count")
			}
			b.ReportMetric(per(build, j.readBases), "ns/build-base")
			// iterations alternate: (b.N+1)/2 walked, b.N/2 looked up
			b.ReportMetric(per(walk, steps)*float64(b.N)/float64((b.N+1)/2), "ns/walk-step")
			b.ReportMetric(per(lookup, steps)*float64(b.N)/float64(max(b.N/2, 1)), "ns/lookup")
			b.ReportMetric(per(fill, bound-cycle), "ns/fill-base")
			b.ReportMetric(per(merge, entries), "ns/merged-entry")
			b.ReportMetric(float64(entries)/float64(away), "entries/away-base")
		})
	}
}

// plannedWalk is one directed walk walkStep makes: its anchors and bound,
// and the codes of the bases it found by lookup (one lookup each, what
// walkStep counts as its steps).
type plannedWalk struct {
	from, fromRC, to kmer.Kmer
	fromOK, toOK     bool
	maxLen           int
	path             []uint64
}

// planWalks records the walks walkStep makes on g at walkK against the
// graph s holds: left to right, and right to left unless that one closed
// the gap.
func planWalks(s *scratch, g *gapState) []plannedWalk {
	maxLen := g.est*maxGapFactor + 200
	from, fromOK := kmer.Pack(g.left[len(g.left)-walkK:], walkK)
	to, toOK := kmer.Pack(g.right, walkK)
	fromRC, toRC := from.RevComp(walkK), to.RevComp(walkK)
	var walks []plannedWalk
	for _, w := range []plannedWalk{
		{from: from, fromRC: fromRC, to: to, fromOK: fromOK, toOK: toOK, maxLen: maxLen},
		{from: toRC, fromRC: to, to: fromRC, fromOK: toOK, toOK: fromOK, maxLen: maxLen},
	} {
		ok, n := s.walk(w.from, w.fromRC, w.to, w.fromOK, w.toOK, walkK, w.maxLen)
		w.path = make([]uint64, n)
		for i, base := range s.walked[:n] {
			w.path[i], _ = kmer.BaseCode(base)
		}
		walks = append(walks, w)
		if ok {
			break
		}
	}
	return walks
}
