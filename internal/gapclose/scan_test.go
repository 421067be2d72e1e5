package gapclose

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// scanGap is a 60-base gap between two 200-base flanks under 300 reads of
// 100 bases, each inside one flank, so none spans it and no walk enters
// it. span is a read that does, and interior the closure it gives.
func scanGap(seed int64) (g *gapState, span, interior []byte) {
	const flank, gapLen, readLen = 200, 60, 100
	rng := xrt.NewPrng(seed)
	seq := genome.Random(rng, 2*flank+gapLen)
	reads := make([][]byte, 300)
	for i := range reads {
		at := rng.Intn(flank - readLen + 1)
		if i%2 == 1 {
			at += flank + gapLen
		}
		reads[i] = seq[at : at+readLen]
	}
	g = &gapState{id: gapID{0, 1}, left: seq[:flank], right: seq[flank+gapLen:], est: gapLen, reads: reads}
	return g, seq[flank-20 : flank+gapLen+20], seq[flank : flank+gapLen]
}

// chunkOf returns the index of the chunk holding read i of j's gap.
func chunkOf(j *gapJob, i int) int {
	for c, ch := range j.chunks {
		if i < len(ch.reads) {
			return c
		}
		i -= len(ch.reads)
	}
	return -1
}

// TestChunkedScanKeepsFirstSpanningRead: one gap on p ranks is scanned in
// up to p chunks, all but chunk 0 on ranks away from its home, and the
// closure is the one the first spanning read in read order gives, as the
// whole-gap loop finds it — wherever the spanning reads fall among the
// chunks.
func TestChunkedScanKeepsFirstSpanningRead(t *testing.T) {
	g0, span, interior := scanGap(61)
	last := len(g0.reads) - 1
	variant := bytes.Clone(span) // spans too, with an interior one base off
	variant[40] = map[byte]byte{'A': 'C', 'C': 'G', 'G': 'T', 'T': 'A'}[variant[40]]
	for _, c := range []struct {
		name string
		put  map[int][]byte // read index → the spanning read put there
		want []byte         // nil: unclosed
		// lo and hi, when set, are the indices that must fall in different
		// chunks once there are two or more
		lo, hi int
	}{
		{name: "last-chunk-only", put: map[int][]byte{last: span}, want: interior},
		{name: "lower-index-wins", put: map[int][]byte{140: variant, last: span}, want: variant[20:80], lo: 140, hi: last},
		{name: "none"},
		{name: "reverse-strand", put: map[int][]byte{200: kmer.RevCompString(span)}, want: interior},
	} {
		// At 64 ranks the 300 equal reads go 5 to a chunk: no cut into at
		// most 64 chunks has a shorter longest one.
		for _, shape := range []struct{ p, chunks int }{{1, 1}, {2, 2}, {3, 3}, {64, 60}} {
			p := shape.p
			t.Run(fmt.Sprint(c.name, "/", p, "ranks"), func(t *testing.T) {
				g := *g0
				g.reads = slices.Clone(g0.reads)
				for i, rd := range c.put {
					g.reads[i] = rd
				}
				gaps := []*gapState{&g}
				jobs := newJobs(gaps)
				byRank := dealScan(jobs, p, xrt.DefaultCostModel())
				j := jobs[0]
				if len(j.chunks) != shape.chunks {
					t.Fatalf("%d chunks on %d ranks, want %d", len(j.chunks), p, shape.chunks)
				}
				for r, cs := range byRank {
					if len(cs) > 1 || (len(cs) == 1 && (cs[0] == j.chunks[0]) != (r == j.home)) {
						t.Fatalf("rank %d holds %d chunks: want one each, chunk 0 on home %d", r, len(cs), j.home)
					}
				}
				if c.hi > 0 && len(j.chunks) > 1 && chunkOf(j, c.lo) >= chunkOf(j, c.hi) {
					t.Fatalf("precondition: reads %d and %d both in chunk %d", c.lo, c.hi, chunkOf(j, c.lo))
				}

				closures, rec := closeSpan(gaps, p)
				if got := rec.Counters["scan_chunks"]; got != int64(len(j.chunks)) {
					t.Errorf("scan_chunks %d, the plan cuts %d", got, len(j.chunks))
				}
				var s scratch
				m, seq, _ := closeGapSeq(&s, &g, make([]ladderStep, 3))
				if closures[0].method != m || !bytes.Equal(closures[0].seq, seq) {
					t.Fatalf("%v closure of %d bases, the whole-gap loop gives %v of %d",
						closures[0].method, len(closures[0].seq), m, len(seq))
				}
				if want := map[bool]Method{true: Spanned, false: Unclosed}[c.want != nil]; m != want || !bytes.Equal(seq, c.want) {
					t.Fatalf("%v closure %s, want %v %s", m, seq, want, c.want)
				}
			})
		}
	}
}

// TestScanStaysHomeWithoutIdleRanks: with at least as many gaps as ranks
// every rank is some gap's home, so no gap is cut and every scan runs where
// the whole-gap deal put it.
func TestScanStaysHomeWithoutIdleRanks(t *testing.T) {
	gaps := syntheticGaps(55, 12)
	for _, p := range []int{1, 4, 12} {
		jobs := newJobs(gaps)
		for r, cs := range dealScan(jobs, p, xrt.DefaultCostModel()) {
			for _, c := range cs {
				if c.job.home != r || len(c.job.chunks) != 1 {
					t.Fatalf("%d ranks: rank %d scans a chunk of %d of a gap homed on %d", p, r, len(c.job.chunks), c.job.home)
				}
			}
		}
		if _, span := closeSpan(gaps, p); span.Counters["scan_chunks"] != int64(len(gaps)) {
			t.Fatalf("%d ranks: %d chunks scanned for %d gaps", p, span.Counters["scan_chunks"], len(gaps))
		}
	}
}
