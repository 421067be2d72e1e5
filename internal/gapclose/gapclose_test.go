package gapclose

import (
	"bytes"
	"testing"

	"hipmer/internal/contig"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/scaffold"
	"hipmer/internal/xrt"
)

const testK = 21

// runScaffolding builds a scaffolding result over explicit contig pieces
// with reads simulated from g.
func runScaffolding(t *testing.T, seed int64, g []byte, pieces [][]byte,
	ranks int) (*xrt.Team, *scaffold.Result, []scaffold.ReadLib) {
	t.Helper()
	rng := xrt.NewPrng(seed)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 30,
		Lib:      genome.Library{Name: "lib", ReadLen: 100, InsertMean: 400, InsertSD: 20},
		Err:      genome.ErrorModel{},
	})
	team := xrt.NewTeam(xrt.Config{Ranks: ranks})
	reads := make([][]fastq.Record, ranks)
	for i := 0; i+1 < len(recs); i += 2 {
		r := (i / 2) % ranks
		reads[r] = append(reads[r], recs[i], recs[i+1])
	}
	kres := kanalysis.Run(team, reads, kanalysis.Options{K: testK, MinCount: 2})
	ctgRes := &contig.Result{Contigs: make([][]*contig.Contig, ranks)}
	for i, p := range pieces {
		c := &contig.Contig{ID: int64(i + 1), Seq: p}
		ctgRes.Contigs[i%ranks] = append(ctgRes.Contigs[i%ranks], c)
	}
	libs := []scaffold.ReadLib{{Name: "lib", ReadsByRank: reads, InsertHint: 400}}
	sres := scaffold.Run(team, ctgRes, kres.Table, libs, scaffold.Options{K: testK})
	return team, sres, libs
}

// nFree reports whether seq contains no N.
func nFree(seq []byte) bool { return !bytes.ContainsRune(seq, 'N') }

func TestGapsClosedReproduceReference(t *testing.T) {
	rng := xrt.NewPrng(1)
	g := genome.Random(rng, 6000)
	pieces := [][]byte{g[0:1500], g[1600:3100], g[3220:4700], g[4790:6000]}
	team, sres, libs := runScaffolding(t, 2, g, pieces, 4)
	if len(sres.Scaffolds) != 1 {
		t.Fatalf("precondition: %d scaffolds", len(sres.Scaffolds))
	}
	res := Run(team, sres, libs, Options{})
	if res.Gaps != 3 {
		t.Fatalf("found %d gaps, want 3", res.Gaps)
	}
	if res.Closed != 3 {
		t.Fatalf("closed %d of %d gaps (span=%d walk=%d patch=%d)",
			res.Closed, res.Gaps, res.BySpanning, res.ByWalking, res.ByPatching)
	}
	if len(res.ScaffoldSeqs) != 1 {
		t.Fatalf("got %d final sequences", len(res.ScaffoldSeqs))
	}
	seq := res.ScaffoldSeqs[0]
	if !nFree(seq) {
		t.Fatal("closed scaffold still contains Ns")
	}
	if !bytes.Equal(seq, g) && !bytes.Equal(seq, kmer.RevCompString(g)) {
		t.Fatalf("final sequence (len %d) does not reproduce the reference (len %d)",
			len(seq), len(g))
	}
}

func TestLargeGapNeedsWalking(t *testing.T) {
	// gap of 250 > read length 100: no single read can span it, so the
	// k-mer walk (or patching) must cross
	rng := xrt.NewPrng(3)
	g := genome.Random(rng, 5000)
	pieces := [][]byte{g[0:2300], g[2550:5000]}
	team, sres, libs := runScaffolding(t, 4, g, pieces, 4)
	if len(sres.Scaffolds) != 1 {
		t.Skipf("scaffolding produced %d scaffolds", len(sres.Scaffolds))
	}
	res := Run(team, sres, libs, Options{})
	if res.Gaps != 1 {
		t.Fatalf("found %d gaps, want 1", res.Gaps)
	}
	if res.Closed != 1 {
		t.Fatalf("gap not closed (span=%d walk=%d patch=%d)",
			res.BySpanning, res.ByWalking, res.ByPatching)
	}
	if res.BySpanning != 0 {
		t.Fatal("a 250bp gap cannot be closed by a 100bp spanning read")
	}
	seq := res.ScaffoldSeqs[0]
	if !bytes.Equal(seq, g) && !bytes.Equal(seq, kmer.RevCompString(g)) {
		t.Fatalf("final sequence wrong (len %d vs %d)", len(seq), len(g))
	}
}

func TestUnclosableGapLeftAsNs(t *testing.T) {
	// remove the reads covering the gap region: closure must fail and the
	// gap must remain as Ns of the estimated size
	rng := xrt.NewPrng(5)
	g := genome.Random(rng, 4000)
	pieces := [][]byte{g[0:1900], g[2100:4000]}
	gapLo, gapHi := 1850, 2150

	recs, truth := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 30,
		Lib:      genome.Library{Name: "lib", ReadLen: 100, InsertMean: 400, InsertSD: 20},
		Err:      genome.ErrorModel{},
	})
	const ranks = 3
	team := xrt.NewTeam(xrt.Config{Ranks: ranks})
	reads := make([][]fastq.Record, ranks)
	kept := 0
	for i := 0; i+1 < len(recs); i += 2 {
		tr := truth[i/2]
		// drop any read overlapping the gap interior
		r1lo, r1hi, r2lo, r2hi := readSpans(tr)
		if overlaps(r1lo, r1hi, gapLo, gapHi) || overlaps(r2lo, r2hi, gapLo, gapHi) {
			continue
		}
		r := kept % ranks
		kept++
		reads[r] = append(reads[r], recs[i], recs[i+1])
	}
	kres := kanalysis.Run(team, reads, kanalysis.Options{K: testK, MinCount: 2})
	ctgRes := &contig.Result{Contigs: make([][]*contig.Contig, ranks)}
	for i, p := range pieces {
		ctgRes.Contigs[i%ranks] = append(ctgRes.Contigs[i%ranks],
			&contig.Contig{ID: int64(i + 1), Seq: p})
	}
	libs := []scaffold.ReadLib{{Name: "lib", ReadsByRank: reads, InsertHint: 400}}
	sres := scaffold.Run(team, ctgRes, kres.Table, libs, scaffold.Options{K: testK})
	if len(sres.Scaffolds) != 1 || len(sres.Scaffolds[0].Members) != 2 {
		t.Skip("span links insufficient without gap-adjacent reads")
	}
	res := Run(team, sres, libs, Options{})
	if res.Closed != 0 {
		t.Fatalf("gap closed without any covering reads (span=%d walk=%d patch=%d)",
			res.BySpanning, res.ByWalking, res.ByPatching)
	}
	seq := res.ScaffoldSeqs[0]
	if !bytes.Contains(seq, []byte("NNN")) {
		t.Fatal("unclosed gap should remain as Ns")
	}
}

func readSpans(tr genome.PairTruth) (int, int, int, int) {
	const L = 100
	return tr.Pos, tr.Pos + L, tr.Pos + tr.Insert - L, tr.Pos + tr.Insert
}

func overlaps(alo, ahi, blo, bhi int) bool { return alo < bhi && blo < ahi }

func TestFlippedMembersStillClose(t *testing.T) {
	rng := xrt.NewPrng(7)
	g := genome.Random(rng, 4200)
	pieces := [][]byte{g[0:1900], kmer.RevCompString(g[2050:4200])}
	team, sres, libs := runScaffolding(t, 8, g, pieces, 3)
	if len(sres.Scaffolds) != 1 || len(sres.Scaffolds[0].Members) != 2 {
		t.Skipf("precondition failed: %d scaffolds", len(sres.Scaffolds))
	}
	res := Run(team, sres, libs, Options{})
	if res.Closed != 1 {
		t.Fatalf("gap over flipped member not closed")
	}
	seq := res.ScaffoldSeqs[0]
	if !bytes.Equal(seq, g) && !bytes.Equal(seq, kmer.RevCompString(g)) {
		t.Fatalf("final sequence wrong (len %d vs %d)", len(seq), len(g))
	}
}

func TestWalkAcrossUnit(t *testing.T) {
	rng := xrt.NewPrng(9)
	g := genome.Random(rng, 400)
	left, right := g[:150], g[250:]
	// reads tile the whole region densely
	var reads [][]byte
	for i := 0; i+80 <= len(g); i += 7 {
		reads = append(reads, g[i:i+80])
	}
	var s scratch
	s.graph.build(reads, 21)
	if !s.walk(kmer.FromString(string(left[len(left)-21:])), kmer.FromString(string(right[:21])), true, true, 21, 500) {
		t.Fatal("walk failed on perfectly covered gap")
	}
	if closure := s.closure(21); !bytes.Equal(closure, g[150:250]) {
		t.Fatalf("closure %d bases, want the 100-base gap interior", len(closure))
	}
}

func TestWalkStopsAtAmbiguity(t *testing.T) {
	// two equally supported branches right after the flank: walk must fail
	left := []byte("ACGTACGTACGTACGTACGTACGTA")
	branch1 := append(append([]byte(nil), left...), []byte("GGGGGGGGGG")...)
	branch2 := append(append([]byte(nil), left...), []byte("CCCCCCCCCC")...)
	var s scratch
	s.graph.build([][]byte{branch1, branch2}, 21)
	if s.walk(kmer.FromString(string(left[len(left)-21:])), kmer.FromString("TTTTTTTTTTTTTTTTTTTTT"), true, true, 21, 100) {
		t.Fatal("walk crossed an ambiguous branch")
	}
}

// closeGapSeq is the whole-gap loop closeGaps replaced, kept as the oracle:
// one scratch tries the closure methods on one gap in order of cost and
// climbs the k ladder a step at a time, leaving at the first k that walks
// across. steps is the caller's ladder storage (reused between calls by the
// allocation gate); ran is how many steps the loop took.
func closeGapSeq(s *scratch, g *gapState, steps []ladderStep) (m Method, seq []byte, ran int) {
	if len(g.left) < minOverlap || len(g.right) < minOverlap {
		return Unclosed, nil, 0
	}
	if seq, ok := s.trySpanning(g, g.reads); ok {
		return Spanned, seq, 0
	}
	steps = steps[:ladderLen(g)]
	for i := range steps {
		k := walkK + i*walkKStep
		s.graph.build(g.reads, k)
		s.walkStep(g, k, &steps[i])
		if steps[i].ok {
			return Walked, steps[i].seq, i + 1
		}
	}
	if _, bestL, bestR := reduceLadder(steps); len(bestL) > 0 && len(bestR) > 0 {
		if seq, ok := s.patch(g, bestL, bestR); ok {
			return Patched, seq, len(steps)
		}
	}
	return Unclosed, nil, len(steps)
}

func TestSpanningUnit(t *testing.T) {
	rng := xrt.NewPrng(10)
	g := genome.Random(rng, 300)
	gst := &gapState{
		left:  g[:120],
		right: g[180:],
		est:   60,
		reads: [][]byte{g[100:200]}, // spans the gap
	}
	var s scratch
	m, seq, _ := closeGapSeq(&s, gst, nil)
	if m != Spanned {
		t.Fatalf("method %v, want spanned", m)
	}
	if !bytes.Equal(seq, g[120:180]) {
		t.Fatalf("closure wrong: %d bases, want 60", len(seq))
	}
	// reverse-complement spanning read must also work
	gst.reads = [][]byte{kmer.RevCompString(g[100:200])}
	m, seq, _ = closeGapSeq(&s, gst, nil)
	if m != Spanned || !bytes.Equal(seq, g[120:180]) {
		t.Fatalf("rc spanning failed: %v", m)
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		Unclosed: "unclosed", Spanned: "spanned", Walked: "walked", Patched: "patched",
	} {
		if m.String() != want {
			t.Fatalf("%d -> %s", m, m.String())
		}
	}
}

func TestPatchingUnit(t *testing.T) {
	// A single-k-mer coverage hole in mid-gap: neither directed walk can
	// cross it, but each penetrates k-1 bases into the hole window, so the
	// two partial walks overlap by k-2 bases — enough for patching (§4.8's
	// final method) and too little for any walk.
	const k = 21
	rng := xrt.NewPrng(11)
	g := genome.Random(rng, 700)
	left, right := g[:200], g[500:]
	gapSeq := g[200:500]
	const hole = 350 // k-mer window [hole, hole+k) will be uncovered
	var reads [][]byte
	for i := 150; i+25 <= 550; i++ {
		if i >= hole-4 && i <= hole {
			continue // removing these 25-mers uncovers exactly window `hole`
		}
		reads = append(reads, g[i:i+25])
	}
	gst := &gapState{left: left, right: right, est: len(gapSeq), reads: reads}
	// One ladder step, at k: no k escalation.
	var s scratch
	steps := make([]ladderStep, 1)
	s.graph.build(gst.reads, k)
	s.walkStep(gst, k, &steps[0])
	if steps[0].ok {
		t.Fatal("a walk crossed the coverage hole")
	}
	_, bestL, bestR := reduceLadder(steps)
	seq, ok := s.patch(gst, bestL, bestR)
	if !ok {
		t.Fatal("expected patched closure")
	}
	if !bytes.Equal(seq, gapSeq) {
		t.Fatalf("patched closure (%d bases) != gap interior (%d bases)",
			len(seq), len(gapSeq))
	}
}

// TestAppendWithGap: the scaffold-level join splice falls back to for an
// unclosed gap — a positive estimate becomes that many Ns, an overlap is
// merged only when it verifies exactly at the estimate and is long enough
// to mean something, and anything else gets a single N so the join cannot
// shift the frame downstream.
func TestAppendWithGap(t *testing.T) {
	left := []byte("TTGACCATGCAGGTACCGATTACAGGCATCA")
	ov := left[len(left)-20:]
	right := append(append([]byte(nil), ov...), "GGATCCTTAGCA"...)
	for _, c := range []struct {
		name string
		gap  int
		want string
	}{
		{"positive", 5, string(left) + "NNNNN" + string(right)},
		{"exact-overlap", -20, string(left) + string(right[20:])},
		{"estimate-off-by-two", -22, string(left) + "N" + string(right)},
		{"too-short-to-verify", -8, string(left) + "N" + string(right)},
		{"abutting", 0, string(left) + "N" + string(right)},
	} {
		if got := appendWithGap(append([]byte(nil), left...), right, c.gap); string(got) != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}
