package verify

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

const tk = 21

// tile cuts overlapping windows from g on both strands, standing in for
// an error-free read set that covers every k-mer of g.
func tile(g []byte, readLen, step int) [][]byte {
	var reads [][]byte
	for i := 0; i+readLen <= len(g); i += step {
		reads = append(reads, g[i:i+readLen])
		reads = append(reads, kmer.RevCompString(g[i:i+readLen]))
	}
	return reads
}

func testOpts(ref []byte) Options {
	return Options{K: tk, Ref: ref}
}

func TestSpectrumCleanOnExactPieces(t *testing.T) {
	g := genome.Random(xrt.NewPrng(1), 20000)
	reads := tile(g, 100, 50)
	contigs := [][]byte{g[100:4000], kmer.RevCompString(g[5000:9000]), g[12000:19000]}
	rep := &Report{}
	CheckSpectrum(rep, contigs, reads, tk)
	if !rep.OK() {
		t.Fatalf("clean contigs flagged: %v", rep.Issues)
	}
	if rep.ContigsChecked != 3 || rep.KmersChecked == 0 || rep.MissingKmers != 0 {
		t.Fatalf("bad accounting: %+v", rep)
	}
}

func TestSpectrumCatchesFlippedBase(t *testing.T) {
	g := genome.Random(xrt.NewPrng(2), 20000)
	reads := tile(g, 100, 50)
	bad := append([]byte(nil), g[100:4000]...)
	mid := len(bad) / 2
	// flip one base to a different one
	for _, b := range []byte("ACGT") {
		if b != bad[mid] {
			bad[mid] = b
			break
		}
	}
	rep := &Report{}
	CheckSpectrum(rep, [][]byte{bad}, reads, tk)
	if rep.OK() {
		t.Fatal("flipped base not caught")
	}
	// a single substitution kills the k k-mers spanning it
	if rep.MissingKmers != tk {
		t.Fatalf("missing %d k-mers, want %d", rep.MissingKmers, tk)
	}
	if rep.Issues[0].Check != "spectrum" {
		t.Fatalf("wrong check flagged: %v", rep.Issues[0])
	}
	if rep.Err() == nil || !strings.Contains(rep.Err().Error(), "spectrum") {
		t.Fatalf("Err() = %v", rep.Err())
	}
}

func TestPlacementCleanOnExactPieces(t *testing.T) {
	g := genome.Random(xrt.NewPrng(3), 30000)
	seqs := [][]byte{g[500:6000], kmer.RevCompString(g[8000:15000]), g[20000:29000]}
	rep := &Report{}
	CheckPlacement(rep, seqs, testOpts(g))
	if !rep.OK() {
		t.Fatalf("clean placement flagged: %v", rep.Issues)
	}
	if rep.Placed != 3 || rep.Misassemblies != 0 || rep.Unplaced != 0 {
		t.Fatalf("bad accounting: %+v", rep)
	}
	if rep.IdentityFrac != 1 {
		t.Fatalf("identity %.4f, want 1", rep.IdentityFrac)
	}
}

func TestPlacementCatchesFalseJoin(t *testing.T) {
	g := genome.Random(xrt.NewPrng(4), 30000)
	// a chimeric sequence joining two distant loci with no gap between
	join := append(append([]byte(nil), g[2000:4000]...), g[20000:22000]...)
	rep := &Report{}
	CheckPlacement(rep, [][]byte{join}, testOpts(g))
	if rep.Misassemblies != 1 {
		t.Fatalf("false join not flagged: %+v", rep)
	}
	if rep.OK() {
		t.Fatal("report claims OK despite misassembly")
	}
}

func TestPlacementCatchesLowIdentity(t *testing.T) {
	g := genome.Random(xrt.NewPrng(5), 20000)
	// 5% divergence: anchors still vote one diagonal, but base identity
	// drops far below MinIdentity
	mut := genome.Mutate(xrt.NewPrng(6), g[1000:9000], 0.05)
	rep := &Report{}
	CheckPlacement(rep, [][]byte{mut}, testOpts(g))
	if rep.OK() {
		t.Fatalf("5%% divergent sequence passed: identity %.4f", rep.IdentityFrac)
	}
}

// TestPlacementTable pins the whole placement verdict — piece counts,
// covered fraction, identity — on small exact inputs at the default
// anchor length.
func TestPlacementTable(t *testing.T) {
	ref := func(seed int64, n int) []byte { return genome.Random(xrt.NewPrng(seed), n) }
	r1, r2, r3, r4, r5 := ref(1, 20000), ref(2, 10000), ref(3, 10000), ref(4, 20000), ref(5, 10000)
	mismatched := append([]byte(nil), r2[1000:5000]...)
	for i := 100; i < 120; i++ {
		mismatched[i] = kmer.Complement(mismatched[i])
	}
	gapped := append([]byte(nil), r3[2000:6000]...)
	copy(gapped[1000:1100], bytes.Repeat([]byte{'N'}, 100))
	cases := []struct {
		name string
		ref  []byte
		seqs [][]byte
		want Report
		ok   bool
	}{
		{"three-pieces", r1, [][]byte{r1[0:8000], r1[8000:15000], kmer.RevCompString(r1[15000:])},
			Report{Placed: 3, CoveredFrac: 1, IdentityFrac: 1}, true},
		{"chimera", r4, [][]byte{append(append([]byte(nil), r4[1000:3000]...), r4[15000:17000]...)},
			Report{Placed: 1, Misassemblies: 1, CoveredFrac: 0.2}, false},
		{"mismatches", r2, [][]byte{mismatched},
			Report{Placed: 1, CoveredFrac: 0.4, IdentityFrac: 1 - 20.0/4000}, true},
		// an N run splits the sequence; the pieces place independently and
		// the run itself covers nothing
		{"n-run", r3, [][]byte{gapped},
			Report{Placed: 2, CoveredFrac: 0.39, IdentityFrac: 1}, true},
		{"unplaced", r5, [][]byte{genome.Random(xrt.NewPrng(6), 3000)},
			Report{Unplaced: 1}, true},
		{"no-sequences", []byte("ACGT"), nil, Report{}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep := Place(c.seqs, c.ref)
			got := Report{Placed: rep.Placed, Unplaced: rep.Unplaced, Misassemblies: rep.Misassemblies,
				CoveredFrac: rep.CoveredFrac, IdentityFrac: rep.IdentityFrac}
			if !reflect.DeepEqual(got, c.want) || rep.OK() != c.ok {
				t.Fatalf("got %+v ok=%v, want %+v ok=%v", got, rep.OK(), c.want, c.ok)
			}
		})
	}
}

func TestGapEstimatesWithinTolerance(t *testing.T) {
	g := genome.Random(xrt.NewPrng(7), 30000)
	mkScaffold := func(gapEstimate int) []byte {
		// two pieces whose true reference distance is 2000 (piece 1 ends
		// at 3000, piece 2 starts at 5000), joined by an estimated gap
		s := append([]byte(nil), g[1000:3000]...)
		s = append(s, bytes.Repeat([]byte{'N'}, gapEstimate)...)
		return append(s, g[5000:8000]...)
	}
	rep := &Report{}
	CheckGaps(rep, [][]byte{mkScaffold(2000)}, testOpts(g))
	if !rep.OK() || rep.GapsChecked != 1 || rep.GapViolations != 0 {
		t.Fatalf("exact gap flagged: %+v %v", rep, rep.Issues)
	}
	rep = &Report{}
	CheckGaps(rep, [][]byte{mkScaffold(2030)}, testOpts(g))
	if !rep.OK() {
		t.Fatalf("gap off by 30 (within default tolerance 64) flagged: %v", rep.Issues)
	}
	rep = &Report{}
	CheckGaps(rep, [][]byte{mkScaffold(2300)}, testOpts(g))
	if rep.GapViolations != 1 {
		t.Fatalf("gap off by 300 not flagged: %+v", rep)
	}
	// orientation selection: the reverse-complement scaffold checks the
	// same gaps
	rep = &Report{}
	CheckGaps(rep, [][]byte{kmer.RevCompString(mkScaffold(2300))}, testOpts(g))
	if rep.GapViolations != 1 {
		t.Fatalf("gap violation missed on reverse-strand scaffold: %+v", rep)
	}
}

func TestCheckCombinesEverything(t *testing.T) {
	g := genome.Random(xrt.NewPrng(8), 20000)
	reads := tile(g, 100, 50)
	contigs := [][]byte{g[100:5000], g[6000:12000]}
	scaffold := append(append(append([]byte(nil), g[100:5000]...),
		bytes.Repeat([]byte{'N'}, 1000)...), g[6000:12000]...)
	rep := Check(Input{Contigs: contigs, Finals: [][]byte{scaffold}, Reads: reads},
		testOpts(g))
	if !rep.OK() {
		t.Fatalf("clean assembly flagged: %v", rep.Issues)
	}
	if rep.ContigsChecked != 2 || rep.Placed == 0 || rep.GapsChecked != 1 {
		t.Fatalf("checks skipped: %+v", rep)
	}
	if !strings.Contains(rep.Summary, "verify ok") {
		t.Fatalf("summary: %s", rep.Summary)
	}
	// empty input: trivially OK, nothing checked
	empty := Check(Input{}, Options{})
	if !empty.OK() || empty.ContigsChecked != 0 || empty.Err() != nil {
		t.Fatalf("empty input: %+v", empty)
	}
}

func TestIssueCapCountsDropped(t *testing.T) {
	g := genome.Random(xrt.NewPrng(9), 5000)
	reads := tile(g, 100, 50)
	junk := genome.Random(xrt.NewPrng(10), 100) // shares no k-mers with g
	var contigs [][]byte
	for i := 0; i < 30; i++ {
		contigs = append(contigs, junk)
	}
	rep := Check(Input{Contigs: contigs, Reads: reads}, Options{K: tk})
	if len(rep.Issues) != maxIssues || rep.Dropped != 30-maxIssues {
		t.Fatalf("issue cap: %d kept, %d dropped", len(rep.Issues), rep.Dropped)
	}
}

func TestCanonicalSetHelpers(t *testing.T) {
	a := []byte("ACGGTACCAGT")
	rc := kmer.RevCompString(a)
	if CanonicalSeq(a) != CanonicalSeq(rc) {
		t.Fatal("canonical form is strand-dependent")
	}
	s1 := CanonicalSet([][]byte{a, []byte("TTTTAAAC"), a})
	s2 := CanonicalSet([][]byte{[]byte("TTTTAAAC"), rc, kmer.RevCompString(a)})
	if !EqualSets(s1, s2) {
		t.Fatalf("equal multisets reported different: %s", DiffSets(s1, s2))
	}
	s3 := CanonicalSet([][]byte{a, []byte("TTTTAAAC")})
	if EqualSets(s1, s3) {
		t.Fatal("different multiplicities reported equal")
	}
	if DiffSets(s1, s3) == "" {
		t.Fatal("empty diff for differing sets")
	}
}
