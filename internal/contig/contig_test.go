package contig

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hipmer/internal/dht"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// tableFromSeqs builds a k-mer analysis table directly from reference
// sequences (each fed twice so the Bloom screen admits every k-mer),
// giving fully controlled graph structure for traversal tests.
func tableFromSeqs(team *xrt.Team, seqs [][]byte, k int) *dht.Table[kmer.Kmer, kanalysis.KmerData] {
	var recs []fastq.Record
	for i, s := range seqs {
		q := bytes.Repeat([]byte{'I'}, len(s))
		for rep := 0; rep < 2; rep++ {
			recs = append(recs, fastq.Record{
				ID: []byte{byte('a' + i), byte('0' + rep)}, Seq: s, Qual: q,
			})
		}
	}
	p := team.Config().Ranks
	parts := make([][]fastq.Record, p)
	for i, rec := range recs {
		parts[i%p] = append(parts[i%p], rec)
	}
	res := kanalysis.Run(team, parts, kanalysis.Options{K: k, MinCount: 2})
	return res.Table
}

func canonSeq(s []byte) string {
	rc := kmer.RevCompString(s)
	if bytes.Compare(rc, s) < 0 {
		return string(rc)
	}
	return string(s)
}

func isSubstringEitherStrand(g, s []byte) bool {
	return bytes.Contains(g, s) || bytes.Contains(g, kmer.RevCompString(s))
}

func TestSingleUniqueSequenceYieldsOneContig(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(1)
	g := genome.Random(rng, 5000)
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	kt := tableFromSeqs(team, [][]byte{g}, k)
	res := Run(team, kt, Options{K: k})
	all := res.All()
	if len(all) != 1 {
		t.Fatalf("got %d contigs, want 1", len(all))
	}
	// the terminal k-mers of the genome have no extension evidence and are
	// not UU, so the contig loses exactly one base at each end
	if canonSeq(all[0].Seq) != canonSeq(g[1:len(g)-1]) {
		t.Fatalf("contig does not reconstruct the genome (len %d vs %d)",
			len(all[0].Seq), len(g))
	}
	if all[0].TermL != TermNone || all[0].TermR != TermNone {
		t.Fatalf("expected X/X termination, got %c/%c", all[0].TermL, all[0].TermR)
	}
	if all[0].ID != 1 || res.NumContigs != 1 {
		t.Fatalf("bad ids: %d, count %d", all[0].ID, res.NumContigs)
	}
}

func TestEveryUUKmerInExactlyOneContig(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(2)
	g := genome.HumanLike(rng, 30000)
	team := xrt.NewTeam(xrt.Config{Ranks: 6})
	kt := tableFromSeqs(team, [][]byte{g}, k)
	res := Run(team, kt, Options{K: k})
	seen := make(map[kmer.Kmer]int)
	for _, c := range res.All() {
		kmer.ForEach(c.Seq, k, func(pos int, km kmer.Kmer) {
			canon, _ := km.Canonical(k)
			seen[canon]++
		})
	}
	var uu, missing, dup int
	res.Graph.RangeAll(func(km kmer.Kmer, _ Node) bool {
		uu++
		switch seen[km] {
		case 0:
			missing++
		case 1:
		default:
			dup++
		}
		return true
	})
	if missing != 0 || dup != 0 {
		t.Fatalf("UU kmers: %d total, %d missing from contigs, %d duplicated", uu, missing, dup)
	}
	// and no contig contains a k-mer outside the graph
	for km, n := range seen {
		if n > 1 {
			t.Fatalf("k-mer appears %d times across contigs", n)
		}
		if _, ok := res.Graph.Lookup(km); !ok {
			t.Fatal("contig contains k-mer not in UU graph")
		}
	}
}

func TestContigsAreSubstringsOfReference(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(3)
	g := genome.WheatLike(rng, 40000)
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	kt := tableFromSeqs(team, [][]byte{g}, k)
	res := Run(team, kt, Options{K: k})
	if res.NumContigs < 2 {
		t.Fatalf("repetitive genome yielded %d contigs; expected fragmentation", res.NumContigs)
	}
	covered := 0
	for _, c := range res.All() {
		if !isSubstringEitherStrand(g, c.Seq) {
			t.Fatalf("contig of length %d is not a substring of the reference", len(c.Seq))
		}
		covered += len(c.Seq)
	}
	if covered < len(g)/2 {
		t.Fatalf("contigs cover only %d of %d bases", covered, len(g))
	}
}

func TestDeterministicAcrossRankCounts(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(4)
	g := genome.HumanLike(rng, 20000)
	collect := func(p int) map[string]bool {
		team := xrt.NewTeam(xrt.Config{Ranks: p})
		kt := tableFromSeqs(team, [][]byte{g}, k)
		res := Run(team, kt, Options{K: k})
		m := make(map[string]bool)
		for _, c := range res.All() {
			m[canonSeq(c.Seq)] = true
		}
		return m
	}
	a := collect(1)
	for _, p := range []int{6, 24} {
		b := collect(p)
		if len(a) != len(b) {
			t.Fatalf("contig sets differ in size: %d at 1 rank vs %d at %d", len(a), len(b), p)
		}
		for s := range a {
			if !b[s] {
				t.Fatalf("contig set at %d ranks differs from 1 rank's", p)
			}
		}
	}
}

func TestForkTermination(t *testing.T) {
	// Two sequences sharing a middle segment: the shared segment's
	// boundary k-mers fork, so the interior becomes its own contig with
	// fork/non-reciprocal terminations.
	const k = 21
	rng := xrt.NewPrng(5)
	shared := genome.Random(rng, 200)
	g1 := append(append(genome.Random(rng, 300), shared...), genome.Random(rng, 300)...)
	g2 := append(append(genome.Random(rng, 300), shared...), genome.Random(rng, 300)...)
	team := xrt.NewTeam(xrt.Config{Ranks: 3})
	kt := tableFromSeqs(team, [][]byte{g1, g2}, k)
	res := Run(team, kt, Options{K: k})
	if res.NumContigs < 3 {
		t.Fatalf("got %d contigs, want >= 3 (fork should split)", res.NumContigs)
	}
	forkish := 0
	for _, c := range res.All() {
		for _, term := range []byte{c.TermL, c.TermR} {
			if term == TermFork || term == TermNonRecip {
				forkish++
			}
		}
		if !isSubstringEitherStrand(g1, c.Seq) && !isSubstringEitherStrand(g2, c.Seq) {
			t.Fatal("contig not a substring of either source")
		}
	}
	if forkish == 0 {
		t.Fatal("no fork/non-reciprocal terminations at a known branch point")
	}
}

func TestCycleDetection(t *testing.T) {
	// A circular sequence: feed the rotation-closed string so every k-mer
	// has unique extensions around the circle. However many walks cut the
	// ring, it is one contig that starts at its least canonical k-mer read
	// as stored, byte-equal at every rank count.
	const k = 21
	rng := xrt.NewPrng(6)
	circ := genome.Random(rng, 3000)
	closed := append(append([]byte(nil), circ...), circ[:k]...)
	around := bytes.Repeat(circ, 3) // holds every reading of the ring
	var first *Contig
	for _, p := range []int{1, 2, 8, 24} {
		team := xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 4})
		kt := tableFromSeqs(team, [][]byte{closed}, k)
		all := Run(team, kt, Options{K: k}).All()
		if len(all) != 1 {
			t.Fatalf("%d ranks: cycle yielded %d contigs", p, len(all))
		}
		c := all[0]
		if c.TermL != TermCycle || c.TermR != TermCycle {
			t.Fatalf("%d ranks: terminations %c/%c, want C/C", p, c.TermL, c.TermR)
		}
		if len(c.Seq) != len(circ)+k-1 || !isSubstringEitherStrand(around, c.Seq) {
			t.Fatalf("%d ranks: the contig (%d bases) is not the %d-base ring", p, len(c.Seq), len(circ))
		}
		start, _ := kmer.Pack(c.Seq, k)
		kmer.ForEachCanonical(c.Seq, k, func(_ int, canon kmer.Kmer, _ bool) {
			if canon.Less(start) {
				t.Fatalf("%d ranks: the ring does not start at its least canonical k-mer", p)
			}
		})
		if first == nil {
			first = c
		} else if !bytes.Equal(c.Seq, first.Seq) || c.SumCount != first.SumCount {
			t.Fatalf("%d ranks: the ring differs from the 1-rank run's", p)
		}
	}
}

// TestInvertedRepeatTerminates: a + u + rc(u) + b folds back on itself —
// a walk through u reads u's vertices again on the other strand. The walk
// must end that direction at its own claim and turn around, not stop, so
// the traversal finishes at every rank count with the same contigs and
// every UU k-mer in exactly one of them.
func TestInvertedRepeatTerminates(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(10)
	a, u, b := genome.Random(rng, 500), genome.Random(rng, 300), genome.Random(rng, 500)
	g := append(append(append(append([]byte(nil), a...), u...), kmer.RevCompString(u)...), b...)
	var want []*Contig
	for _, p := range []int{1, 4, 24} {
		team := xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 4})
		res := Run(team, tableFromSeqs(team, [][]byte{g}, k), Options{K: k})
		all := res.All()
		seen := make(map[kmer.Kmer]int)
		for _, c := range all {
			kmer.ForEachCanonical(c.Seq, k, func(_ int, canon kmer.Kmer, _ bool) { seen[canon]++ })
		}
		res.Graph.RangeAll(func(km kmer.Kmer, _ Node) bool {
			if seen[km] != 1 {
				t.Fatalf("%d ranks: a UU k-mer lies in %d contigs, want 1", p, seen[km])
			}
			return true
		})
		if len(seen) != int(res.UUKmers) {
			t.Fatalf("%d ranks: contigs hold %d k-mers, the graph %d", p, len(seen), res.UUKmers)
		}
		if want == nil {
			want = all
			continue
		}
		if len(all) != len(want) {
			t.Fatalf("%d ranks: %d contigs, 1 rank %d", p, len(all), len(want))
		}
		for i := range all {
			if !reflect.DeepEqual(*all[i], *want[i]) {
				t.Fatalf("%d ranks: contig %d differs from the 1-rank run's", p, i+1)
			}
		}
	}
	// a's contig, b's, and u's, which ends at the fold
	folds := 0
	for _, c := range want {
		if c.TermL == TermCycle || c.TermR == TermCycle {
			folds++
		}
	}
	if len(want) != 3 || folds != 1 {
		t.Fatalf("%d contigs, %d ending at the fold: want 3 and 1", len(want), folds)
	}
}

func TestTraversalFromSimulatedReads(t *testing.T) {
	// end-to-end k-mer analysis -> contigs on error-containing reads
	const k = 21
	rng := xrt.NewPrng(7)
	g := genome.Random(rng, 30000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 30,
		Lib:      genome.Library{Name: "t", ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	parts := make([][]fastq.Record, 4)
	for i, rec := range recs {
		parts[i%4] = append(parts[i%4], rec)
	}
	kres := kanalysis.Run(team, parts, kanalysis.Options{K: k, MinCount: 3})
	res := Run(team, kres.Table, Options{K: k})
	var covered int
	for _, c := range res.All() {
		if !isSubstringEitherStrand(g, c.Seq) {
			t.Fatalf("contig (len %d) not in reference", len(c.Seq))
		}
		covered += len(c.Seq)
	}
	if float64(covered) < 0.9*float64(len(g)) {
		t.Fatalf("contigs cover only %d of %d reference bases", covered, len(g))
	}
}

func TestHighContentionManyRanksSmallGraph(t *testing.T) {
	// Many ranks fighting over one chain exercises the claim/link path.
	const k = 21
	rng := xrt.NewPrng(8)
	g := genome.Random(rng, 3000)
	team := xrt.NewTeam(xrt.Config{Ranks: 24, RanksPerNode: 6})
	kt := tableFromSeqs(team, [][]byte{g}, k)
	res, stitch := runSpanned(team, kt, k)
	all := res.All()
	if len(all) != 1 {
		t.Fatalf("got %d contigs, want 1", len(all))
	}
	if canonSeq(all[0].Seq) != canonSeq(g[1:len(g)-1]) {
		t.Fatal("contested traversal corrupted the contig")
	}
	// walks do collide — the chain is stitched from linked fragments — and
	// every walk that claimed its seed completed: none aborts
	if linked := stitch.Counters["walks_linked"]; linked == 0 || res.Aborted != 0 || res.Claimed != res.Completed {
		t.Fatalf("claims %d, completed %d, linked %d, aborts %d: want links, no aborts and claims = completed",
			res.Claimed, res.Completed, linked, res.Aborted)
	}
}

func TestOracleReducesOffNodeLookups(t *testing.T) {
	// The oracle scenario of §3.2: assemble individual 1, build the oracle
	// from its contigs, then assemble individual 2 of the same species
	// (0.2% diverged). Real genomes yield many contigs spread over ranks;
	// model that with many chromosome-scale fragments.
	const k = 21
	rng := xrt.NewPrng(9)
	var g1, g2 [][]byte
	for i := 0; i < 160; i++ {
		c := genome.Random(rng, 300+rng.Intn(600))
		g1 = append(g1, c)
		g2 = append(g2, genome.Mutate(rng, c, 0.002))
	}

	const ranks = 8
	run := func(oracle *dht.Oracle) (*Result, xrt.CommStats, map[string]bool) {
		team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: 2})
		kt := tableFromSeqs(team, g2, k)
		before := team.AggStats()
		res := Run(team, kt, Options{K: k, Oracle: oracle})
		seqs := make(map[string]bool)
		for _, c := range res.All() {
			seqs[canonSeq(c.Seq)] = true
		}
		return res, team.AggStats().Sub(before), seqs
	}

	// assembly of the first individual provides the oracle
	team1 := xrt.NewTeam(xrt.Config{Ranks: ranks})
	res1 := Run(team1, tableFromSeqs(team1, g1, k), Options{K: k})
	if res1.NumContigs < 100 {
		t.Fatalf("expected many contigs for the oracle, got %d", res1.NumContigs)
	}
	oracle := BuildOracle(res1.All(), k, ranks, 1<<20)

	// The paper's baseline is uniform hashing — a vector with no slot
	// assigned — not the default layout, which places the graph as the
	// k-mer table.
	_, statsNo, seqsNo := run(dht.NewOracle(1, ranks))
	_, statsOr, seqsOr := run(oracle)
	_, _, seqsDef := run(nil)

	// Table 2 of the paper reports the *reduction in off-node lookups*
	// (41-76% depending on oracle vector size); the oracle does not
	// eliminate off-node traffic because hash-slot collisions and k-mers
	// novel to the second individual stay uniformly placed. The oracle
	// makes at most 60 % of uniform hashing's off-node lookups.
	offNo, offOr := statsNo.OffNodeLookups, statsOr.OffNodeLookups
	if offOr*10 > offNo*6 {
		t.Fatalf("oracle off-node lookups %d vs no-oracle %d: reduction below 40%%",
			offOr, offNo)
	}
	if fracNo, fracOr := statsNo.OffNodeLookupFrac(), statsOr.OffNodeLookupFrac(); fracNo-fracOr < 0.1 {
		t.Fatalf("off-node fraction barely moved: %.3f -> %.3f", fracNo, fracOr)
	}
	// identical assemblies under every layout: uniform hashing, the
	// oracle, and the default co-located placement
	for _, c := range []struct {
		name string
		seqs map[string]bool
	}{{"oracle", seqsOr}, {"default layout", seqsDef}} {
		if len(c.seqs) != len(seqsNo) {
			t.Fatalf("%s changed the assembly: %d vs %d contigs", c.name, len(c.seqs), len(seqsNo))
		}
		for s := range seqsNo {
			if !c.seqs[s] {
				t.Fatalf("%s changed contig content", c.name)
			}
		}
	}
}

func TestDepth(t *testing.T) {
	c := &Contig{Seq: bytes.Repeat([]byte{'A'}, 30), SumCount: 100}
	if d := c.Depth(21); d != 10 {
		t.Fatalf("depth = %f, want 10", d)
	}
	short := &Contig{Seq: []byte("ACGT"), SumCount: 5}
	if d := short.Depth(21); d != 0 {
		t.Fatalf("short contig depth = %f, want 0", d)
	}
}

func TestKMustBeOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for even k")
		}
	}()
	team := xrt.NewTeam(xrt.Config{Ranks: 1})
	kt := tableFromSeqs(team, [][]byte{[]byte(strings.Repeat("ACGT", 20))}, 21)
	Run(team, kt, Options{K: 22})
}
