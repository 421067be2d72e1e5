package aligner

import (
	"bytes"
	"testing"

	"hipmer/internal/contig"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// mkIndex builds an index over the given sequences treated as contigs,
// distributed round-robin over the team.
func mkIndex(team *xrt.Team, seqs [][]byte, opt Options) *Index {
	p := team.Config().Ranks
	byRank := make([][]*contig.Contig, p)
	for i, s := range seqs {
		c := &contig.Contig{ID: int64(i + 1), Seq: s}
		byRank[i%p] = append(byRank[i%p], c)
	}
	return BuildIndex(team, byRank, opt)
}

func alignOne(t *testing.T, idx *Index, team *xrt.Team, read []byte) []Alignment {
	t.Helper()
	var alns []Alignment
	team.Run(func(r *xrt.Rank) {
		if r.ID == 0 {
			alns = idx.AlignRead(r, read)
		}
	})
	return alns
}

func TestPlantedReadsAlignExactly(t *testing.T) {
	rng := xrt.NewPrng(1)
	ctg := genome.Random(rng, 5000)
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	idx := mkIndex(team, [][]byte{ctg}, Options{})
	for _, pos := range []int{0, 100, 1234, 4900} {
		readLen := 100
		if pos+readLen > len(ctg) {
			readLen = len(ctg) - pos
		}
		read := ctg[pos : pos+readLen]
		alns := alignOne(t, idx, team, read)
		if len(alns) == 0 {
			t.Fatalf("pos %d: no alignment", pos)
		}
		a := alns[0]
		if a.ContigID != 1 || a.Flipped || a.CStart != pos || a.CEnd != pos+readLen {
			t.Fatalf("pos %d: got %+v", pos, a)
		}
		if !a.FullLength() || a.Matches != readLen {
			t.Fatalf("pos %d: expected perfect full-length alignment: %+v", pos, a)
		}
	}
}

func TestReverseComplementReadsFlip(t *testing.T) {
	rng := xrt.NewPrng(2)
	ctg := genome.Random(rng, 3000)
	team := xrt.NewTeam(xrt.Config{Ranks: 3})
	idx := mkIndex(team, [][]byte{ctg}, Options{})
	pos := 500
	read := kmer.RevCompString(ctg[pos : pos+120])
	alns := alignOne(t, idx, team, read)
	if len(alns) == 0 {
		t.Fatal("no alignment for rc read")
	}
	a := alns[0]
	if !a.Flipped {
		t.Fatalf("expected flipped alignment: %+v", a)
	}
	if a.CStart != pos || a.CEnd != pos+120 {
		t.Fatalf("rc coordinates wrong: %+v", a)
	}
	if !bytes.Equal(kmer.RevCompString(read[a.RStart:a.REnd]), ctg[a.CStart:a.CEnd]) {
		t.Fatal("flipped alignment coordinate contract violated")
	}
}

func TestReadsWithMismatchesStillAlign(t *testing.T) {
	rng := xrt.NewPrng(3)
	ctg := genome.Random(rng, 4000)
	team := xrt.NewTeam(xrt.Config{Ranks: 2})
	idx := mkIndex(team, [][]byte{ctg}, Options{})
	read := append([]byte(nil), ctg[1000:1100]...)
	// plant 3 scattered substitutions (3% error)
	for _, p := range []int{10, 50, 90} {
		c, _ := kmer.BaseCode(read[p])
		read[p] = kmer.CodeBase((c + 1) % 4)
	}
	alns := alignOne(t, idx, team, read)
	if len(alns) == 0 {
		t.Fatal("no alignment for read with mismatches")
	}
	a := alns[0]
	if a.CStart > 1010 || a.CEnd < 1090 {
		t.Fatalf("alignment does not cover the planted region: %+v", a)
	}
	if a.Identity() < 0.9 {
		t.Fatalf("identity %f too low", a.Identity())
	}
}

func TestReadSpanningTwoContigsAlignsToBoth(t *testing.T) {
	// splint scenario: contigs overlap and a read bridges their junction
	rng := xrt.NewPrng(4)
	g := genome.Random(rng, 2000)
	a := g[:1020] // contigs share a 40bp overlap
	b := g[980:]
	team := xrt.NewTeam(xrt.Config{Ranks: 2})
	idx := mkIndex(team, [][]byte{a, b}, Options{})
	read := g[950:1050] // spans the junction
	alns := alignOne(t, idx, team, read)
	if len(alns) < 2 {
		t.Fatalf("expected alignments to both contigs, got %d", len(alns))
	}
	ids := map[int64]bool{}
	for _, al := range alns {
		ids[al.ContigID] = true
	}
	if !ids[1] || !ids[2] {
		t.Fatalf("alignments missing a contig: %+v", alns)
	}
}

func TestUnrelatedReadDoesNotAlign(t *testing.T) {
	rng := xrt.NewPrng(5)
	ctg := genome.Random(rng, 3000)
	team := xrt.NewTeam(xrt.Config{Ranks: 2})
	idx := mkIndex(team, [][]byte{ctg}, Options{})
	read := genome.Random(rng, 100)
	alns := alignOne(t, idx, team, read)
	for _, a := range alns {
		if a.REnd-a.RStart > 40 {
			t.Fatalf("long spurious alignment of random read: %+v", a)
		}
	}
}

func TestRepeatSeedsSaturate(t *testing.T) {
	// a contig set full of one repeated segment must not blow up the
	// candidate lists; alignment against a unique region still works
	rng := xrt.NewPrng(6)
	rep := genome.Random(rng, 400)
	uniq := genome.Random(rng, 1000)
	var seqs [][]byte
	for i := 0; i < 50; i++ {
		seqs = append(seqs, append(append([]byte(nil), rep...), genome.Random(rng, 50)...))
	}
	seqs = append(seqs, uniq)
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	idx := mkIndex(team, seqs, Options{MaxSeedHits: 8})
	read := uniq[300:400]
	alns := alignOne(t, idx, team, read)
	if len(alns) == 0 {
		t.Fatal("unique read failed to align amid repeats")
	}
	if alns[0].ContigID != int64(len(seqs)) {
		t.Fatalf("aligned to wrong contig %d", alns[0].ContigID)
	}
}

func TestAlignAllSimulatedPairs(t *testing.T) {
	rng := xrt.NewPrng(7)
	g := genome.Random(rng, 20000)
	recs, truth := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 4,
		Lib:      genome.Library{Name: "a", ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	idx := mkIndex(team, [][]byte{g}, Options{})
	// distribute reads keeping pairs together
	readsByRank := make([][]fastq.Record, 4)
	pairRank := make([][2]int, len(truth)) // (rank, local index of read1)
	for i := 0; i+1 < len(recs); i += 2 {
		r := (i / 2) % 4
		pairRank[i/2] = [2]int{r, len(readsByRank[r])}
		readsByRank[r] = append(readsByRank[r], recs[i], recs[i+1])
	}
	alns := AlignAll(team, idx, readsByRank)
	aligned, correct := 0, 0
	for pi, tr := range truth {
		rk, li := pairRank[pi][0], pairRank[pi][1]
		a1 := alns[rk][li]
		if len(a1) == 0 {
			continue
		}
		aligned++
		// read1 comes from tr.Pos (fragment start) on the fragment strand
		want := tr.Pos
		if tr.Flipped {
			want = tr.Pos + tr.Insert - 100
		}
		if abs(a1[0].CStart-want) <= 5 {
			correct++
		}
	}
	if aligned < len(truth)*9/10 {
		t.Fatalf("only %d/%d pairs aligned", aligned, len(truth))
	}
	if correct < aligned*95/100 {
		t.Fatalf("only %d/%d alignments at the true position", correct, aligned)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestBestOverlapExact(t *testing.T) {
	rng := xrt.NewPrng(8)
	g := genome.Random(rng, 600)
	a := g[:400]
	b := g[350:] // 50bp true overlap
	o, ok := BestOverlap(a, b, 20, 0.9)
	if !ok {
		t.Fatal("no overlap found")
	}
	if o.LenA != 50 || o.LenB != 50 {
		t.Fatalf("overlap lengths %d/%d, want 50/50", o.LenA, o.LenB)
	}
	if o.Identity() != 1.0 {
		t.Fatalf("identity %f", o.Identity())
	}
}

func TestBestOverlapWithErrors(t *testing.T) {
	rng := xrt.NewPrng(9)
	g := genome.Random(rng, 600)
	a := append([]byte(nil), g[:400]...)
	b := append([]byte(nil), g[340:]...) // 60bp overlap
	// two mismatches inside the overlap region of b
	for _, p := range []int{10, 40} {
		c, _ := kmer.BaseCode(b[p])
		b[p] = kmer.CodeBase((c + 2) % 4)
	}
	o, ok := BestOverlap(a, b, 30, 0.9)
	if !ok {
		t.Fatal("no overlap found despite 96% identity")
	}
	if o.LenA < 55 || o.LenB < 55 {
		t.Fatalf("overlap too short: %+v", o)
	}
}

func TestBestOverlapRejectsUnrelated(t *testing.T) {
	rng := xrt.NewPrng(10)
	a := genome.Random(rng, 300)
	b := genome.Random(rng, 300)
	if o, ok := BestOverlap(a, b, 30, 0.92); ok {
		t.Fatalf("found overlap between unrelated sequences: %+v", o)
	}
}

func TestBestOverlapEmptyInputs(t *testing.T) {
	if _, ok := BestOverlap(nil, []byte("ACGT"), 1, 0.9); ok {
		t.Fatal("overlap on empty input")
	}
	if _, ok := BestOverlap([]byte("ACGT"), nil, 1, 0.9); ok {
		t.Fatal("overlap on empty input")
	}
}

func BenchmarkAlignRead(b *testing.B) {
	rng := xrt.NewPrng(11)
	g := genome.Random(rng, 100000)
	team := xrt.NewTeam(xrt.Config{Ranks: 1})
	idx := mkIndex(team, [][]byte{g}, Options{})
	read := g[5000:5100]
	b.ReportAllocs()
	b.ResetTimer()
	team.Run(func(r *xrt.Rank) {
		for i := 0; i < b.N; i++ {
			idx.AlignRead(r, read)
		}
	})
}

// indexInput cuts 200 kbp of sequence into 2–6 kbp contigs for the
// index-build gate and benchmark.
func indexInput(g []byte, ranks int) (byRank [][]*contig.Contig, positions int) {
	rng := xrt.NewPrng(12)
	byRank = make([][]*contig.Contig, ranks)
	k := Options{}.withDefaults().SeedLen
	for pos, i := 0, 0; pos < len(g); i++ {
		n := min(2000+rng.Intn(4000), len(g)-pos)
		byRank[i%ranks] = append(byRank[i%ranks], &contig.Contig{ID: int64(i + 1), Seq: g[pos : pos+n]})
		positions += max(n-k+1, 0)
		pos += n
	}
	return byRank, positions
}

func BenchmarkBuildIndex(b *testing.B) {
	// human-like: mostly unique seeds, plus the repeat families whose hit
	// lists grow and saturate
	byRank, positions := indexInput(genome.HumanLike(xrt.NewPrng(14), 200000), 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		team := xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2})
		BuildIndex(team, byRank, Options{})
	}
	b.ReportMetric(float64(positions), "positions/op")
}

// TestAlignReadAllocations: a rank's steady-state AlignRead allocates the
// slice it returns and nothing else, whichever strand the read is on.
func TestAlignReadAllocations(t *testing.T) {
	rng := xrt.NewPrng(13)
	g := genome.Random(rng, 20000)
	team := xrt.NewTeam(xrt.Config{Ranks: 1})
	idx := mkIndex(team, [][]byte{g[:12000], g[11000:]}, Options{})
	reads := [][]byte{g[5000:5100], kmer.RevCompString(g[7000:7100]), g[11450:11550]}
	team.Run(func(r *xrt.Rank) {
		for _, read := range reads {
			if len(idx.AlignRead(r, read)) == 0 { // and warms the scratch
				t.Errorf("precondition: read does not align")
			}
			if allocs := testing.AllocsPerRun(50, func() { idx.AlignRead(r, read) }); allocs > 2 {
				t.Errorf("steady-state AlignRead: %.0f allocations, ceiling 2", allocs)
			}
		}
	})
}

// TestBuildIndexAllocations: indexing a contig position whose seed occurs
// once costs no allocation of its own — the hit comes from the rank's
// arena and the owner adopts it — and what remains (the arenas, the store
// buffers, the slot arrays) is amortised over the positions. The sequence
// is random, so every seed is unique; a repeated seed's list grows by
// append like any slice.
func TestBuildIndexAllocations(t *testing.T) {
	byRank, positions := indexInput(genome.Random(xrt.NewPrng(14), 200000), 4)
	allocs := testing.AllocsPerRun(3, func() {
		team := xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2})
		BuildIndex(team, byRank, Options{})
	})
	if perPos := allocs / float64(positions); perPos > 0.01 {
		t.Fatalf("BuildIndex: %.0f allocations for %d positions = %.4f per position, ceiling 0.01", allocs, positions, perPos)
	}
}

func TestContigCacheReducesRemoteFetches(t *testing.T) {
	rng := xrt.NewPrng(20)
	ctg := genome.Random(rng, 3000)
	reads := make([][]byte, 200)
	for i := range reads {
		pos := rng.Intn(len(ctg) - 100)
		reads[i] = ctg[pos : pos+100]
	}
	run := func(cache int) xrt.CommStats {
		team := xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2})
		idx := mkIndex(team, [][]byte{ctg}, Options{CacheContigs: cache})
		before := team.AggStats()
		team.Run(func(r *xrt.Rank) {
			for i := r.ID; i < len(reads); i += 4 {
				idx.AlignRead(r, reads[i])
			}
		})
		return team.AggStats().Sub(before)
	}
	withCache := run(1024)
	withoutCache := run(-1)
	remote := func(d xrt.CommStats) int64 { return d.OnNodeLookups + d.OffNodeLookups }
	if remote(withCache) >= remote(withoutCache) {
		t.Fatalf("cache did not reduce remote lookups: %d vs %d", remote(withCache), remote(withoutCache))
	}
	// every read revisits the one contig: the rank's first fetch misses,
	// the rest hit, and the team's stats count both
	if withCache.CacheHits == 0 || withCache.CacheMisses == 0 {
		t.Fatalf("contig cache counted %d hits and %d misses, want both > 0",
			withCache.CacheHits, withCache.CacheMisses)
	}
}

func TestContigCacheEviction(t *testing.T) {
	c := &contigCache{cap: 2, have: make(map[int64]bool)}
	if c.hit(1) || c.hit(2) {
		t.Fatal("cold cache reported hits")
	}
	if !c.hit(1) {
		t.Fatal("warm entry missed")
	}
	c.hit(3) // evicts 1 (FIFO)
	if c.hit(1) {
		t.Fatal("evicted entry reported hit")
	}
	// the order is a ring of cap ids: a long-lived cache never grows it
	for id := int64(10); id < 1000; id++ {
		c.hit(id)
	}
	if len(c.ring) != 2 || cap(c.ring) > 2 || len(c.have) != 2 {
		t.Fatalf("after 990 evictions: ring len %d cap %d, set %d, want 2 2 2", len(c.ring), cap(c.ring), len(c.have))
	}
	if !c.hit(999) || !c.hit(998) || c.hit(997) {
		t.Fatal("ring does not hold the two most recent ids")
	}
}
