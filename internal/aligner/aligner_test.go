package aligner

import (
	"bytes"
	"cmp"
	"slices"
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
	idx := mkIndex(team, seqs, Options{}) // 50 copies of every repeat seed: over maxSeedHits
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

// TestContigCacheReducesRemoteFetches: every read aligns to the one
// contig, so each rank fetches it remotely once — its first read misses —
// and serves every later read from its cache.
func TestContigCacheReducesRemoteFetches(t *testing.T) {
	const ranks = 4
	rng := xrt.NewPrng(20)
	ctg := genome.Random(rng, 3000)
	reads := make([][]byte, 200)
	for i := range reads {
		pos := rng.Intn(len(ctg) - 100)
		reads[i] = ctg[pos : pos+100]
	}
	team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: 2})
	idx := mkIndex(team, [][]byte{ctg}, Options{})
	before := team.AggStats()
	team.Run(func(r *xrt.Rank) {
		for i := r.ID; i < len(reads); i += ranks {
			if len(idx.AlignRead(r, reads[i])) == 0 {
				t.Errorf("read %d does not align", i)
			}
		}
	})
	d := team.AggStats().Sub(before)
	if d.CacheMisses != ranks || d.CacheHits != int64(len(reads)-ranks) {
		t.Fatalf("contig cache counted %d hits and %d misses, want %d and one per rank",
			d.CacheHits, d.CacheMisses, len(reads)-ranks)
	}
}

func TestContigCacheEviction(t *testing.T) {
	var c contigCache
	for id := int64(1); id <= cacheContigs; id++ {
		if c.hit(id) {
			t.Fatal("cold cache reported a hit")
		}
	}
	if !c.hit(1) {
		t.Fatal("warm entry missed")
	}
	c.hit(cacheContigs + 1) // evicts 1 (FIFO)
	if c.hit(1) {
		t.Fatal("evicted entry reported hit")
	}
	// the order is a ring of cacheContigs ids: a long-lived cache never
	// grows it
	ringCap := cap(c.ring)
	for id := int64(10 * cacheContigs); id < 20*cacheContigs; id++ {
		c.hit(id)
	}
	if len(c.ring) != cacheContigs || cap(c.ring) != ringCap || len(c.have) != cacheContigs {
		t.Fatalf("after %d evictions: ring len %d cap %d (was %d), set %d, want %d",
			10*cacheContigs, len(c.ring), cap(c.ring), ringCap, len(c.have), cacheContigs)
	}
	last := int64(20*cacheContigs - 1)
	if !c.hit(last) || !c.hit(last-cacheContigs+1) || c.hit(last-cacheContigs) {
		t.Fatal("ring does not hold the most recent cacheContigs ids")
	}
}

// dealPairs deals read pairs to ranks round-robin, as the golden cases do.
func dealPairs(recs []fastq.Record, p int) [][]fastq.Record {
	reads := make([][]fastq.Record, p)
	for i := 0; i+1 < len(recs); i += 2 {
		r := (i / 2) % p
		reads[r] = append(reads[r], recs[i], recs[i+1])
	}
	return reads
}

// TestIndexDealIgnoresContigLayout: BuildIndex deals seed windows, not
// contigs, so where the contigs are held reaches neither the index nor the
// alignments. The same contigs — one of them long enough that its windows
// cross at least three ranks' shares — are held all on rank 0, dealt
// round-robin, and dealt in reverse order. In each layout every seed holds
// exactly the hits a scan of the whole contigs finds (any order; past
// maxSeedHits only the saturation), and every read aligns as it does
// against a one-rank index, which indexes every contig whole.
func TestIndexDealIgnoresContigLayout(t *testing.T) {
	const p = 4
	rng := xrt.NewPrng(31)
	g := genome.WheatLike(rng, 24000)
	ctgs := []*contig.Contig{{ID: 1, Seq: g[:14000]}}
	for pos := 14000; pos < len(g); {
		n := min(300+rng.Intn(1700), len(g)-pos)
		seq := g[pos : pos+n]
		if len(ctgs)%3 == 2 {
			seq = kmer.RevCompString(seq)
		}
		ctgs = append(ctgs, &contig.Contig{ID: int64(len(ctgs) + 1), Seq: seq})
		pos += n + rng.Intn(60)
	}
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 4,
		Lib:      genome.Library{Name: "deal", ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	reads := dealPairs(recs, p)

	one := xrt.NewTeam(xrt.Config{Ranks: 1})
	ref := BuildIndex(one, [][]*contig.Contig{ctgs}, Options{})
	want := make([][][]Alignment, p)
	aligned := 0
	one.Run(func(r *xrt.Rank) {
		for rank, rr := range reads {
			for _, rec := range rr {
				as := ref.AlignRead(r, rec.Seq)
				want[rank] = append(want[rank], as)
				if len(as) > 0 {
					aligned++
				}
			}
		}
	})
	if aligned < len(recs)/2 {
		t.Fatalf("precondition: %d of %d reads align", aligned, len(recs))
	}

	k := Options{}.withDefaults().SeedLen
	scanned := map[kmer.Kmer][]SeedHit{}
	for _, c := range ctgs {
		kmer.ForEachCanonical(c.Seq, k, func(pos int, canon kmer.Kmer, flipped bool) {
			scanned[canon] = append(scanned[canon], SeedHit{c.ID, int32(pos), flipped})
		})
	}
	byHit := func(a, b SeedHit) int {
		return cmp.Or(cmp.Compare(a.ContigID, b.ContigID), cmp.Compare(a.Pos, b.Pos))
	}
	for _, hs := range scanned {
		slices.SortFunc(hs, byHit)
	}
	for _, layout := range []struct {
		name string
		home func(i int) int
	}{
		{"rank0", func(int) int { return 0 }},
		{"round-robin", func(i int) int { return i % p }},
		{"reversed", func(i int) int { return (len(ctgs) - 1 - i) % p }},
	} {
		byRank := make([][]*contig.Contig, p)
		for i, c := range ctgs {
			byRank[layout.home(i)] = append(byRank[layout.home(i)], c)
		}
		// where the long contig's windows fall in the global window order
		windows, start, end := 0, 0, 0
		for _, cs := range byRank {
			for _, c := range cs {
				if c.ID == 1 {
					start = windows
				}
				windows += max(len(c.Seq)-k+1, 0)
				if c.ID == 1 {
					end = windows
				}
			}
		}
		shares := 0
		for r := range p {
			if lo, hi := windows*r/p, windows*(r+1)/p; lo < end && start < hi {
				shares++
			}
		}
		if shares < 3 {
			t.Fatalf("%s: the long contig crosses %d shares, want at least 3", layout.name, shares)
		}
		team := xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 2})
		idx := BuildIndex(team, byRank, Options{})
		seeds := 0
		idx.seeds.RangeAll(func(km kmer.Kmer, hl hitList) bool {
			seeds++
			want := scanned[km]
			if hl.saturated != (len(want) > maxSeedHits) {
				t.Fatalf("%s: a seed of %d hits is saturated: %v", layout.name, len(want), hl.saturated)
			}
			got := slices.Clone(hl.hits)
			if slices.SortFunc(got, byHit); !hl.saturated && !slices.Equal(got, want) {
				t.Fatalf("%s: a seed holds %+v, the contigs %+v", layout.name, got, want)
			}
			return true
		})
		if seeds != len(scanned) {
			t.Fatalf("%s: the index holds %d seeds, the contigs %d", layout.name, seeds, len(scanned))
		}
		got := AlignAll(team, idx, reads)
		for rank := range want {
			for i := range want[rank] {
				if !slices.Equal(got[rank][i], want[rank][i]) {
					t.Fatalf("%s: rank %d read %d aligns %+v, against one rank's index %+v",
						layout.name, rank, i, got[rank][i], want[rank][i])
				}
			}
		}
	}
}

// TestAlignAllMatchesAlignRead: aligning a rank's reads in chunks yields
// every alignment AlignRead yields one read at a time, and makes as many
// lookups, local and remote together, and the same contig fetches and
// cache hits: only the messages are fewer. The localities differ — a
// chunk asks for a seed its reads share once and answers the repeats
// locally — so the lookups are compared in total.
func TestAlignAllMatchesAlignRead(t *testing.T) {
	const p = 4
	ctgs, recs := goldenInput("human")
	byRank := make([][]*contig.Contig, p)
	for i, c := range ctgs {
		byRank[i%p] = append(byRank[i%p], c)
	}
	reads := dealPairs(recs, p)
	chunked := xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 2})
	got := AlignAll(chunked, BuildIndex(chunked, byRank, Options{}), reads)
	single := xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 2})
	idx := BuildIndex(single, byRank, Options{})
	want := make([][][]Alignment, p)
	single.Run(func(r *xrt.Rank) {
		for _, rec := range reads[r.ID] {
			want[r.ID] = append(want[r.ID], idx.AlignRead(r, rec.Seq))
		}
	})
	for rank := range want {
		if len(got[rank]) != len(want[rank]) {
			t.Fatalf("rank %d: %d results for %d reads", rank, len(got[rank]), len(want[rank]))
		}
		for i := range want[rank] {
			if !slices.Equal(got[rank][i], want[rank][i]) {
				t.Fatalf("rank %d read %d: chunked %+v, one at a time %+v", rank, i, got[rank][i], want[rank][i])
			}
		}
		g, w := chunked.RankStats(rank), single.RankStats(rank)
		if g.Lookups() != w.Lookups() || g.CacheHits != w.CacheHits || g.CacheMisses != w.CacheMisses || g.Msgs() >= w.Msgs() {
			t.Errorf("rank %d: chunked %+v, one at a time %+v", rank, g, w)
		}
	}
}

// TestSeedLookupsBatched: a rank asks each owner for its seeds once per
// chunk of alignChunk reads, so it sends at most chunks × (p − 1) seed
// messages. Reads from unrelated sequence align nowhere and fetch no
// contig, so every message they send is a seed batch; reads that align
// send the same batches plus at most one message per cache miss.
func TestSeedLookupsBatched(t *testing.T) {
	const p = 4
	ctgs, recs := goldenInput("wheat")
	byRank := make([][]*contig.Contig, p)
	for i, c := range ctgs {
		byRank[i%p] = append(byRank[i%p], c)
	}
	unrelated := make([]fastq.Record, 3000)
	rng := xrt.NewPrng(5)
	for i := range unrelated {
		unrelated[i].Seq = genome.Random(rng, 100)
	}
	for name, reads := range map[string][][]fastq.Record{
		"aligning":  dealPairs(recs, p),
		"unrelated": dealPairs(unrelated, p),
	} {
		team := xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 2})
		idx := BuildIndex(team, byRank, Options{})
		before := make([]xrt.CommStats, p)
		for rank := range before {
			before[rank] = team.RankStats(rank)
		}
		AlignAll(team, idx, reads)
		for rank := range before {
			d := team.RankStats(rank).Sub(before[rank])
			chunks := (len(reads[rank]) + alignChunk - 1) / alignChunk
			if chunks < 2 {
				t.Fatalf("%s: rank %d holds %d reads, not several chunks", name, rank, len(reads[rank]))
			}
			if name == "unrelated" && d.CacheHits+d.CacheMisses != 0 {
				t.Fatalf("unrelated reads fetched %d contigs", d.CacheHits+d.CacheMisses)
			}
			if bound := int64(chunks*(p-1)) + d.CacheMisses; d.Msgs() > bound {
				t.Errorf("%s: rank %d sent %d messages for %d chunks (%d cache misses), bound %d",
					name, rank, d.Msgs(), chunks, d.CacheMisses, bound)
			}
		}
	}
}
