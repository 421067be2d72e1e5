package scaffold

import (
	"testing"

	"hipmer/internal/contig"
	"hipmer/internal/dht"
	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kanalysis"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

const testK = 21

// fixture bundles a synthetic scaffolding scenario.
type fixture struct {
	team  *xrt.Team
	g     []byte
	recs  []fastq.Record     // the simulated pairs: 2i and 2i+1 are mates
	truth []genome.PairTruth // where pair i was drawn from
	reads [][]fastq.Record
	kt    *dht.Table[kmer.Kmer, kanalysis.KmerData]
	ctg   *contig.Result
	libs  []ReadLib
}

// mkFixture simulates reads from g, runs k-mer analysis, and installs the
// provided sequences as the contig set (IDs 1..n, round-robin by rank).
func mkFixture(t *testing.T, seed int64, g []byte, pieces [][]byte, ranks int) *fixture {
	t.Helper()
	rng := xrt.NewPrng(seed)
	recs, truth := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 25,
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
		ctgRes.NumContigs++
	}
	return &fixture{
		team: team, g: g, recs: recs, truth: truth, reads: reads, kt: kres.Table, ctg: ctgRes,
		libs: []ReadLib{{Name: "lib", ReadsByRank: reads, InsertHint: 400}},
	}
}

func scaffoldOrder(s *Scaffold) []int64 {
	var ids []int64
	for _, m := range s.Members {
		ids = append(ids, m.ContigID)
	}
	return ids
}

func reversedOrder(ids []int64) []int64 {
	out := make([]int64, len(ids))
	for i, v := range ids {
		out[len(ids)-1-i] = v
	}
	return out
}

func equalIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSpansOrderFourContigs(t *testing.T) {
	rng := xrt.NewPrng(1)
	g := genome.Random(rng, 6000)
	pieces := [][]byte{g[0:1500], g[1600:3200], g[3300:4800], g[4900:6000]}
	fx := mkFixture(t, 2, g, pieces, 4)
	res := Run(fx.team, fx.ctg, fx.kt, fx.libs, Options{K: testK})
	if len(res.Scaffolds) != 1 {
		for _, s := range res.Scaffolds {
			t.Logf("%+v", s.Members)
		}
		t.Fatalf("got %d scaffolds, want 1", len(res.Scaffolds))
	}
	s := res.Scaffolds[0]
	ids := scaffoldOrder(s)
	want := []int64{1, 2, 3, 4}
	if !equalIDs(ids, want) && !equalIDs(ids, reversedOrder(want)) {
		t.Fatalf("order %v, want 1,2,3,4 (either direction)", ids)
	}
	for i, m := range s.Members {
		if i == 0 {
			continue
		}
		if m.GapBefore < 60 || m.GapBefore > 140 {
			t.Fatalf("gap %d at member %d, want ~100", m.GapBefore, i)
		}
	}
	// orientations must be consistent (all same as the genome or all flipped)
	for _, m := range s.Members {
		if m.Flipped != s.Members[0].Flipped {
			t.Fatalf("inconsistent orientations: %+v", s.Members)
		}
	}
}

func TestFlippedContigGetsReorientated(t *testing.T) {
	rng := xrt.NewPrng(3)
	g := genome.Random(rng, 4500)
	b := kmer.RevCompString(g[1600:2900]) // stored reversed
	pieces := [][]byte{g[0:1500], b, g[3000:4500]}
	fx := mkFixture(t, 4, g, pieces, 3)
	res := Run(fx.team, fx.ctg, fx.kt, fx.libs, Options{K: testK})
	if len(res.Scaffolds) != 1 {
		t.Fatalf("got %d scaffolds, want 1", len(res.Scaffolds))
	}
	s := res.Scaffolds[0]
	if len(s.Members) != 3 {
		t.Fatalf("scaffold has %d members: %+v", len(s.Members), s.Members)
	}
	// find member 2 (the reversed piece): its orientation must differ from
	// its neighbors
	for i, m := range s.Members {
		if m.ContigID == 2 {
			j := i - 1
			if j < 0 {
				j = i + 1
			}
			if m.Flipped == s.Members[j].Flipped {
				t.Fatalf("reversed contig not flipped relative to neighbors: %+v", s.Members)
			}
		}
	}
}

func TestSplintsMergeOverlappingContigs(t *testing.T) {
	rng := xrt.NewPrng(5)
	g := genome.Random(rng, 3000)
	pieces := [][]byte{g[0:1020], g[980:2020], g[1980:3000]} // 40bp overlaps
	fx := mkFixture(t, 6, g, pieces, 3)
	res := Run(fx.team, fx.ctg, fx.kt, fx.libs, Options{K: testK})
	if len(res.Scaffolds) != 1 {
		t.Fatalf("got %d scaffolds, want 1", len(res.Scaffolds))
	}
	s := res.Scaffolds[0]
	splintLinks := 0
	for _, l := range res.Links {
		if l.Splints > 0 {
			splintLinks++
			if l.Gap > -20 || l.Gap < -60 {
				t.Fatalf("splint gap %f, want ~-40 (overlap)", l.Gap)
			}
		}
	}
	if splintLinks == 0 {
		t.Fatal("no splint links found for overlapping contigs")
	}
	for _, m := range s.Members[1:] {
		if m.GapBefore > -32 || m.GapBefore < -48 {
			t.Fatalf("member gap %d, want the 40-base overlap within 8", m.GapBefore)
		}
	}
}

func TestInsertEstimation(t *testing.T) {
	rng := xrt.NewPrng(7)
	g := genome.Random(rng, 8000)
	pieces := [][]byte{g} // one contig: plenty of same-contig pairs
	fx := mkFixture(t, 8, g, pieces, 4)
	res := Run(fx.team, fx.ctg, fx.kt, fx.libs, Options{K: testK})
	if res.InsertMean[0] < 380 || res.InsertMean[0] > 420 {
		t.Fatalf("insert mean %f, want ~400", res.InsertMean[0])
	}
	if res.InsertSD[0] < 5 || res.InsertSD[0] > 40 {
		t.Fatalf("insert sd %f, want ~20", res.InsertSD[0])
	}
}

func TestDepthsComputed(t *testing.T) {
	rng := xrt.NewPrng(9)
	g := genome.Random(rng, 4000)
	fx := mkFixture(t, 10, g, [][]byte{g[100:2000], g[2100:3900]}, 2)
	res := Run(fx.team, fx.ctg, fx.kt, fx.libs, Options{K: testK})
	for _, sc := range res.Contigs {
		// coverage 25 with read length 100: k-mer depth ≈ 25*(100-21+1)/100 ≈ 20
		if sc.Depth < 12 || sc.Depth > 30 {
			t.Fatalf("contig %d depth %f outside plausible band", sc.ID, sc.Depth)
		}
	}
}

func TestDiploidBubblesPoppedEndToEnd(t *testing.T) {
	// full pipeline integration: diploid reads -> kanalysis -> contigs ->
	// scaffolding with bubble merging
	rng := xrt.NewPrng(11)
	hap1 := genome.Random(rng, 12000)
	hap2 := genome.Mutate(rng, hap1, 0.004)
	recs, _ := genome.SimulatePairs(rng, hap1, genome.SimOptions{
		Coverage:   40,
		Lib:        genome.Library{Name: "d", ReadLen: 100, InsertMean: 350, InsertSD: 20},
		Err:        genome.ErrorModel{},
		Haplotypes: [][]byte{hap2},
	})
	const ranks = 4
	team := xrt.NewTeam(xrt.Config{Ranks: ranks})
	reads := make([][]fastq.Record, ranks)
	for i := 0; i+1 < len(recs); i += 2 {
		r := (i / 2) % ranks
		reads[r] = append(reads[r], recs[i], recs[i+1])
	}
	kres := kanalysis.Run(team, reads, kanalysis.Options{K: testK, MinCount: 4})
	cres := contig.Run(team, kres.Table, contig.Options{K: testK})
	if cres.NumContigs < 3 {
		t.Fatalf("diploid data should fragment into bubbles, got %d contigs", cres.NumContigs)
	}
	res := Run(team, cres, kres.Table,
		[]ReadLib{{Name: "d", ReadsByRank: reads, InsertHint: 350}},
		Options{K: testK})
	if res.Bubbles == 0 {
		t.Fatal("no bubbles popped on diploid data")
	}
	// the dominant scaffold should recover most of the haplotype length
	if len(res.Scaffolds) == 0 {
		t.Fatal("no scaffolds")
	}
	n := 0
	for _, m := range res.Scaffolds[0].Members {
		n += len(res.Contigs[m.ContigID].Seq) + m.GapBefore
	}
	if n < len(hap1)/2 {
		t.Fatalf("largest scaffold only %d of %d bases", n, len(hap1))
	}
}

func TestTrimmedMeanSD(t *testing.T) {
	hist := map[int]int64{400: 100, 401: 100, 399: 100, 10000: 2, 1: 2}
	mean, sd, n := trimmedMeanSD(hist, 0.01)
	if mean < 399 || mean > 401 {
		t.Fatalf("outliers not trimmed: mean %f", mean)
	}
	if sd > 2 {
		t.Fatalf("sd %f too high after trimming", sd)
	}
	if n < 290 {
		t.Fatalf("kept only %d observations", n)
	}
	if m, s, n0 := trimmedMeanSD(map[int]int64{}, 0.01); m != 0 || s != 0 || n0 != 0 {
		t.Fatal("empty histogram should return zeros")
	}
}

func TestNoLinksYieldsSingletonScaffolds(t *testing.T) {
	// unrelated contigs with reads only from one of them: no links between
	rng := xrt.NewPrng(13)
	g := genome.Random(rng, 3000)
	other := genome.Random(rng, 2500)
	fx := mkFixture(t, 14, g, [][]byte{g, other}, 2)
	res := Run(fx.team, fx.ctg, fx.kt, fx.libs, Options{K: testK})
	if len(res.Scaffolds) != 2 {
		t.Fatalf("got %d scaffolds, want 2 singletons", len(res.Scaffolds))
	}
	for _, s := range res.Scaffolds {
		if len(s.Members) != 1 {
			t.Fatalf("unexpected join: %+v", s.Members)
		}
	}
}

// TestLinkSupportThreshold: a link needs two concordant observations. A
// library whose only evidence is one pair spanning the gap between two
// contigs leaves them apart; a second such pair joins them.
func TestLinkSupportThreshold(t *testing.T) {
	rng := xrt.NewPrng(15)
	g := genome.Random(rng, 4000)
	pieces := [][]byte{g[0:1950], g[2050:4000]}
	fx := mkFixture(t, 16, g, pieces, 2)
	// The pairs whose mates (100 bases each) lie one in each contig.
	var spanning []fastq.Record
	for i, tr := range fx.truth {
		if tr.Pos+100 <= 1950 && tr.Pos+tr.Insert-100 >= 2050 {
			spanning = append(spanning, fx.recs[2*i], fx.recs[2*i+1])
		}
	}
	if len(spanning) < 4 {
		t.Fatalf("precondition: %d spanning pairs, want 2", len(spanning)/2)
	}
	for pairs, want := range map[int]struct{ links, scaffolds int }{1: {0, 2}, 2: {1, 1}} {
		libs := []ReadLib{{Name: "lib", ReadsByRank: [][]fastq.Record{spanning[:2*pairs], nil}, InsertHint: 400}}
		res := Run(fx.team, fx.ctg, fx.kt, libs, Options{K: testK})
		if len(res.Links) != want.links || len(res.Scaffolds) != want.scaffolds {
			t.Errorf("%d spanning pairs: %d links, %d scaffolds; want %d, %d",
				pairs, len(res.Links), len(res.Scaffolds), want.links, want.scaffolds)
		}
	}
}
