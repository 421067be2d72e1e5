package kanalysis

import (
	"fmt"
	"testing"
	"unsafe"

	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// splitReads distributes records round-robin by pair, as the parallel
// FASTQ reader would.
func splitReads(recs []fastq.Record, p int) [][]fastq.Record {
	out := make([][]fastq.Record, p)
	for i := 0; i+1 < len(recs); i += 2 {
		r := (i / 2) % p
		out[r] = append(out[r], recs[i], recs[i+1])
	}
	return out
}

// naiveCounts is the ground truth: exact canonical k-mer occurrence counts
// over all reads.
func naiveCounts(recs []fastq.Record, k int) map[kmer.Kmer]uint32 {
	m := make(map[kmer.Kmer]uint32)
	for _, rec := range recs {
		kmer.ForEach(rec.Seq, k, func(pos int, km kmer.Kmer) {
			c, _ := km.Canonical(k)
			m[c]++
		})
	}
	return m
}

func simReads(t *testing.T, seed int64, gLen int, cov float64, em genome.ErrorModel) ([]byte, []fastq.Record) {
	t.Helper()
	rng := xrt.NewPrng(seed)
	g := genome.Random(rng, gLen)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: cov,
		Lib:      genome.Library{Name: "t", ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      em,
	})
	return g, recs
}

func TestExactCountsErrorFree(t *testing.T) {
	const k = 21
	_, recs := simReads(t, 1, 20000, 15, genome.ErrorModel{})
	truth := naiveCounts(recs, k)
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	res := Run(team, splitReads(recs, 4), Options{K: k, MinCount: 2})
	got := make(map[kmer.Kmer]uint32)
	res.Table.RangeAll(func(km kmer.Kmer, d KmerData) bool {
		got[km] = d.Count
		return true
	})
	// every truth k-mer with count >= 2 must be present with exact count
	for km, c := range truth {
		if c < 2 {
			if _, ok := got[km]; ok {
				t.Fatalf("count-1 k-mer leaked into table")
			}
			continue
		}
		if got[km] != c {
			t.Fatalf("k-mer count %d != truth %d", got[km], c)
		}
	}
	for km := range got {
		if truth[km] < 2 {
			t.Fatalf("spurious k-mer in table (truth count %d)", truth[km])
		}
	}
}

// TestFrozenRemoteReadsEachChargeALookup: the frozen table has no read
// cache, so reading one remote k-mer twice is two lookups at its owner.
func TestFrozenRemoteReadsEachChargeALookup(t *testing.T) {
	const k = 21
	_, recs := simReads(t, 1, 5000, 10, genome.ErrorModel{})
	team := xrt.NewTeam(xrt.Config{Ranks: 4, RanksPerNode: 2})
	res := Run(team, splitReads(recs, 4), Options{K: k})
	var remote kmer.Kmer
	found := false
	res.Table.RangeAll(func(km kmer.Kmer, _ KmerData) bool {
		remote, found = km, res.Table.Owner(km) != 0
		return !found
	})
	if !found {
		t.Fatal("no k-mer owned by a rank other than 0")
	}
	ph := team.Run(func(r *xrt.Rank) {
		if r.ID != 0 {
			return
		}
		for i := 0; i < 2; i++ {
			if _, ok := res.Table.Get(r, remote); !ok {
				t.Errorf("read %d: k-mer absent", i)
			}
		}
	})
	if n := ph.Comm.Lookups(); n != 2 || ph.Comm.CacheHits != 0 {
		t.Fatalf("two reads of one remote k-mer: %d lookups, %d cache hits; want 2 and 0",
			n, ph.Comm.CacheHits)
	}
}

func TestErroneousKmersExcluded(t *testing.T) {
	const k = 21
	g, recs := simReads(t, 2, 20000, 30, genome.ErrorModel{StartRate: 0.005, EndRate: 0.02})
	genomic := make(map[kmer.Kmer]bool)
	kmer.ForEach(g, k, func(pos int, km kmer.Kmer) {
		c, _ := km.Canonical(k)
		genomic[c] = true
	})
	team := xrt.NewTeam(xrt.Config{Ranks: 4})
	res := Run(team, splitReads(recs, 4), Options{K: k, MinCount: 3})
	tableSize, nonGenomic := 0, 0
	res.Table.RangeAll(func(km kmer.Kmer, d KmerData) bool {
		tableSize++
		if !genomic[km] {
			nonGenomic++
		}
		return true
	})
	if tableSize == 0 {
		t.Fatal("empty table")
	}
	if frac := float64(nonGenomic) / float64(tableSize); frac > 0.02 {
		t.Fatalf("%.3f of table k-mers are erroneous", frac)
	}
	// coverage 30 should recover nearly all genomic k-mers
	recovered := 0
	for km := range genomic {
		if _, ok := res.Table.Lookup(km); ok {
			recovered++
		}
	}
	if frac := float64(recovered) / float64(len(genomic)); frac < 0.95 {
		t.Fatalf("only %.3f of genomic k-mers recovered", frac)
	}
}

func TestExtensionsMatchGenome(t *testing.T) {
	const k = 25
	g, recs := simReads(t, 3, 10000, 25, genome.ErrorModel{})
	team := xrt.NewTeam(xrt.Config{Ranks: 3})
	res := Run(team, splitReads(recs, 3), Options{K: k, MinCount: 2})
	// occurrence counts of canonical k-mers within the genome itself
	genomeCount := make(map[kmer.Kmer]int)
	kmer.ForEach(g, k, func(pos int, km kmer.Kmer) {
		c, _ := km.Canonical(k)
		genomeCount[c]++
	})
	checked := 0
	for pos := 1; pos+k < len(g)-1; pos++ {
		km, ok := kmer.Pack(g[pos:], k)
		if !ok {
			continue
		}
		canon, flipped := km.Canonical(k)
		if genomeCount[canon] != 1 {
			continue // repeats may legitimately fork
		}
		d, ok := res.Table.Lookup(canon)
		if !ok {
			continue // low-coverage tail
		}
		wantL, wantR := g[pos-1], g[pos+k]
		if flipped {
			wantL, wantR = kmer.Complement(wantR), kmer.Complement(wantL)
		}
		if kmer.IsBaseExt(d.ExtL) && d.ExtL != wantL {
			t.Fatalf("pos %d: ExtL %c, want %c", pos, d.ExtL, wantL)
		}
		if kmer.IsBaseExt(d.ExtR) && d.ExtR != wantR {
			t.Fatalf("pos %d: ExtR %c, want %c", pos, d.ExtR, wantR)
		}
		if d.IsUU() {
			checked++
		}
	}
	if checked < 5000 {
		t.Fatalf("only %d UU k-mers verified — suspicious", checked)
	}
}

func TestHeavyHitterEquivalence(t *testing.T) {
	// The optimization must not change results, only performance.
	const k = 21
	rng := xrt.NewPrng(4)
	g := genome.WheatLike(rng, 60000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 12,
		Lib:      genome.Library{Name: "w", ReadLen: 100, InsertMean: 280, InsertSD: 15},
	})
	collect := func(hh bool) (map[kmer.Kmer]KmerData, *Result) {
		team := xrt.NewTeam(xrt.Config{Ranks: 4})
		res := Run(team, splitReads(recs, 4), Options{
			K: k, MinCount: 2, HeavyHitters: hh, Theta: 2000, HHMinCount: 200,
		})
		m := make(map[kmer.Kmer]KmerData)
		res.Table.RangeAll(func(km kmer.Kmer, d KmerData) bool { m[km] = d; return true })
		return m, res
	}
	base, _ := collect(false)
	opt, optRes := collect(true)
	if optRes.HeavyHitters == 0 {
		t.Fatal("wheat-like data produced no heavy hitters")
	}
	if len(base) != len(opt) {
		t.Fatalf("table sizes differ: %d vs %d", len(base), len(opt))
	}
	for km, d := range base {
		if opt[km] != d {
			t.Fatalf("k-mer data differs with HH optimization: %+v vs %+v", d, opt[km])
		}
	}
}

func TestHeavyHittersImproveBalanceOnWheat(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(5)
	g := genome.WheatLike(rng, 80000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 10,
		Lib:      genome.Library{Name: "w", ReadLen: 100, InsertMean: 280, InsertSD: 15},
	})
	timeFor := func(hh bool) float64 {
		team := xrt.NewTeam(xrt.Config{Ranks: 16, RanksPerNode: 4})
		res := Run(team, splitReads(recs, 16), Options{
			K: k, MinCount: 2, HeavyHitters: hh, Theta: 2000, HHMinCount: 150,
		})
		return res.CountPhase.Virtual.Seconds() + res.PartitionPhase.Virtual.Seconds()
	}
	def, hh := timeFor(false), timeFor(true)
	if hh >= def {
		t.Fatalf("heavy hitters did not help on wheat-like data: default %fs, hh %fs", def, hh)
	}
}

// TestMinCountOneKeepsEveryKmer: at MinCount 1 the table holds every
// distinct k-mer of the reads, errors included, with the serial oracle's
// count and extension codes, called from the oracle's evidence, at 1, 4 and
// 32 ranks.
func TestMinCountOneKeepsEveryKmer(t *testing.T) {
	const k = 21
	_, recs := simReads(t, 7, 15000, 10, genome.DefaultErrorModel())
	wantEv := serialEvidence(recs, k)
	want := keptTable(wantEv, 1)
	for _, p := range []int{1, 4, 32} {
		log := newEndedLog()
		res := run(xrt.NewTeam(xrt.Config{Ranks: p, RanksPerNode: 4}), splitReads(recs, p),
			Options{K: k, MinCount: 1, HeavyHitters: true, HHMinCount: 64}, log.keep)
		log.check(t, fmt.Sprintf("%d ranks", p), k, wantEv)
		got := tableCounts(res)
		if len(got) != len(want) || res.Kept != int64(len(want)) {
			t.Fatalf("%d ranks: the table holds %d k-mers and kept %d; the reads have %d", p, len(got), res.Kept, len(want))
		}
		for km, d := range want {
			if got[km] != d {
				t.Fatalf("%d ranks: k-mer %s holds %+v, the oracle %+v", p, km.String(k), got[km], d)
			}
		}
	}
}

func TestDeterministicAcrossRankCounts(t *testing.T) {
	const k = 21
	_, recs := simReads(t, 6, 15000, 12, genome.DefaultErrorModel())
	collect := func(p int) map[kmer.Kmer]KmerData {
		team := xrt.NewTeam(xrt.Config{Ranks: p})
		res := Run(team, splitReads(recs, p), Options{K: k, MinCount: 2})
		m := make(map[kmer.Kmer]KmerData)
		res.Table.RangeAll(func(km kmer.Kmer, d KmerData) bool { m[km] = d; return true })
		return m
	}
	a, b := collect(2), collect(7)
	if len(a) != len(b) {
		t.Fatalf("rank count changed results: %d vs %d entries", len(a), len(b))
	}
	for km, d := range a {
		if b[km] != d {
			t.Fatal("rank count changed k-mer data")
		}
	}
}

func TestLowQualityExtensionsIgnored(t *testing.T) {
	// A read whose neighbor bases are low-quality must contribute counts
	// but no extension evidence.
	const k = 5
	seq := []byte("AACGTACGGT")
	hiq := []byte("IIIIIIIIII") // phred 40
	loq := []byte("##########") // phred 2
	mk := func(q []byte) []fastq.Record {
		var recs []fastq.Record
		for i := 0; i < 4; i++ {
			recs = append(recs, fastq.Record{ID: []byte{'r', byte('0' + i)}, Seq: seq, Qual: q})
		}
		return recs
	}
	run := func(q []byte) *Result {
		team := xrt.NewTeam(xrt.Config{Ranks: 2})
		return Run(team, splitReads(mk(q), 2), Options{K: k, MinCount: 2})
	}
	hi := run(hiq)
	lo := run(loq)
	var hiExt, loExt int
	hi.Table.RangeAll(func(km kmer.Kmer, d KmerData) bool {
		if kmer.IsBaseExt(d.ExtL) || kmer.IsBaseExt(d.ExtR) {
			hiExt++
		}
		return true
	})
	lo.Table.RangeAll(func(km kmer.Kmer, d KmerData) bool {
		if kmer.IsBaseExt(d.ExtL) || kmer.IsBaseExt(d.ExtR) {
			loExt++
		}
		if d.Count == 0 {
			t.Fatal("zero count entry")
		}
		return true
	})
	if hiExt == 0 {
		t.Fatal("high-quality reads produced no extensions")
	}
	if loExt != 0 {
		t.Fatalf("low-quality reads produced %d extensions", loExt)
	}
}

// TestKmerDataIsEightBytes: a table entry is the count and the two
// extension codes and nothing else — every reader of the frozen table needs
// only those, and the evidence they are called from stays in the count
// pass. A field added back doubles the shard's slots again.
func TestKmerDataIsEightBytes(t *testing.T) {
	if n := unsafe.Sizeof(KmerData{}); n != 8 {
		t.Fatalf("KmerData is %d bytes, want 8", n)
	}
}

func TestCallExt(t *testing.T) {
	cases := []struct {
		cnt  [4]uint32
		min  int
		want byte
	}{
		{[4]uint32{0, 0, 0, 0}, 2, kmer.ExtNone},
		{[4]uint32{5, 0, 0, 0}, 2, 'A'},
		{[4]uint32{0, 1, 0, 9}, 2, 'T'},
		{[4]uint32{3, 0, 4, 0}, 2, kmer.ExtFork},
		{[4]uint32{1, 1, 1, 1}, 2, kmer.ExtNone},
		{[4]uint32{0, 2, 2, 2}, 2, kmer.ExtFork},
	}
	for _, c := range cases {
		if got := callExt(c.cnt, c.min); got != c.want {
			t.Errorf("callExt(%v,%d) = %c, want %c", c.cnt, c.min, got, c.want)
		}
	}
}

func BenchmarkKmerAnalysisHuman(b *testing.B) {
	rng := xrt.NewPrng(8)
	g := genome.HumanLike(rng, 100000)
	recs, _ := genome.SimulatePairs(rng, g, genome.SimOptions{
		Coverage: 20,
		Lib:      genome.Library{Name: "b", ReadLen: 100, InsertMean: 350, InsertSD: 25},
		Err:      genome.DefaultErrorModel(),
	})
	parts := splitReads(recs, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		team := xrt.NewTeam(xrt.Config{Ranks: 8})
		Run(team, parts, Options{K: 31, MinCount: 2, HeavyHitters: true})
	}
}
