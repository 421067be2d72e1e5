package kanalysis

import (
	"bytes"
	"testing"

	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// tableCounts snapshots a result table's canonical k-mer counts.
func tableCounts(res *Result) map[kmer.Kmer]KmerData {
	got := make(map[kmer.Kmer]KmerData)
	res.Table.RangeAll(func(km kmer.Kmer, d KmerData) bool {
		got[km] = d
		return true
	})
	return got
}

// perfectReads wraps sequences as error-free, max-quality records.
func perfectReads(seqs [][]byte, copies int) []fastq.Record {
	var recs []fastq.Record
	for _, s := range seqs {
		q := bytes.Repeat([]byte{'I'}, len(s))
		for c := 0; c < copies; c++ {
			recs = append(recs, fastq.Record{ID: []byte("p"), Seq: s, Qual: q})
		}
	}
	return recs
}

// TestPseudoReadsMatchRepeatedPerfectReads: ingesting a sequence as a
// weight-w pseudo-read yields exactly the table that ingesting w
// perfect-quality copies of it as ordinary reads does — counts and
// extension tallies included. (This is the property the iterative-k
// loop leans on: a carried contig at weight w behaves like w ideal
// reads of itself.)
func TestPseudoReadsMatchRepeatedPerfectReads(t *testing.T) {
	const k, w = 21, 3
	rng := xrt.NewPrng(5)
	seqs := [][]byte{genome.Random(rng, 300), genome.Random(rng, 150)}
	const p = 4

	team := xrt.NewTeam(xrt.Config{Ranks: p})
	asReads := Run(team, splitReads(perfectReads(seqs, w*2), p), Options{K: k, MinCount: 2})

	pseudo := make([][]PseudoRead, p)
	for i, s := range seqs {
		pseudo[i%p] = append(pseudo[i%p], PseudoRead{Seq: s, Weight: w * 2})
	}
	team2 := xrt.NewTeam(xrt.Config{Ranks: p})
	asPseudo := Run(team2, make([][]fastq.Record, p), Options{
		K: k, MinCount: 2, PseudoByRank: pseudo,
	})

	want, got := tableCounts(asReads), tableCounts(asPseudo)
	if len(want) != len(got) {
		t.Fatalf("table sizes differ: reads %d, pseudo %d", len(want), len(got))
	}
	for km, wd := range want {
		gd, ok := got[km]
		if !ok {
			t.Fatalf("k-mer missing from pseudo table")
		}
		if gd.Count != wd.Count || gd.LeftCnt != wd.LeftCnt || gd.RightCnt != wd.RightCnt ||
			gd.ExtL != wd.ExtL || gd.ExtR != wd.ExtR {
			t.Fatalf("k-mer data differs: reads %+v, pseudo %+v", wd, gd)
		}
	}
	if asPseudo.PseudoReads != 2 || asPseudo.PseudoKmers <= 0 {
		t.Fatalf("pseudo accounting: %d reads / %d k-mers", asPseudo.PseudoReads, asPseudo.PseudoKmers)
	}
}

// TestPseudoReadsCombineWithReads: pseudo-read weight adds onto real
// read occurrences of the same k-mers (commutative sums), and a weight
// of 0 is treated as 1.
func TestPseudoReadsCombineWithReads(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(6)
	s := genome.Random(rng, 200)
	const p = 2

	run := func(pseudoWeight uint32, copies int) map[kmer.Kmer]KmerData {
		team := xrt.NewTeam(xrt.Config{Ranks: p})
		pseudo := make([][]PseudoRead, p)
		if pseudoWeight > 0 || copies == 0 {
			pseudo[0] = []PseudoRead{{Seq: s, Weight: pseudoWeight}}
		}
		var recs []fastq.Record
		if copies > 0 {
			recs = perfectReads([][]byte{s}, copies)
		}
		opt := Options{K: k, MinCount: 2}
		if pseudo[0] != nil {
			opt.PseudoByRank = pseudo
		}
		return tableCounts(Run(team, splitReads(recs, p), opt))
	}

	// 2 read copies + weight-4 pseudo == 6 read copies (even counts:
	// splitReads deals complete pairs only)
	withPseudo := run(4, 2)
	pure := run(0, 6)
	if len(withPseudo) != len(pure) {
		t.Fatalf("table sizes differ: %d vs %d", len(withPseudo), len(pure))
	}
	for km, wd := range pure {
		if withPseudo[km].Count != wd.Count {
			t.Fatalf("count %d != %d", withPseudo[km].Count, wd.Count)
		}
	}

	// weight 0 behaves as weight 1: alone it is below MinCount 2... so
	// compare against weight 1 directly on counts doubled by MinCount=1.
	team := xrt.NewTeam(xrt.Config{Ranks: p})
	w0 := tableCounts(Run(team, make([][]fastq.Record, p), Options{
		K: k, MinCount: 1,
		PseudoByRank: [][]PseudoRead{{{Seq: s, Weight: 0}}, nil},
	}))
	for _, d := range w0 {
		if d.Count != 1 {
			t.Fatalf("weight-0 pseudo counted %d, want 1", d.Count)
		}
	}
}

// mustPanic runs Run on opt and fails t unless it panics.
func mustPanic(t *testing.T, what string, ranks int, opt Options) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s accepted", what)
		}
	}()
	Run(xrt.NewTeam(xrt.Config{Ranks: ranks}), make([][]fastq.Record, ranks), opt)
}

// TestPseudoByRankShapeEnforced: a PseudoByRank whose length disagrees
// with the team's rank count is a caller bug and must panic loudly.
func TestPseudoByRankShapeEnforced(t *testing.T) {
	mustPanic(t, "mis-shaped PseudoByRank", 4, Options{K: 21, PseudoByRank: make([][]PseudoRead, 3)})
}

// TestPseudoRefusedOnPerItemTransport: pseudo-reads travel only as
// weighted super-k-mer records, so the per-item ablation refuses them, and
// a weight no record can carry is refused rather than truncated.
func TestPseudoRefusedOnPerItemTransport(t *testing.T) {
	s := genome.Random(xrt.NewPrng(7), 100)
	mustPanic(t, "PseudoByRank with DisableSuperKmers", 2, Options{
		K: 21, DisableSuperKmers: true, PseudoByRank: [][]PseudoRead{{{Seq: s, Weight: 3}}, nil},
	})
	mustPanic(t, "a pseudo-read of weight 256", 2, Options{
		K: 21, PseudoByRank: [][]PseudoRead{nil, {{Seq: s, Weight: kmer.MaxSuperKmerWeight + 1}}},
	})
}

// TestPseudoDeterministicAcrossSwitches: the final table with pseudo-reads
// is identical with and without the heavy-hitter path and the Bloom screen.
// One sequence is both 200 read copies — heavy hitters — and a pseudo-read,
// whose heavy windows then fold into the sender's accumulator at the
// weight instead of travelling; without the Bloom screen every read window
// is counted on admission, pseudo-read windows at their weight.
func TestPseudoDeterministicAcrossSwitches(t *testing.T) {
	const k = 21
	rng := xrt.NewPrng(8)
	_, recs := simReads(t, 9, 8000, 10, genome.DefaultErrorModel())
	repeat := genome.Random(rng, 150)
	recs = append(recs, perfectReads([][]byte{repeat}, 200)...)
	pseudoSeqs := [][]byte{genome.Random(rng, 250), genome.Random(rng, 120), repeat}
	const p = 4
	pseudo := make([][]PseudoRead, p)
	for i, s := range pseudoSeqs {
		pseudo[i%p] = append(pseudo[i%p], PseudoRead{Seq: s, Weight: 4})
	}

	var base map[kmer.Kmer]KmerData
	for _, variant := range []Options{
		{},
		{HeavyHitters: true},
		{DisableBloom: true},
		{HeavyHitters: true, DisableBloom: true},
	} {
		variant.K, variant.MinCount, variant.Theta, variant.HHMinCount, variant.PseudoByRank = k, 2, 2000, 100, pseudo
		team := xrt.NewTeam(xrt.Config{Ranks: p})
		res := Run(team, splitReads(recs, p), variant)
		if variant.HeavyHitters && res.HeavyHitters == 0 {
			t.Fatal("200 copies of one read made no heavy hitter")
		}
		got := tableCounts(res)
		if base == nil {
			base = got
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("heavy hitters %v, Bloom off %v: table sizes differ: %d vs %d", variant.HeavyHitters, variant.DisableBloom, len(got), len(base))
		}
		for km, d := range base {
			if got[km] != d {
				t.Fatalf("heavy hitters %v, Bloom off %v: k-mer data differs: %+v vs %+v", variant.HeavyHitters, variant.DisableBloom, got[km], d)
			}
		}
	}
}
