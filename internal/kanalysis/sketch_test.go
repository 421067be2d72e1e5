package kanalysis

import (
	"fmt"
	"runtime"
	"testing"

	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/mg"
	"hipmer/internal/xrt"
)

// distinctReads gives every rank perRank random 100-base reads of its own,
// so a rank's windows are (all but certainly) distinct k-mers.
func distinctReads(ranks, perRank int) [][]fastq.Record {
	rng := xrt.NewPrng(5)
	out := make([][]fastq.Record, ranks)
	for r := range out {
		for i := 0; i < perRank; i++ {
			out[r] = append(out[r], fastq.Record{Seq: genome.Random(rng, 100)})
		}
	}
	return out
}

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSketchPassBoundsLiveSummaries: 96 ranks each fill about all θ
// counters with their sampled reads, yet the pass allocates a window's
// worth of counter tables, not 96. With GOMAXPROCS pinned the window W is
// 4, and the pass builds at most W rank summaries (one table each, sized
// once) plus the global one (θ·4/3 slots, then the 2θ·4/3 a merge of two
// full summaries needs, and its selection scratch): under W+4 tables. The
// bound is on bytes allocated, which no schedule changes. The merged
// summary has seen exactly the windows of the sampled reads.
func TestSketchPassBoundsLiveSummaries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const ranks, theta, window = 96, 2000, 4
	reads := distinctReads(ranks, 8*40) // about 40 sampled reads, 3200 windows, per rank at k=21
	opt := Options{K: 21, Theta: theta, HeavyHitters: true}.withDefaults()
	var sampleWindows int64
	for _, part := range reads {
		for _, rec := range part {
			if sampled(rec) {
				sampleWindows += 100 - 21 + 1
			}
		}
	}

	table := allocated(func() {
		s := mg.NewSeeded[kmer.Kmer](theta, hashSeed)
		s.Expect(2 * theta)
	})
	team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: 24})
	var merged *mg.Summary[kmer.Kmer]
	got := allocated(func() { merged = sketchPass(team, reads, opt, &Result{}) })

	if merged.N() != sampleWindows || sampleWindows < ranks*theta {
		t.Fatalf("merged %d windows; the sampled reads have %d", merged.N(), sampleWindows)
	}
	const slack = 512 << 10 // the phase's own bookkeeping
	if limit := (window+4)*table + slack; got > limit {
		t.Fatalf("sketch pass allocated %d bytes; %d summaries of %d bytes fit in %d",
			got, window+4, table, limit)
	}
	if all := ranks * table; all < 4*((window+4)*table+slack) {
		t.Fatalf("a table per rank is %d bytes: too close to the bound to tell the two apart", all)
	}
}

// TestSketchPassCrashUnwinds: the victim dies in its first charge — after
// its scan, before its turn in the ordered section — while higher ranks
// wait for that turn and, beyond the window, at the start gate. Everyone
// must unwind (the test timeout detects a hang) into the usual typed
// error.
func TestSketchPassCrashUnwinds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const ranks = 96
	inj := xrt.Inject{FailStage: "kmer-analysis"}
	for inj.FaultSeed = 1; inj.AfterCharges() != 1 || inj.Victim(ranks) > 2; inj.FaultSeed++ {
	}
	team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: 24, Inject: inj})
	team.BeginSpan("kmer-analysis")
	defer func() {
		fe, ok := recover().(*xrt.FaultError)
		if !ok || fe.Rank != inj.Victim(ranks) {
			t.Fatalf("Run panicked with %+v, want the *xrt.FaultError of rank %d", fe, inj.Victim(ranks))
		}
	}()
	Run(team, distinctReads(ranks, 4), Options{K: 21, HeavyHitters: true})
	t.Fatal("Run returned despite the armed crash")
}

// BenchmarkSketchPass is pass 1 by itself — scan, sketch, rank-order fold —
// on a human-like input at the rank counts of the human and wheat
// workloads.
func BenchmarkSketchPass(b *testing.B) {
	rng := xrt.NewPrng(8)
	recs, _ := genome.SimulatePairs(rng, genome.HumanLike(rng, 40000), genome.SimOptions{
		Coverage: 25,
		Lib:      genome.Library{Name: "b", ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	for _, ranks := range []int{32, 96} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			team := xrt.NewTeam(xrt.Config{Ranks: ranks, RanksPerNode: 24})
			reads := splitReads(recs, ranks)
			opt := Options{K: 31, HeavyHitters: true}.withDefaults()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sketchPass(team, reads, opt, &Result{})
			}
		})
	}
}

// BenchmarkStage1 is a whole Run — sketch, partition, count —
// on a human-like input at the human workload's rank count and on a
// wheat-like one (heavy hitters in most runs) at the wheat workload's, per
// k-mer window.
func BenchmarkStage1(b *testing.B) {
	for _, c := range []struct {
		name  string
		ranks int
		gen   func(*xrt.Prng, int) []byte
		opt   Options
	}{
		{"human/ranks=32", 32, genome.HumanLike, Options{K: 31, HeavyHitters: true}},
		{"wheat/ranks=96", 96, genome.WheatLike, Options{K: 31, HeavyHitters: true, Theta: 2000}},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := xrt.NewPrng(8)
			recs, _ := genome.SimulatePairs(rng, c.gen(rng, 40000), genome.SimOptions{
				Coverage: 25,
				Lib:      genome.Library{Name: "b", ReadLen: 100, InsertMean: 300, InsertSD: 20},
				Err:      genome.DefaultErrorModel(),
			})
			team := xrt.NewTeam(xrt.Config{Ranks: c.ranks, RanksPerNode: 24})
			reads := splitReads(recs, c.ranks)
			var windows int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				windows = Run(team, reads, c.opt).TotalKmers
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*windows), "ns/window")
		})
	}
}
