package kanalysis

import (
	"fmt"
	"runtime"
	"testing"

	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/hll"
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

// BenchmarkSketchUnits calibrates cardinalityItems: ns per k-mer window of
// the segment scan as Run does it (minimizer runs, records, and the
// HyperLogLog adds), of the HyperLogLog's share of it alone (canonicalise,
// hash, add), of the former sketch scan that was charged one item per
// window (the same plus a Misra–Gries offer into a per-rank summary; the
// rank-order fold, never charged, is left out), and of the offer alone.
// The input is human-like, of the human workload's size, dealt to its 32
// ranks: each rank's stream is longer than θ, so offers pay decrement
// steps as they did there. cardinalityItems is cardinality over sketch.
func BenchmarkSketchUnits(b *testing.B) {
	const k, ranks = 31, 32
	rng := xrt.NewPrng(8)
	recs, _ := genome.SimulatePairs(rng, genome.HumanLike(rng, 100000), genome.SimOptions{
		Coverage: 25,
		Lib:      genome.Library{Name: "b", ReadLen: 100, InsertMean: 300, InsertSD: 20},
		Err:      genome.DefaultErrorModel(),
	})
	reads := splitReads(recs, ranks)
	m := kmer.ClampMinimizerLen(k, 0)
	hh := newHeavySet(nil, k, m)
	card := hll.New(14)
	summary := mg.NewSeeded[kmer.Kmer](32000, hashSeed)
	var windows int
	var hashes []uint64
	var kms []kmer.Kmer
	for _, rec := range recs {
		kmer.ForEachCanonical(rec.Seq, k, func(_ int, canon kmer.Kmer, _ bool) {
			hashes = append(hashes, canon.Hash(hashSeed))
			kms = append(kms, canon)
			windows++
		})
	}
	perRank := func(fn func(part []fastq.Record)) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, part := range reads {
					card.Reset()
					summary.Reset()
					summary.Expect(len(part) * (100 - k + 1))
					fn(part)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows), "ns/window")
		}
	}
	var buf []byte
	var seg segments
	b.Run("segment", perRank(func(part []fastq.Record) {
		for _, rec := range part {
			forEachSuperKmer(rec, 0, k, m, hh, nil, card, func(_ uint64, record []byte, nwin int) {
				seg.add(0, nwin, record)
			}, &buf)
		}
		seg = seg[:0]
	}))
	b.Run("cardinality", perRank(func(part []fastq.Record) {
		for _, rec := range part {
			kmer.ForEachCanonical(rec.Seq, k, func(_ int, canon kmer.Kmer, _ bool) { card.Add(canon.Hash(hashSeed)) })
		}
	}))
	b.Run("sketch", perRank(func(part []fastq.Record) {
		for _, rec := range part {
			kmer.ForEachCanonical(rec.Seq, k, func(_ int, canon kmer.Kmer, _ bool) {
				h := canon.Hash(hashSeed)
				card.Add(h)
				summary.OfferHashed(h, canon)
			})
		}
	}))
	b.Run("offer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < ranks; r++ {
				summary.Reset()
				summary.Expect(windows / ranks)
				for j := r * windows / ranks; j < (r+1)*windows/ranks; j++ {
					summary.OfferHashed(hashes[j], kms[j])
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*windows), "ns/window")
	})
}

// BenchmarkStage1 is a whole Run — sketch, Bloom screen, count, finalize —
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
