package kmer

import (
	"math/rand"
	"testing"
)

func randSeqN(rng *rand.Rand, n int, withN bool) []byte {
	seq := make([]byte, n)
	for i := range seq {
		if withN && rng.Intn(40) == 0 {
			seq[i] = 'N'
			continue
		}
		seq[i] = "ACGT"[rng.Intn(4)]
	}
	return seq
}

func TestClampMinimizerLen(t *testing.T) {
	cases := []struct{ k, m, want int }{
		{31, 0, DefaultMinimizerLen},
		{31, 9, 9},
		{31, 8, 7},   // forced odd, downward
		{31, 40, 29}, // capped below k, odd
		{7, 0, 5},    // default capped below k
		{5, 0, 3},
		{3, 0, 1},
		{64, 64, 31}, // never above MaxMinimizerLen
		{31, 1, 1},
	}
	for _, c := range cases {
		if got := ClampMinimizerLen(c.k, c.m); got != c.want {
			t.Errorf("ClampMinimizerLen(%d, %d) = %d, want %d", c.k, c.m, got, c.want)
		}
	}
	for k := 3; k <= MaxK; k += 2 {
		for m := 0; m <= MaxK+2; m++ {
			got := ClampMinimizerLen(k, m)
			if got < 1 || got >= k || got%2 == 0 || got > MaxMinimizerLen {
				t.Fatalf("ClampMinimizerLen(%d, %d) = %d out of contract", k, m, got)
			}
		}
	}
}

// minimizerRoll is Kmer.Minimizer as a per-base roll of both strands
// m-mers, kept as the oracle of the word-sliding forms.
func minimizerRoll(km Kmer, k, m int) uint64 {
	mask := uint64(1)<<(2*uint(m)) - 1
	rcShift := 2 * uint(m-1)
	var fwd, rc uint64
	best := ^uint64(0)
	for i := 0; i < k; i++ {
		c := km.Base(i)
		fwd = (fwd<<2 | c) & mask
		rc = rc>>2 | (3-c)<<rcShift
		if i >= m-1 {
			best = min(best, fwd, rc)
		}
	}
	return best
}

// TestMinimizerRCInvariance: the canonical minimizer is a strand-invariant
// property of the k-mer window.
func TestMinimizerRCInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{21, 31, 45, 63} {
		m := ClampMinimizerLen(k, 0)
		for trial := 0; trial < 200; trial++ {
			seq := randSeqN(rng, k, false)
			km, ok := Pack(seq, k)
			if !ok {
				t.Fatal("pack failed on ACGT-only seq")
			}
			if a, b := km.Minimizer(k, m), km.RevComp(k).Minimizer(k, m); a != b {
				t.Fatalf("k=%d m=%d seq=%s: Minimizer %x != RC Minimizer %x",
					k, m, seq, a, b)
			}
		}
	}
}

// TestScanSuperKmersCoverage: every valid k-mer window of the read is
// covered by exactly one emitted super-k-mer run, runs are maximal over
// valid stretches, and each window's run minimizer equals the window's
// own Minimizer — scanning a read once agrees with evaluating every
// window independently.
func TestScanSuperKmersCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{11, 31} {
		m := ClampMinimizerLen(k, 0)
		for trial := 0; trial < 100; trial++ {
			seq := randSeqN(rng, 40+rng.Intn(200), trial%2 == 0)

			covered := map[int]uint64{}
			prevEnd := -1
			ScanSuperKmers(seq, k, m, func(start, nwin int, minv uint64) {
				if nwin < 1 {
					t.Fatalf("empty run at %d", start)
				}
				if start <= prevEnd {
					t.Fatalf("runs out of order or overlapping: start %d after end %d", start, prevEnd)
				}
				prevEnd = start + nwin - 1
				for w := start; w < start+nwin; w++ {
					if _, dup := covered[w]; dup {
						t.Fatalf("window %d covered twice", w)
					}
					covered[w] = minv
				}
			})

			want := 0
			ForEach(seq, k, func(pos int, km Kmer) {
				want++
				minv, ok := covered[pos]
				if !ok {
					t.Fatalf("k=%d window %d not covered by any super-k-mer", k, pos)
				}
				if exp := km.Minimizer(k, m); minv != exp {
					t.Fatalf("k=%d window %d: run minimizer %x, window minimizer %x",
						k, pos, minv, exp)
				}
			})
			if len(covered) != want {
				t.Fatalf("k=%d covered %d windows, ForEach found %d", k, len(covered), want)
			}
		}
	}
}

// TestScanSuperKmersRunsMaximal: adjacent runs have distinct minimizers
// (otherwise they should have been one run).
func TestScanSuperKmersRunsMaximal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k, m := 31, ClampMinimizerLen(31, 0)
	for trial := 0; trial < 100; trial++ {
		seq := randSeqN(rng, 150, false)
		lastEnd, lastMin := -2, uint64(0)
		ScanSuperKmers(seq, k, m, func(start, nwin int, minv uint64) {
			if start == lastEnd && minv == lastMin {
				t.Fatalf("adjacent runs at %d share minimizer %x", start, minv)
			}
			lastEnd, lastMin = start+nwin, minv
		})
	}
}

func BenchmarkMinimizerScan(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	seq := randSeqN(rng, 101, false)
	k, m := 31, DefaultMinimizerLen
	b.SetBytes(int64(len(seq)))
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		ScanSuperKmers(seq, k, m, func(start, nwin int, minv uint64) {
			sink += minv
		})
	}
	_ = sink
}
