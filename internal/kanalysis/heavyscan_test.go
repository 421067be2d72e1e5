package kanalysis

import (
	"bytes"
	"testing"

	"hipmer/internal/fastq"
	"hipmer/internal/genome"
	"hipmer/internal/kmer"
	"hipmer/internal/xrt"
)

// wholeReadSuperKmers is forEachSuperKmer as it was before the heavy probe
// was confined to heavy-minimizer runs — roll, hash and probe every window
// of the read, then segment and split around the hits — kept as the oracle.
func wholeReadSuperKmers(rec fastq.Record, k, m int, hh *heavySet, acc []evidence,
	emit func(mh uint64, record []byte, nwin int)) int {
	seq, qual := rec.Seq, rec.Qual
	var heavy []int
	kmer.ForEachCanonical(seq, k, func(pos int, canon kmer.Kmer, flipped bool) {
		if i := hh.find(canon); i >= 0 {
			acc[i].add(occurrenceAt(seq, qual, pos, k, canon, flipped), 1)
			heavy = append(heavy, pos)
		}
	})
	windows := 0
	kmer.ScanSuperKmers(seq, k, m, func(start, nwin int, minv uint64) {
		windows += nwin
		ship := func(from, to int) {
			if to <= from {
				return
			}
			if out, ok := kmer.AppendSuperKmer(nil, seq, qual, from, (to-from)+k-1, qualThreshold); ok {
				emit(kmer.MinimizerHash(minv), out, to-from)
			}
		}
		from := start
		for ; len(heavy) > 0 && heavy[0] < start+nwin; heavy = heavy[1:] {
			ship(from, heavy[0])
			from = heavy[0] + 1
		}
		ship(from, start+nwin)
	})
	return windows
}

type shippedRecord struct {
	mh     uint64 // kmer.MinimizerHash of the run's minimizer
	record []byte
	nwin   int
}

// checkAgainstWholeReadScan runs rec through forEachSuperKmer and the
// oracle with the canonical k-mers of the windows at heavyAt as the heavy
// set: same records in the same order, same accumulators, same window
// count.
func checkAgainstWholeReadScan(t *testing.T, rec fastq.Record, k int, heavyAt []int) {
	t.Helper()
	m := kmer.ClampMinimizerLen(k, 0)
	var keys []kmer.Kmer
	isKey := make(map[kmer.Kmer]bool)
	at := make(map[int]bool)
	for _, pos := range heavyAt {
		at[pos] = true
	}
	kmer.ForEachCanonical(rec.Seq, k, func(pos int, canon kmer.Kmer, _ bool) {
		if at[pos] && !isKey[canon] {
			isKey[canon] = true
			keys = append(keys, canon)
		}
	})
	hh := newHeavySet(keys, k, m)

	var got, want []shippedRecord
	gotAcc, wantAcc := make([]evidence, len(keys)), make([]evidence, len(keys))
	var buf []byte
	gotN := forEachSuperKmer(rec, 0, k, m, hh, gotAcc, func(mh uint64, record []byte, nwin int) {
		got = append(got, shippedRecord{mh, bytes.Clone(record), nwin})
	}, &buf)
	wantN := wholeReadSuperKmers(rec, k, m, hh, wantAcc, func(mh uint64, record []byte, nwin int) {
		want = append(want, shippedRecord{mh, record, nwin})
	})
	if gotN != wantN {
		t.Fatalf("k=%d: visited %d windows, whole-read scan %d", k, gotN, wantN)
	}
	if len(got) != len(want) {
		t.Fatalf("k=%d, %d heavy k-mers: %d records, whole-read scan ships %d", k, len(keys), len(got), len(want))
	}
	for i := range want {
		if got[i].mh != want[i].mh || got[i].nwin != want[i].nwin || !bytes.Equal(got[i].record, want[i].record) {
			t.Fatalf("k=%d: record %d is %+v, whole-read scan ships %+v", k, i, got[i], want[i])
		}
	}
	for i := range wantAcc {
		if gotAcc[i] != wantAcc[i] {
			t.Fatalf("k=%d: heavy k-mer %d accumulated %+v, whole-read scan %+v", k, i, gotAcc[i], wantAcc[i])
		}
	}
}

// scanQual is a deterministic quality string with values on both sides of
// the extension threshold.
func scanQual(seq []byte) []byte {
	q := make([]byte, len(seq))
	for i, b := range seq {
		q[i] = 33 + byte((int(b)*7+i*13)%41)
	}
	return q
}

// TestHeavyProbeInHeavyRunsOnly: probing for heavy hitters only inside runs
// whose minimizer a heavy hitter has is indistinguishable from probing
// every window — on reads with N and lower case, with the heavy windows at
// the first and last position of a run, adjacent to each other, repeated in
// the read, or absent, at one- and two-word k.
func TestHeavyProbeInHeavyRunsOnly(t *testing.T) {
	rng := xrt.NewPrng(19)
	for trial := 0; trial < 60; trial++ {
		seq := genome.Random(rng, 150+int(rng.Uint64()%200))
		if trial%3 == 0 { // a repeat, so a heavy k-mer recurs in another run
			copy(seq[len(seq)-70:], seq[5:75])
		}
		if trial%2 == 0 {
			seq[int(rng.Uint64()%uint64(len(seq)))] = 'N'
		}
		for i := 20; i < 45; i++ {
			seq[i] |= 0x20
		}
		rec := fastq.Record{Seq: seq, Qual: scanQual(seq)}
		for _, k := range []int{21, 31, 55} {
			var firsts, lasts, pairs, scattered []int
			kmer.ScanSuperKmers(seq, k, kmer.ClampMinimizerLen(k, 0), func(start, nwin int, _ uint64) {
				if rng.Uint64()%3 != 0 {
					return
				}
				firsts = append(firsts, start)
				lasts = append(lasts, start+nwin-1)
				pairs = append(pairs, start+nwin/2, start+nwin/2+1) // the second may open the next run
				scattered = append(scattered, start+int(rng.Uint64()%uint64(nwin)))
			})
			all := append(append(append(append([]int(nil), firsts...), lasts...), pairs...), scattered...)
			for _, heavyAt := range [][]int{nil, firsts, lasts, pairs, scattered, all} {
				checkAgainstWholeReadScan(t, rec, k, heavyAt)
			}
		}
	}
}

// FuzzForEachSuperKmer: any read, any choice of its windows as heavy
// hitters (window i is one when bit i mod 64 of picks is set).
func FuzzForEachSuperKmer(f *testing.F) {
	rng := xrt.NewPrng(23)
	seed := genome.Random(rng, 180)
	f.Add(seed, uint8(0), uint64(0))
	f.Add(seed, uint8(1), uint64(1)<<17|1<<18|1<<40)
	withN := bytes.ToLower(seed)
	withN[90] = 'N'
	f.Add(withN, uint8(2), ^uint64(0))
	f.Add(bytes.Repeat([]byte("ACGTTGCA"), 30), uint8(0), uint64(0x8000000000000001))
	f.Fuzz(func(t *testing.T, seq []byte, kSel uint8, picks uint64) {
		if len(seq) > 4096 {
			return
		}
		var heavyAt []int
		for i := range seq {
			if picks>>(i&63)&1 != 0 {
				heavyAt = append(heavyAt, i)
			}
		}
		checkAgainstWholeReadScan(t, fastq.Record{Seq: seq, Qual: scanQual(seq)}, []int{21, 31, 55}[kSel%3], heavyAt)
	})
}
