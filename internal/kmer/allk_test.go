package kmer

import (
	"bytes"
	"math/rand"
	"testing"
)

// Exhaustive sweeps over every supported k. The sibling tests in
// kmer_test.go sample k at random; these pin the properties at each k in
// 1..MaxK, including the word-boundary lengths 31, 32, 33 and 63, 64 where
// the two-word representation changes shape.

// seqsForK yields a deterministic mix of adversarial and random sequences
// of length k: homopolymers (A is the all-zero encoding, T the all-ones),
// an alternating pattern, a palindromic-leaning CG run, and random draws.
func seqsForK(rng *rand.Rand, k int) [][]byte {
	fixed := []byte{'A', 'T', 'C', 'G'}
	var out [][]byte
	for _, b := range fixed {
		s := make([]byte, k)
		for i := range s {
			s[i] = b
		}
		out = append(out, s)
	}
	alt := make([]byte, k)
	for i := range alt {
		alt[i] = "AT"[i&1]
	}
	out = append(out, alt)
	cg := make([]byte, k)
	for i := range cg {
		cg[i] = "CG"[i&1]
	}
	out = append(out, cg)
	for trial := 0; trial < 8; trial++ {
		out = append(out, randSeq(rng, k))
	}
	return out
}

// TestPackRoundTripAllK asserts Pack followed by String is the identity for
// every supported k, and that packing preserves the zero-padding invariant.
func TestPackRoundTripAllK(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 1; k <= MaxK; k++ {
		for _, s := range seqsForK(rng, k) {
			km, ok := Pack(s, k)
			if !ok {
				t.Fatalf("k=%d: pack failed for %q", k, s)
			}
			if got := km.String(k); got != string(s) {
				t.Fatalf("k=%d: round trip %q -> %q", k, s, got)
			}
			if km.mask(k) != km {
				t.Fatalf("k=%d: padding bits set after Pack(%q): %x", k, s, km.W)
			}
		}
	}
}

// TestRevCompInvolutionAllK asserts RevComp is its own inverse and agrees
// with the byte-wise reference implementation at every supported k.
func TestRevCompInvolutionAllK(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for k := 1; k <= MaxK; k++ {
		for _, s := range seqsForK(rng, k) {
			km, _ := Pack(s, k)
			rc := km.RevComp(k)
			if want := revCompNaive(string(s)); rc.String(k) != want {
				t.Fatalf("k=%d: revcomp(%q) = %q, want %q", k, s, rc.String(k), want)
			}
			if rc.mask(k) != rc {
				t.Fatalf("k=%d: revcomp broke the padding invariant on %q", k, s)
			}
			if back := rc.RevComp(k); back != km {
				t.Fatalf("k=%d: revcomp not an involution on %q", k, s)
			}
		}
	}
}

// TestCanonicalStrandInvarianceAllK asserts that at every supported k a
// k-mer and its reverse complement canonicalize to the same representative,
// the representative is the lexicographic minimum of the two strands, and
// the flipped flag is consistent with which strand was chosen.
func TestCanonicalStrandInvarianceAllK(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for k := 1; k <= MaxK; k++ {
		for _, s := range seqsForK(rng, k) {
			km, _ := Pack(s, k)
			rc := km.RevComp(k)
			c1, f1 := km.Canonical(k)
			c2, f2 := rc.Canonical(k)
			if c1 != c2 {
				t.Fatalf("k=%d: canonical(%q) != canonical(rc): %q vs %q",
					k, s, c1.String(k), c2.String(k))
			}
			min := string(s)
			if r := revCompNaive(string(s)); r < min {
				min = r
			}
			if c1.String(k) != min {
				t.Fatalf("k=%d: canonical(%q) = %q, want lexicographic min %q",
					k, s, c1.String(k), min)
			}
			if f1 && c1 != rc {
				t.Fatalf("k=%d: flipped=true but canonical is not the reverse complement", k)
			}
			if !f1 && c1 != km {
				t.Fatalf("k=%d: flipped=false but canonical is not the forward strand", k)
			}
			// a palindrome (km == rc) reports flipped=false from both strands;
			// otherwise exactly one strand reports flipped
			if km == rc {
				if f1 || f2 {
					t.Fatalf("k=%d: palindrome %q reported flipped", k, s)
				}
			} else if f1 == f2 {
				t.Fatalf("k=%d: both strands of %q report flipped=%v", k, s, f1)
			}
		}
	}
}

// TestStrandsRollAllK: a Strands pushed base by base holds, at every step
// and every k, the window NextRight reaches and the canonical form
// Kmer.Canonical gives it.
func TestStrandsRollAllK(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for k := 1; k <= MaxK; k++ {
		for _, s := range seqsForK(rng, k) {
			km, _ := Pack(s, k)
			st := NewStrands(km, km.RevComp(k), k)
			for _, b := range randSeq(rng, 2*k+3) {
				c, _ := BaseCode(b)
				km = km.NextRight(k, c)
				st.Push(c)
				want, wantFlipped := km.Canonical(k)
				got, flipped := st.Canonical()
				if st.Fw() != km || got != want || flipped != wantFlipped {
					t.Fatalf("k=%d: rolled to %s (canonical %s, %v), want %s (%s, %v)", k,
						st.Fw().String(k), got.String(k), flipped, km.String(k), want.String(k), wantFlipped)
				}
			}
		}
	}
}

// TestMinimizerAllK: at every k and every minimizer length m ≤ k the
// packed-word Minimizer equals the per-base roll of both strands' m-mers,
// on the adversarial and random windows of seqsForK.
func TestMinimizerAllK(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for k := 1; k <= MaxK; k++ {
		for _, seq := range seqsForK(rng, k) {
			km, _ := Pack(seq, k)
			for m := 1; m <= min(k, MaxMinimizerLen); m++ {
				if got, want := km.Minimizer(k, m), minimizerRoll(km, k, m); got != want {
					t.Fatalf("k=%d m=%d %s: Minimizer %x, the per-base roll %x", k, m, seq, got, want)
				}
			}
		}
	}
}

// TestScanSuperKmersAllK: at every k, at the minimizer length
// ClampMinimizerLen gives, every window of a run ScanSuperKmers reports
// has the run's minimizer, every window ForEach visits is in exactly one
// run, in order, and adjacent runs differ in minimizer — on reads with Ns,
// lower case and low-complexity stretches, where m-mer ties are common.
func TestScanSuperKmersAllK(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for k := 1; k <= MaxK; k++ {
		m := ClampMinimizerLen(k, 0)
		reads := append(readsForScan(rng, k), bytes.Repeat([]byte("ACGTTA"), 30),
			append(bytes.Repeat([]byte("A"), 70), randSeq(rng, 60)...), bytes.Repeat([]byte("CG"), 90))
		for _, seq := range reads {
			var want []int
			ForEach(seq, k, func(pos int, _ Kmer) { want = append(want, pos) })
			i, lastEnd, lastMin := 0, -1, uint64(0)
			ScanSuperKmers(seq, k, m, func(start, nwin int, minv uint64) {
				if start == lastEnd && minv == lastMin {
					t.Fatalf("k=%d %q: adjacent runs at %d share minimizer %x", k, seq, start, minv)
				}
				for w := start; w < start+nwin; w++ {
					if i >= len(want) || want[i] != w {
						t.Fatalf("k=%d %q: run window %d is not ForEach's window %d", k, seq, w, i)
					}
					i++
					km, _ := Pack(seq[w:], k)
					if got := minimizerRoll(km, k, m); got != minv {
						t.Fatalf("k=%d %q: window %d has minimizer %x, its run %x", k, seq, w, got, minv)
					}
				}
				lastEnd, lastMin = start+nwin, minv
			})
			if i != len(want) {
				t.Fatalf("k=%d %q: the runs cover %d windows, ForEach visits %d", k, seq, i, len(want))
			}
		}
	}
}

// readsForScan yields reads that exercise every branch of the rolling
// scanner at window length k: an N inside, at either end, and doubled;
// lower-case stretches; a read shorter than k; one of exactly k bases.
func readsForScan(rng *rand.Rand, k int) [][]byte {
	var out [][]byte
	for _, n := range []int{k - 1, k, k + 1, 2*k + 7, 150} {
		if n < 1 {
			continue
		}
		s := randSeq(rng, n)
		out = append(out, s)
		withN := append([]byte(nil), s...)
		withN[rng.Intn(n)] = 'N'
		withN[n-1] = 'N'
		out = append(out, withN)
		lower := append([]byte(nil), s...)
		for i := rng.Intn(n); i < n && i < n/2+3; i++ {
			lower[i] |= 0x20
		}
		lower[0] = 'n'
		out = append(out, lower)
	}
	return out
}

// TestForEachCanonicalAllK: at every k the rolling scanner's forward
// strand equals Pack of the window, and ForEachCanonical delivers exactly
// ForEach followed by Canonical — same windows, same order, same flag.
func TestForEachCanonicalAllK(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for k := 1; k <= MaxK; k++ {
		for _, seq := range readsForScan(rng, k) {
			type win struct {
				pos     int
				canon   Kmer
				flipped bool
			}
			var want []win
			for pos := 0; pos+k <= len(seq); pos++ {
				if km, ok := Pack(seq[pos:], k); ok {
					c, f := km.Canonical(k)
					want = append(want, win{pos, c, f})
				}
			}
			i := 0
			ForEach(seq, k, func(pos int, km Kmer) {
				c, f := km.Canonical(k)
				if i >= len(want) || want[i] != (win{pos, c, f}) {
					t.Fatalf("k=%d %q: ForEach window %d at %d is not Pack's", k, seq, i, pos)
				}
				i++
			})
			if i != len(want) {
				t.Fatalf("k=%d %q: ForEach visited %d windows, want %d", k, seq, i, len(want))
			}
			i = 0
			ForEachCanonical(seq, k, func(pos int, canon Kmer, flipped bool) {
				if i >= len(want) || want[i] != (win{pos, canon, flipped}) {
					t.Fatalf("k=%d %q: ForEachCanonical window %d at %d = (%s,%v), want (%s,%v)",
						k, seq, i, pos, canon.String(k), flipped, want[i].canon.String(k), want[i].flipped)
				}
				i++
			})
			if i != len(want) {
				t.Fatalf("k=%d %q: ForEachCanonical visited %d windows, want %d", k, seq, i, len(want))
			}
		}
	}
}

// TestDecodeCanonicalAllK: at every k the cursor's canonical window equals
// its window as read followed by Canonical with the evidence swapped and
// complemented on a flip, over payloads of several records encoded from
// reads with Ns and lower case; and the windows as read are DecodeSuperKmers'.
func TestDecodeCanonicalAllK(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for k := 1; k <= MaxK; k++ {
		m := ClampMinimizerLen(k, 0)
		var payload []byte
		for _, seq := range readsForScan(rng, k) {
			qual := randQual(rng, len(seq))
			ScanSuperKmers(seq, k, m, func(start, nwin int, _ uint64) {
				var ok bool
				if payload, ok = AppendSuperKmer(payload, seq, qual, start, nwin+k-1, 19); !ok {
					t.Fatalf("k=%d: run at %d of %q did not encode", k, start, seq)
				}
			})
		}
		type win struct {
			km          Kmer
			left, right uint8
		}
		var want []win
		n, err := DecodeSuperKmers(payload, k, func(km Kmer, left, right uint8) {
			want = append(want, win{km, left, right})
		})
		if err != nil || n != len(want) {
			t.Fatalf("k=%d: DecodeSuperKmers: %d windows, err %v", k, n, err)
		}
		i := 0
		var c SuperKmerCursor
		c.Reset(payload, k)
		for c.NextRecord() {
			for c.Next() {
				if i >= len(want) {
					t.Fatalf("k=%d: the cursor walks past DecodeSuperKmers' %d windows", k, len(want))
				}
				km, left, right := c.Window()
				if (win{km, left, right}) != want[i] {
					t.Fatalf("k=%d: window %d as read = (%s,%d,%d), want (%s,%d,%d)", k, i,
						km.String(k), left, right, want[i].km.String(k), want[i].left, want[i].right)
				}
				canon, flipped := km.Canonical(k)
				if flipped {
					left, right = ComplementExt(right), ComplementExt(left)
				}
				gc, gl, gr := c.Canonical()
				if (win{gc, gl, gr}) != (win{canon, left, right}) {
					t.Fatalf("k=%d: canonical window %d = (%s,%d,%d), want (%s,%d,%d)", k, i,
						gc.String(k), gl, gr, canon.String(k), left, right)
				}
				i++
			}
		}
		if c.Err() != nil || i != len(want) {
			t.Fatalf("k=%d: the cursor walked %d windows, want %d, err %v", k, i, len(want), c.Err())
		}
	}
}

func BenchmarkForEachCanonical(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	seq := randSeq(rng, 10000)
	b.SetBytes(int64(len(seq)))
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		ForEachCanonical(seq, 31, func(_ int, canon Kmer, _ bool) { sink += canon.W[0] })
	}
	_ = sink
}

// BenchmarkDecodeCanonical walks a payload of read records with the cursor,
// canonical form and evidence per window, as the owner's count does.
func BenchmarkDecodeCanonical(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	const k = 31
	m := ClampMinimizerLen(k, 0)
	var payload []byte
	windows := 0
	for read := 0; read < 100; read++ {
		seq := randSeqN(rng, 101, false)
		qual := randQual(rng, len(seq))
		ScanSuperKmers(seq, k, m, func(start, nwin int, _ uint64) {
			payload, _ = AppendSuperKmer(payload, seq, qual, start, nwin+k-1, 19)
			windows += nwin
		})
	}
	b.SetBytes(int64(windows)) // "bytes" are k-mer windows: MB/s reads as Mkmers/s
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		var c SuperKmerCursor
		c.Reset(payload, k)
		for c.NextRecord() {
			for c.Next() {
				canon, l, r := c.Canonical()
				sink += canon.W[0] + uint64(l+r)
			}
		}
		if err := c.Err(); err != nil {
			b.Fatal(err)
		}
	}
	_ = sink
}
