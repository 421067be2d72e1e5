package kmer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// expectedExt is the read-level extension evidence DecodeSuperKmers must
// reproduce: the flanking base when present, ACGT, and above threshold.
func expectedExt(seq, qual []byte, p, thresh int) uint8 {
	if p < 0 || p >= len(seq) {
		return ExtAbsent
	}
	if int(qual[p])-33 < thresh {
		return ExtAbsent
	}
	c, ok := BaseCode(seq[p])
	if !ok {
		return ExtAbsent
	}
	return uint8(c)
}

func randQual(rng *rand.Rand, n int) []byte {
	q := make([]byte, n)
	for i := range q {
		q[i] = byte(33 + rng.Intn(40))
	}
	return q
}

// TestSuperKmerRoundTrip encodes every super-k-mer run of random reads
// and checks the decoder reproduces, window by window, exactly the
// k-mers and extension evidence computed directly from the read.
func TestSuperKmerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const thresh = 19
	for _, k := range []int{11, 31, 63} {
		m := ClampMinimizerLen(k, 0)
		for trial := 0; trial < 100; trial++ {
			seq := randSeqN(rng, 50+rng.Intn(150), trial%3 == 0)
			qual := randQual(rng, len(seq))

			ScanSuperKmers(seq, k, m, func(start, nwin int, _ uint64) {
				L := nwin + k - 1
				rec, ok := AppendSuperKmer(nil, seq, qual, start, L, thresh)
				if !ok {
					t.Fatalf("AppendSuperKmer failed on a run ScanSuperKmers emitted (start %d L %d)", start, L)
				}
				if got, want := len(rec), SuperKmerRecordBytes(L); got != want {
					t.Fatalf("record size %d, SuperKmerRecordBytes says %d", got, want)
				}
				i := 0
				wins, err := DecodeSuperKmers(rec, k, func(km Kmer, left, right uint8) {
					p := start + i
					want, _ := Pack(seq[p:p+k], k)
					if km != want {
						t.Fatalf("window %d: decoded %s, want %s", p, km.String(k), want.String(k))
					}
					if el := expectedExt(seq, qual, p-1, thresh); left != el {
						t.Fatalf("window %d: left ext %d, want %d", p, left, el)
					}
					if er := expectedExt(seq, qual, p+k, thresh); right != er {
						t.Fatalf("window %d: right ext %d, want %d", p, right, er)
					}
					i++
				})
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if wins != nwin || i != nwin {
					t.Fatalf("decoded %d/%d windows, run has %d", wins, i, nwin)
				}
			})
		}
	}
}

// TestWeightedSuperKmerRoundTrip: a weighted record of a sequence with no
// quality string decodes to the windows of the unweighted one, with every
// flanking base inside the sequence as evidence, and carries its weight in
// one trailing byte; a weight above MaxSuperKmerWeight is refused.
func TestWeightedSuperKmerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	all := func(seq []byte) []byte { return bytes.Repeat([]byte("I"), len(seq)) }
	for _, k := range []int{11, 31, 63} {
		m := ClampMinimizerLen(k, 0)
		for trial := 0; trial < 50; trial++ {
			seq := randSeqN(rng, 50+rng.Intn(150), false)
			w := 1 + rng.Intn(MaxSuperKmerWeight)
			ScanSuperKmers(seq, k, m, func(start, nwin int, _ uint64) {
				L := nwin + k - 1
				rec, ok := AppendWeightedSuperKmer(nil, seq, nil, start, L, 19, w)
				if !ok {
					t.Fatalf("weight %d: encode failed", w)
				}
				if got, want := SuperKmerRecordLen(rec), SuperKmerRecordBytes(L)+1; got != want || len(rec) != want {
					t.Fatalf("weighted record of %d bases: %d bytes, SuperKmerRecordLen %d, want %d", L, len(rec), got, want)
				}
				if got := SuperKmerWeight(rec); got != w {
					t.Fatalf("weight %d read back as %d", w, got)
				}
				i := 0
				wins, err := DecodeSuperKmers(rec, k, func(km Kmer, left, right uint8) {
					p := start + i
					want, _ := Pack(seq[p:p+k], k)
					el, er := expectedExt(seq, all(seq), p-1, 19), expectedExt(seq, all(seq), p+k, 19)
					if km != want || left != el || right != er {
						t.Fatalf("window %d: %s %d/%d, want %s %d/%d", p, km.String(k), left, right, want.String(k), el, er)
					}
					i++
				})
				if err != nil || wins != nwin {
					t.Fatalf("decoded %d of %d windows: %v", wins, nwin, err)
				}
			})
		}
	}
	seq := randSeqN(rng, 40, false)
	unweighted, _ := AppendSuperKmer(nil, seq, nil, 0, 40, 19)
	if rec, ok := AppendWeightedSuperKmer(nil, seq, nil, 0, 40, 19, 0); !ok || !bytes.Equal(rec, unweighted) || SuperKmerWeight(rec) != 0 {
		t.Errorf("weight 0 is not the unweighted record")
	}
	dst := []byte{7}
	if out, ok := AppendWeightedSuperKmer(dst, seq, nil, 0, 40, 19, MaxSuperKmerWeight+1); ok || !bytes.Equal(out, dst) {
		t.Errorf("weight %d encoded (ok %v, %d bytes)", MaxSuperKmerWeight+1, ok, len(out))
	}
}

// TestUnweightedSuperKmerBytes pins the bytes of read records, lead and
// trail evidence and quality masks included, to what the codec wrote
// before records could carry a weight.
func TestUnweightedSuperKmerBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	h := sha256.New()
	for _, k := range []int{11, 31, 63} {
		m := ClampMinimizerLen(k, 0)
		for trial := 0; trial < 40; trial++ {
			seq := randSeqN(rng, 50+rng.Intn(150), trial%3 == 0)
			qual := randQual(rng, len(seq))
			ScanSuperKmers(seq, k, m, func(start, nwin int, _ uint64) {
				rec, _ := AppendSuperKmer(nil, seq, qual, start, nwin+k-1, 19)
				h.Write(rec)
			})
		}
	}
	const want = "b74f03493cd11d7dd7a52a745b7a3e54bdc090e780942c3b6b081db761963403"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("read records digest %s, want %s", got, want)
	}
}

// TestSuperKmerConcatenatedRecords: a payload is a frame sequence of
// unweighted and weighted records; the decoder walks all of them, and
// SuperKmerRecordLen steps from one record to the next.
func TestSuperKmerConcatenatedRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k, thresh = 31, 19
	m := ClampMinimizerLen(k, 0)
	seq := randSeqN(rng, 300, false)
	qual := randQual(rng, len(seq))

	var payload []byte
	var sizes, weights []int
	total := 0
	ScanSuperKmers(seq, k, m, func(start, nwin int, _ uint64) {
		var ok bool
		before := len(payload)
		w := len(sizes) % 3 * 40 // 0 (unweighted), 40, 80
		payload, ok = AppendWeightedSuperKmer(payload, seq, qual, start, nwin+k-1, thresh, w)
		if !ok {
			t.Fatal("encode failed")
		}
		sizes = append(sizes, len(payload)-before)
		weights = append(weights, w)
		total += nwin
	})
	if len(sizes) < 3 {
		t.Fatalf("%d records do not mix weighted and unweighted ones", len(sizes))
	}
	wins, err := DecodeSuperKmers(payload, k, func(Kmer, uint8, uint8) {})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if wins != total {
		t.Fatalf("decoded %d windows, want %d", wins, total)
	}
	rest := payload
	for i, want := range sizes {
		if got := SuperKmerRecordLen(rest); got != want {
			t.Fatalf("record %d: SuperKmerRecordLen %d, appended %d bytes", i, got, want)
		}
		if got := SuperKmerWeight(rest[:want]); got != weights[i] {
			t.Fatalf("record %d: weight %d, appended %d", i, got, weights[i])
		}
		rest = rest[want:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last record", len(rest))
	}
	if n := SuperKmerRecordLen(payload[:sizes[0]-1]); n != 0 {
		t.Fatalf("a truncated record has length %d, want 0", n)
	}
	if n := SuperKmerRecordLen(payload[:2]); n != 0 {
		t.Fatalf("a truncated header has length %d, want 0", n)
	}
}

func TestDecodeSuperKmersRejectsMalformed(t *testing.T) {
	const k = 31
	seq := bytes.Repeat([]byte("ACGT"), 20)
	qual := bytes.Repeat([]byte("I"), len(seq))
	rec, ok := AppendSuperKmer(nil, seq, qual, 0, 40, 19)
	if !ok {
		t.Fatal("encode failed")
	}
	weighted, _ := AppendWeightedSuperKmer(nil, seq, qual, 0, 40, 19, 9)
	zero := bytes.Clone(weighted)
	zero[len(zero)-1] = 0
	bad := [][]byte{
		rec[:len(rec)-1],               // truncated bases
		rec[:1],                        // truncated header
		append(rec[:0:0], 0, 0),        // L = 0 < k
		append(bytes.Clone(rec), 0xff), // trailing garbage
		weighted[:len(weighted)-1],     // truncated weight trailer
		zero,                           // weight 0
	}
	for i, p := range bad {
		if _, err := DecodeSuperKmers(p, k, func(Kmer, uint8, uint8) {}); err == nil {
			t.Errorf("case %d: malformed payload decoded without error", i)
		}
	}
	// A record with L < k embedded in an otherwise plausible frame.
	short, ok := AppendSuperKmer(nil, seq, qual, 0, k-1, 19)
	if !ok {
		t.Fatal("encode failed")
	}
	if _, err := DecodeSuperKmers(short, k, func(Kmer, uint8, uint8) {}); err == nil {
		t.Error("record shorter than k decoded without error")
	}
}

func FuzzSuperKmerDecode(f *testing.F) {
	seq := bytes.Repeat([]byte("ACGTTGCA"), 12)
	qual := bytes.Repeat([]byte("I"), len(seq))
	seed, _ := AppendSuperKmer(nil, seq, qual, 0, 40, 19)
	f.Add(seed, 31)
	seed2, _ := AppendSuperKmer(nil, seq, qual, 3, 21, 19)
	f.Add(append(bytes.Clone(seed2), seed2...), 21)
	weighted, _ := AppendWeightedSuperKmer(nil, seq, nil, 2, 35, 19, 200)
	f.Add(append(bytes.Clone(seed2), weighted...), 21)
	f.Add(weighted[:len(weighted)-1], 31) // truncated weight trailer
	f.Add([]byte{}, 31)
	f.Add([]byte{0xff, 0xff, 0x00}, 11)
	f.Fuzz(func(t *testing.T, payload []byte, k int) {
		if k < 1 || k > MaxK {
			return
		}
		wins, err := DecodeSuperKmers(payload, k, func(km Kmer, left, right uint8) {
			if left > ExtAbsent || right > ExtAbsent {
				t.Fatalf("extension code out of range: %d/%d", left, right)
			}
		})
		if err == nil && len(payload) > 0 && wins == 0 {
			t.Fatal("non-empty payload decoded to zero windows without error")
		}
		// A payload that decodes walks record by record into the same
		// windows.
		for rest := payload; err == nil && len(rest) > 0; {
			n := SuperKmerRecordLen(rest)
			if n == 0 {
				t.Fatal("a decodable payload does not walk record by record")
			}
			w, rerr := DecodeSuperKmers(rest[:n], k, func(Kmer, uint8, uint8) {})
			if rerr != nil {
				t.Fatalf("record of a decodable payload: %v", rerr)
			}
			if weighted := rest[2]&skFlagWeighted != 0; weighted != (SuperKmerWeight(rest[:n]) > 0) {
				t.Fatalf("record flagged weighted %v has weight %d", weighted, SuperKmerWeight(rest[:n]))
			}
			wins -= w
			rest = rest[n:]
		}
		if err == nil && wins != 0 {
			t.Fatalf("the record walk is %d windows short of the decode", wins)
		}
		// err != nil is fine — the decoder must only never panic and
		// never report windows beyond what the payload frames.
	})
}

func BenchmarkSuperKmerEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	const k, thresh = 31, 19
	m := ClampMinimizerLen(k, 0)
	seq := randSeqN(rng, 101, false)
	qual := randQual(rng, len(seq))
	b.SetBytes(int64(len(seq)))
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		ScanSuperKmers(seq, k, m, func(start, nwin int, _ uint64) {
			buf, _ = AppendSuperKmer(buf, seq, qual, start, nwin+k-1, thresh)
		})
	}
}

// TestSuperKmerMinimizer: the minimizer read off an encoded record — plain
// or weighted, at k ≤ 32 and k > 32 — is the minimizer ScanSuperKmers
// reported for its run.
func TestSuperKmerMinimizer(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, k := range []int{11, 31, 33, 63} {
		m := ClampMinimizerLen(k, 0)
		for trial := 0; trial < 50; trial++ {
			seq := randSeqN(rng, 80+rng.Intn(300), trial%2 == 0)
			ScanSuperKmers(seq, k, m, func(start, nwin int, minv uint64) {
				rec, ok := AppendWeightedSuperKmer(nil, seq, nil, start, nwin+k-1, 19, trial%3)
				if !ok {
					t.Fatalf("k=%d: run at %d does not encode", k, start)
				}
				if got := SuperKmerMinimizer(rec, k, m); got != minv {
					t.Fatalf("k=%d: record of the run at %d has minimizer %x, the run %x", k, start, got, minv)
				}
			})
		}
	}
}
