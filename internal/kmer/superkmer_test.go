package kmer

import (
	"bytes"
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

// TestSuperKmerConcatenatedRecords: a payload is a frame sequence; the
// decoder walks all of them, and SuperKmerRecordLen steps from one record
// to the next.
func TestSuperKmerConcatenatedRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const k, thresh = 31, 19
	m := ClampMinimizerLen(k, 0)
	seq := randSeqN(rng, 300, false)
	qual := randQual(rng, len(seq))

	var payload []byte
	var sizes []int
	total := 0
	ScanSuperKmers(seq, k, m, func(start, nwin int, _ uint64) {
		var ok bool
		before := len(payload)
		payload, ok = AppendSuperKmer(payload, seq, qual, start, nwin+k-1, thresh)
		if !ok {
			t.Fatal("encode failed")
		}
		sizes = append(sizes, len(payload)-before)
		total += nwin
	})
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
	bad := [][]byte{
		rec[:len(rec)-1],               // truncated bases
		rec[:1],                        // truncated header
		append(rec[:0:0], 0, 0),        // L = 0 < k
		append(bytes.Clone(rec), 0xff), // trailing garbage
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
