package kmer

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
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
		wins := 0
		var records [][2]int // each opened record's windows and weight
		var c SuperKmerCursor
		c.Reset(payload, k)
		for c.NextRecord() {
			records = append(records, [2]int{c.Windows(), c.Weight()})
			for c.Next() {
				_, left, right := c.Window()
				_, cl, cr := c.Canonical()
				if left > ExtAbsent || right > ExtAbsent || cl > ExtAbsent || cr > ExtAbsent {
					t.Fatalf("extension code out of range: %d/%d, canonical %d/%d", left, right, cl, cr)
				}
				wins++
			}
		}
		err := c.Err()
		if err == nil && len(payload) > 0 && wins == 0 {
			t.Fatal("non-empty payload decoded to zero windows without error")
		}
		if n, derr := DecodeSuperKmers(payload, k, func(Kmer, uint8, uint8) {}); n != wins || (derr == nil) != (err == nil) {
			t.Fatalf("DecodeSuperKmers: %d windows, err %v; the cursor %d, err %v", n, derr, wins, err)
		}
		// A payload that decodes walks record by record into the same
		// windows.
		for i, rest := 0, payload; err == nil && len(rest) > 0; i++ {
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
			if records[i] != [2]int{w, SuperKmerWeight(rest[:n])} {
				t.Fatalf("record %d: the cursor opened %d windows of weight %d, the record has %d of %d",
					i, records[i][0], records[i][1], w, SuperKmerWeight(rest[:n]))
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

// appendSuperKmerRef is AppendSuperKmer as it was before it packed four
// bases per step and built the quality mask a byte at a time — one bit
// per position into a 64-bit word, one base per step — kept as the oracle
// of the record bytes.
func appendSuperKmerRef(dst []byte, seq, qual []byte, start, L, qualThresh int) (out []byte, ok bool) {
	if L < 1 || L > MaxSuperKmerBases || start < 0 || start+L > len(seq) {
		return dst, false
	}
	flags := byte(0)
	if p := start - 1; p >= 0 {
		if c := baseCodes[seq[p]]; c < 4 {
			flags |= skFlagLead | c<<2
		}
	}
	if p := start + L; p < len(seq) {
		if c := baseCodes[seq[p]]; c < 4 {
			flags |= skFlagTrail | c<<4
		}
	}
	base := len(dst)
	dst = append(dst, byte(L), byte(L>>8), flags)
	var w uint64
	for j := 0; j < L+2; j++ {
		if p := start - 1 + j; p >= 0 && (qual == nil || p < len(qual) && int(qual[p])-33 >= qualThresh) {
			w |= 1 << uint(j&63)
		}
		if j&63 == 63 {
			dst = binary.LittleEndian.AppendUint64(dst, w)
			w = 0
		}
	}
	for rem := (L+2+7)/8 - (L+2)/64*8; rem > 0; rem-- {
		dst = append(dst, byte(w))
		w >>= 8
	}
	var cur byte
	for j := 0; j < L; j++ {
		c := baseCodes[seq[start+j]]
		if c > 3 {
			return dst[:base], false
		}
		cur |= c << uint(6-2*(j&3))
		if j&3 == 3 {
			dst = append(dst, cur)
			cur = 0
		}
	}
	if L&3 != 0 {
		dst = append(dst, cur)
	}
	return dst, true
}

// checkEncoderMatchesRef encodes seq[start:start+L] at weight w after a
// one-byte prefix with AppendWeightedSuperKmer and with the reference
// encoder, and fails unless both accept or refuse it and write the same
// bytes.
func checkEncoderMatchesRef(t *testing.T, seq, qual []byte, start, L, thresh, w int) {
	t.Helper()
	got, ok := AppendWeightedSuperKmer([]byte{0xa5}, seq, qual, start, L, thresh, w)
	want, wantOK := appendSuperKmerRef([]byte{0xa5}, seq, qual, start, L, thresh)
	if wantOK && w > 0 {
		want[1+2] |= skFlagWeighted
		want = append(want, byte(w))
	}
	if ok != wantOK || !bytes.Equal(got, want) {
		t.Fatalf("seq %q qual %q start %d L %d thresh %d weight %d:\n got  %v %x\n want %v %x",
			seq, qual, start, L, thresh, w, ok, got, wantOK, want)
	}
}

// fuzzRead turns fuzz bytes into a read of ACGT in both cases with Ns and
// a quality string that is nil, the raw bytes (too short, or too long), or
// exactly as long as the read.
func fuzzRead(raw, rawQual []byte, mode uint8) (seq, qual []byte) {
	const alphabet = "ACGTACGTACGTacgtNn"
	seq = make([]byte, len(raw))
	for i, b := range raw {
		seq[i] = alphabet[int(b)%len(alphabet)]
	}
	switch mode % 3 {
	case 1:
		qual = rawQual
	case 2:
		qual = make([]byte, len(seq))
		for i := range qual {
			if len(rawQual) > 0 {
				qual[i] = rawQual[i%len(rawQual)]
			}
		}
	}
	return seq, qual
}

// FuzzAppendSuperKmer: the encoder writes the reference encoder's bytes
// for any read, quality string, run (at the read's start and end, out of
// range too), threshold and weight 0–255.
func FuzzAppendSuperKmer(f *testing.F) {
	f.Add([]byte("ACGTACGTTTGACCAGTNACGTAGGCATTACGATCGATCGGGATCCATTAG"), []byte("I5#+I?(0I@"), uint16(0), uint16(40), int16(19), uint8(0), uint8(2))
	f.Add([]byte("acgtACGTTTGACCAGTTACGTAGGCATTACGATCGATCGGGATCCATTAG"), []byte("II"), uint16(3), uint16(48), int16(19), uint8(7), uint8(1))
	f.Add(bytes.Repeat([]byte("GATTACA"), 40), []byte{}, uint16(200), uint16(80), int16(-40), uint8(255), uint8(0))
	f.Add(bytes.Repeat([]byte("TTAGC"), 30), bytes.Repeat([]byte{255, 0, 52, 51}, 10), uint16(10), uint16(140), int16(250), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, raw, rawQual []byte, start, L uint16, thresh int16, w, mode uint8) {
		seq, qual := fuzzRead(raw, rawQual, mode)
		s, n := int(start)%(len(seq)+2), int(L)%(len(seq)+3)
		if mode&4 != 0 { // a run that ends the read
			s = max(len(seq)-n, 0)
		}
		checkEncoderMatchesRef(t, seq, qual, s, n, int(thresh), int(w))
	})
}

// TestAppendSuperKmerMatchesReference is FuzzAppendSuperKmer over a fixed
// draw of reads, runs, thresholds and weights.
func TestAppendSuperKmerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		raw, rawQual := make([]byte, 1+rng.Intn(300)), make([]byte, rng.Intn(320))
		rng.Read(raw)
		for i := range rawQual {
			rawQual[i] = byte(30 + rng.Intn(45))
		}
		if trial%50 == 0 {
			rng.Read(rawQual)
		}
		seq, qual := fuzzRead(raw, rawQual, uint8(trial))
		if trial%2 == 0 { // mostly ACGT, so that most runs encode
			seq = randSeqN(rng, len(seq), trial%8 == 0)
		}
		L := 1 + rng.Intn(len(seq))
		start := rng.Intn(len(seq) - L + 1)
		switch trial % 5 {
		case 0:
			start = 0
		case 1:
			start = len(seq) - L
		}
		thresh := []int{19, 0, -33, -34, 222, 223, 40, 1000}[trial%8]
		checkEncoderMatchesRef(t, seq, qual, start, L, thresh, rng.Intn(MaxSuperKmerWeight+1)*(trial%2))
	}
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

// TestSuperKmerMinimizer: at every k, at the minimizer length
// ClampMinimizerLen gives, the minimizer the cursor reads off a record's
// first window — the owner's bin rule — is Kmer.Minimizer of that window
// and the minimizer ScanSuperKmers reported for the run, whose every
// window Kmer.Minimizer puts in the same bin. Reads with Ns, lower case
// and low-complexity stretches (minimizer ties) included.
func TestSuperKmerMinimizer(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for k := 1; k <= MaxK; k++ {
		m := ClampMinimizerLen(k, 0)
		reads := readsForScan(rng, k)
		reads = append(reads, bytes.Repeat([]byte("ACGTTA"), 30), append(bytes.Repeat([]byte("A"), 70), randSeq(rng, 60)...))
		if k == 11 || k == 31 || k == 33 || k == 63 {
			for trial := 0; trial < 50; trial++ {
				reads = append(reads, randSeqN(rng, 80+rng.Intn(300), trial%2 == 0))
			}
		}
		for _, seq := range reads {
			ScanSuperKmers(seq, k, m, func(start, nwin int, minv uint64) {
				for w := start; w < start+nwin; w++ {
					km, _ := Pack(seq[w:], k)
					if got := minimizerRoll(km, k, m); got != minv {
						t.Fatalf("k=%d %q: window %d has minimizer %x, its run %x", k, seq, w, got, minv)
					}
				}
				rec, ok := AppendWeightedSuperKmer(nil, seq, nil, start, nwin+k-1, 19, start%3)
				if !ok {
					t.Fatalf("k=%d: run at %d does not encode", k, start)
				}
				var c SuperKmerCursor
				c.Reset(rec, k)
				if !c.NextRecord() {
					t.Fatalf("k=%d: record of the run at %d does not open: %v", k, start, c.Err())
				}
				first, _ := Pack(seq[start:], k)
				if got := c.Minimizer(m); got != minv || got != first.Minimizer(k, m) {
					t.Fatalf("k=%d: record of the run at %d has minimizer %x, the run %x, its first window %x",
						k, start, got, minv, first.Minimizer(k, m))
				}
			})
		}
	}
}
