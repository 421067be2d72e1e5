package seqdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"hipmer/internal/fastq"
)

func randRecords(rng *rand.Rand, n int) []fastq.Record {
	recs := make([]fastq.Record, n)
	for i := range recs {
		idLen := 1 + rng.Intn(30)
		seqLen := 1 + rng.Intn(250)
		id := make([]byte, idLen)
		for j := range id {
			id[j] = byte('a' + rng.Intn(26))
		}
		seq := make([]byte, seqLen)
		qual := make([]byte, seqLen)
		for j := range seq {
			seq[j] = "ACGTN"[rng.Intn(5)]
			qual[j] = byte(33 + rng.Intn(42))
		}
		recs[i] = fastq.Record{ID: id, Seq: seq, Qual: qual}
	}
	return recs
}

func recordsEqual(a, b []fastq.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].ID, b[i].ID) || !bytes.Equal(a[i].Seq, b[i].Seq) ||
			!bytes.Equal(a[i].Qual, b[i].Qual) {
			return false
		}
	}
	return true
}

func TestRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, BlockRecords - 1, BlockRecords, BlockRecords + 1, 3000} {
		recs := randRecords(rng, n)
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			t.Fatal(err)
		}
		f, err := Parse(buf.Bytes())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, _, err := f.ReadPart(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !recordsEqual(recs, got) {
			t.Fatalf("n=%d: roundtrip mismatch", n)
		}
	}
}

func TestNsPreserved(t *testing.T) {
	recs := []fastq.Record{{
		ID:   []byte("r1"),
		Seq:  []byte("NACGTNNACGTN"),
		Qual: []byte("IIIIIIIIIIII"),
	}}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := f.ReadPart(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0].Seq) != "NACGTNNACGTN" {
		t.Fatalf("Ns lost: %s", got[0].Seq)
	}
}

// TestPartsBalanced holds ReadPart to its split rule: every part holds
// ⌊P/parts⌋ or ⌈P/parts⌉ of the P pairs and starts on a pair, only the
// last part takes an odd trailing record, the parts concatenate to the
// file, and each part is charged the span a sequential reader consumes —
// from the head of the first block its range touches to the end of its
// last record. Files of the 1 024-read blocks Write made before blocks
// shrank read by the same rule.
func TestPartsBalanced(t *testing.T) {
	for _, per := range []int{BlockRecords, maxBlockRecords} {
		testPartsBalanced(t, per)
	}
}

func testPartsBalanced(t *testing.T, per int) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 2, per - 1, per, per + 1, 11986} {
		recs := randRecords(rng, n)
		var buf bytes.Buffer
		if err := writeBlocks(&buf, recs, per); err != nil {
			t.Fatal(err)
		}
		f, err := Parse(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		// recEnd[r] is the file offset just past record r, blockStart[b]
		// that of block b's header, both from the encoder alone.
		recEnd := make([]int64, n)
		var blockStart []int64
		off := int64(len(magic))
		for r := range recs {
			if r%per == 0 {
				blockStart = append(blockStart, off)
				var hdr bytes.Buffer
				writeUvarint(&hdr, uint64(min(per, n-r)))
				off += int64(hdr.Len())
			}
			var one bytes.Buffer
			writeRecord(&one, recs[r])
			off += int64(one.Len())
			recEnd[r] = off
		}
		pairs := n / 2
		for _, parts := range []int{1, 2, 3, 5, 12, 32, 100} {
			var all []fastq.Record
			for i := 0; i < parts; i++ {
				got, nb, err := f.ReadPart(parts, i)
				if err != nil {
					t.Fatal(err)
				}
				lo := len(all)
				all = append(all, got...)
				if lo%2 != 0 {
					t.Fatalf("per=%d n=%d parts=%d: part %d starts at record %d, inside a pair", per, n, parts, i, lo)
				}
				held := len(got)
				if i == parts-1 {
					held -= n % 2
				}
				if held%2 != 0 || held/2 < pairs/parts || held/2 > (pairs+parts-1)/parts {
					t.Fatalf("per=%d n=%d parts=%d: part %d holds %d records of %d pairs", per, n, parts, i, len(got), pairs)
				}
				var want int64
				if len(got) > 0 {
					want = recEnd[lo+len(got)-1] - blockStart[lo/per]
				}
				if nb != want {
					t.Fatalf("per=%d n=%d parts=%d: part %d charged %d bytes, sequential reader consumes %d", per, n, parts, i, nb, want)
				}
			}
			if !recordsEqual(recs, all) {
				t.Fatalf("per=%d n=%d parts=%d: parts do not concatenate to the input", per, n, parts)
			}
		}
	}
}

func TestCompressionBeatsFastq(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := randRecords(rng, 2000)
	var sdb bytes.Buffer
	if err := Write(&sdb, recs); err != nil {
		t.Fatal(err)
	}
	fq := fastq.Format(recs)
	if sdb.Len() >= len(fq) {
		t.Fatalf("seqdb (%d bytes) not smaller than FASTQ (%d bytes)", sdb.Len(), len(fq))
	}
}

func TestCorruptInputsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	recs := randRecords(rng, 10)
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Parse(data[:4]); err == nil {
		t.Fatal("accepted truncated file")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := Parse(bad); err == nil {
		t.Fatal("accepted bad magic")
	}
	// corrupt index offset
	bad2 := append([]byte(nil), data...)
	for i := len(bad2) - 8; i < len(bad2); i++ {
		bad2[i] = 0xff
	}
	if _, err := Parse(bad2); err == nil {
		t.Fatal("accepted corrupt index offset")
	}
	for name, data := range map[string][]byte{
		"block count 2^62":             container([]uint64{1 << 62}, nil),
		"block count over the largest": container([]uint64{maxBlockRecords + 1}, nil),
		"short block before the last":  container([]uint64{BlockRecords, BlockRecords - 1, 1}, nil),
		"last block over the first":    container([]uint64{BlockRecords, BlockRecords + 1}, nil),
		"empty block before the last":  container([]uint64{0, 0}, nil),
		"index count past the index":   container([]uint64{0}, []uint64{1 << 40, 8}),
		"offsets not increasing":       container([]uint64{BlockRecords, 0}, []uint64{2, 8, 8}),
		"offset inside the magic":      container([]uint64{0}, []uint64{1, 3}),
		"offset past the blocks":       container([]uint64{0}, []uint64{1, 100}),
	} {
		if _, err := Parse(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// well-formed headers over missing records: indexed, then refused on read
	f, err := Parse(container([]uint64{BlockRecords, 3}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ReadPart(1, 0); err == nil {
		t.Fatal("decoded records that are not there")
	}
}

// container assembles a file of bare block headers holding counts, with
// the matching index, or with the given index varints (block count, then
// offsets) when index is non-nil.
func container(counts, index []uint64) []byte {
	var buf bytes.Buffer
	buf.Write(magic)
	offsets := []uint64{uint64(len(counts))}
	for _, c := range counts {
		offsets = append(offsets, uint64(buf.Len()))
		writeUvarint(&buf, c)
	}
	if index == nil {
		index = offsets
	}
	indexOff := uint64(buf.Len())
	for _, v := range index {
		writeUvarint(&buf, v)
	}
	var tail [8]byte
	binary.BigEndian.PutUint64(tail[:], indexOff)
	buf.Write(tail[:])
	return buf.Bytes()
}

// FuzzReadPart holds Parse and ReadPart to never panicking on arbitrary
// bytes, and, when every part of a split decodes, to the parts
// concatenating to the whole file.
func FuzzReadPart(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	tiny := make([]fastq.Record, BlockRecords+3) // two blocks in a few kB
	for i := range tiny {
		tiny[i] = fastq.Record{ID: []byte{'a' + byte(i%26)}, Seq: []byte{"ACGTN"[i%5]}, Qual: []byte{'I'}}
	}
	for _, recs := range [][]fastq.Record{nil, randRecords(rng, 1), randRecords(rng, 7), tiny} {
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(container([]uint64{1 << 62}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := Parse(data)
		if err != nil {
			return
		}
		whole, _, wholeErr := fl.ReadPart(1, 0)
		for parts := 1; parts <= 7; parts++ {
			var all []fastq.Record
			var partErr error
			for i := 0; i < parts && partErr == nil; i++ {
				var got []fastq.Record
				got, _, partErr = fl.ReadPart(parts, i)
				all = append(all, got...)
			}
			if partErr != nil {
				continue
			}
			if wholeErr != nil {
				t.Fatalf("parts=%d decode but the whole file fails: %v", parts, wholeErr)
			}
			if !recordsEqual(whole, all) {
				t.Fatalf("parts=%d do not concatenate to the whole file", parts)
			}
		}
	})
}

func TestFileRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := randRecords(rng, 100)
	path := filepath.Join(t.TempDir(), "reads.seqdb")
	if err := WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := f.ReadPart(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(recs, got) {
		t.Fatal("file roundtrip mismatch")
	}
}

func TestRoundtripProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := randRecords(rng, int(nRaw)%50)
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			return false
		}
		f, err := Parse(buf.Bytes())
		if err != nil {
			return false
		}
		got, _, err := f.ReadPart(1, 0)
		if err != nil {
			return false
		}
		return recordsEqual(recs, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSeqDBRead(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	recs := randRecords(rng, 10000)
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Parse(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := f.ReadPart(1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFastqVsSeqDB compares parse throughput of the two containers,
// the §3.3 comparison ("close to the I/O bandwidth achieved by reading
// SeqDB, up to compression factor differences").
func BenchmarkFastqVsSeqDB(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	recs := randRecords(rng, 10000)
	fq := fastq.Format(recs)
	var sdb bytes.Buffer
	if err := Write(&sdb, recs); err != nil {
		b.Fatal(err)
	}
	b.Run("fastq", func(b *testing.B) {
		b.SetBytes(int64(len(fq)))
		for i := 0; i < b.N; i++ {
			if _, err := fastq.ParseAll(fq); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("seqdb", func(b *testing.B) {
		b.SetBytes(int64(sdb.Len()))
		for i := 0; i < b.N; i++ {
			f, err := Parse(sdb.Bytes())
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := f.ReadPart(1, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPartChargeNearShare: a part is charged little beyond the records it
// holds. The shape is the metagenome benchmark's input — 11 986 reads of
// 100 bases over 32 ranks, 374 or 375 reads a part — where a part that
// starts inside a block pays for the block's records before its first;
// with 1 024-read blocks a part was charged up to 3.7× its own bytes.
func TestPartChargeNearShare(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	recs := make([]fastq.Record, 11986)
	for i := range recs {
		seq := make([]byte, 100)
		for j := range seq {
			seq[j] = "ACGT"[rng.Intn(4)]
		}
		recs[i] = fastq.Record{ID: fmt.Appendf(nil, "r%d/%d", i/2, i%2+1), Seq: seq, Qual: bytes.Repeat([]byte{'I'}, 100)}
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	const parts = 32
	for i := 0; i < parts; i++ {
		got, charged, err := f.ReadPart(parts, i)
		if err != nil {
			t.Fatal(err)
		}
		var own bytes.Buffer
		for _, r := range got {
			writeRecord(&own, r)
		}
		if ratio := float64(charged) / float64(own.Len()); ratio > 1.2 {
			t.Errorf("part %d: charged %d bytes for %d bytes of its own records (%.2f×)", i, charged, own.Len(), ratio)
		}
	}
}
