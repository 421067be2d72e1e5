// Package seqdb implements a compact binary container for sequencing
// reads, standing in for the SeqDB/HDF5 format the paper's earlier work
// used for fast parallel I/O (§3.3). Bases are 2-bit packed with an
// exception list for Ns, qualities are stored raw, and a block index at
// the end of the file lets every rank seek directly to its share — the
// property that made SeqDB fast to read in parallel and that the paper's
// block FASTQ reader was built to match "up to compression factor
// differences".
//
// A rank's share is an equal count of read pairs (ReadPart), not whole
// blocks: with p ranks over fewer than p blocks a block split would leave
// ranks without reads. A part is charged the bytes a sequential reader
// consumes for it, from the head of the first block its range touches
// (a block is parsed from its head) to the end of its last record, so
// blocks are small: a part reads fewer than a block's records that it
// only skips.
//
// Layout:
//
//	[8]  magic "HIPSEQDB"
//	[*]  blocks: a varint record count, then the records; every block
//	     but the last holds exactly the file's block size, the last at
//	     most that. Write uses BlockRecords (64); files written with
//	     1 024-read blocks read the same.
//	[*]  index: varint block count, then varint block offsets
//	[8]  index offset (big-endian uint64)
package seqdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"hipmer/internal/fastq"
	"hipmer/internal/kmer"
)

var magic = []byte("HIPSEQDB")

// BlockRecords is the number of reads per addressable block Write makes.
// A part is charged at most BlockRecords−1 records it does not hold, where
// 1 024-read blocks charged a rank of a 32-way split up to 3.7× its share.
const BlockRecords = 64

// maxBlockRecords is the largest block size a file may declare: that of
// the files written before blocks shrank to BlockRecords.
const maxBlockRecords = 1024

// Write encodes records into the SeqDB container format.
func Write(w io.Writer, recs []fastq.Record) error {
	return writeBlocks(w, recs, BlockRecords)
}

// writeBlocks is Write with blocks of per records.
func writeBlocks(w io.Writer, recs []fastq.Record, per int) error {
	var body bytes.Buffer
	body.Write(magic)
	var offsets []uint64
	for lo := 0; lo < len(recs); lo += per {
		hi := min(lo+per, len(recs))
		offsets = append(offsets, uint64(body.Len()))
		writeUvarint(&body, uint64(hi-lo))
		for _, r := range recs[lo:hi] {
			writeRecord(&body, r)
		}
	}
	indexOff := uint64(body.Len())
	writeUvarint(&body, uint64(len(offsets)))
	for _, o := range offsets {
		writeUvarint(&body, o)
	}
	var tail [8]byte
	binary.BigEndian.PutUint64(tail[:], indexOff)
	body.Write(tail[:])
	_, err := w.Write(body.Bytes())
	return err
}

// WriteFile writes records to path.
func WriteFile(path string, recs []fastq.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeRecord(buf *bytes.Buffer, r fastq.Record) {
	writeUvarint(buf, uint64(len(r.ID)))
	buf.Write(r.ID)
	writeUvarint(buf, uint64(len(r.Seq)))
	// 2-bit packed bases; N positions recorded as exceptions
	var exceptions []int
	packed := make([]byte, (len(r.Seq)+3)/4)
	for i, b := range r.Seq {
		code, ok := kmer.BaseCode(b)
		if !ok {
			exceptions = append(exceptions, i)
			code = 0
		}
		packed[i/4] |= byte(code) << uint(2*(i%4))
	}
	buf.Write(packed)
	writeUvarint(buf, uint64(len(exceptions)))
	prev := 0
	for _, e := range exceptions {
		writeUvarint(buf, uint64(e-prev))
		prev = e
	}
	buf.Write(r.Qual)
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

// File is an opened SeqDB container supporting parallel part reads.
type File struct {
	data     []byte
	offsets  []uint64 // block starts, strictly increasing
	indexOff uint64   // where the last block ends
	records  int
	per      int // records per block but the last: the first block's count
}

// Open reads and indexes a SeqDB file. The whole file is mapped into
// memory (datasets here are laptop-scale); per-part decoding is cheap
// and random-access.
func Open(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Parse indexes SeqDB-format bytes. It checks the index and every block
// header — offsets strictly increasing inside the block area, the first
// count between 1 and maxBlockRecords (or 0 in a file of one empty block),
// every other count equal to it but the last's, which is at most that —
// so the record count, and with it every part's record range, is known
// without decoding a block.
func Parse(data []byte) (*File, error) {
	if len(data) < len(magic)+8 || !bytes.Equal(data[:len(magic)], magic) {
		return nil, errors.New("seqdb: bad magic")
	}
	indexOff := binary.BigEndian.Uint64(data[len(data)-8:])
	if indexOff < uint64(len(magic)) || indexOff > uint64(len(data)-8) {
		return nil, errors.New("seqdb: corrupt index offset")
	}
	idx := data[indexOff : len(data)-8]
	nBlocks, n := binary.Uvarint(idx)
	if n <= 0 || nBlocks > uint64(len(idx)-n) {
		return nil, errors.New("seqdb: corrupt index")
	}
	idx = idx[n:]
	f := &File{data: data, offsets: make([]uint64, nBlocks), indexOff: indexOff}
	for i := range f.offsets {
		v, n := binary.Uvarint(idx)
		if n <= 0 || v >= indexOff || v < uint64(len(magic)) || i > 0 && v <= f.offsets[i-1] {
			return nil, errors.New("seqdb: corrupt index entry")
		}
		f.offsets[i] = v
		idx = idx[n:]
	}
	for b := range f.offsets {
		count, n := binary.Uvarint(f.block(b))
		if b == 0 && n > 0 && count <= maxBlockRecords {
			f.per = int(count)
		}
		if n <= 0 || count > uint64(f.per) || b+1 < len(f.offsets) && (count != uint64(f.per) || f.per == 0) {
			return nil, fmt.Errorf("seqdb: corrupt block %d header", b)
		}
		f.records += int(count)
	}
	return f, nil
}

// block returns the encoded bytes of block b, header first.
func (f *File) block(b int) []byte {
	end := f.indexOff
	if b+1 < len(f.offsets) {
		end = f.offsets[b+1]
	}
	return f.data[f.offsets[b]:end]
}

// partRecords returns the half-open record range of part i of parts: an
// equal share of the P read pairs, pairs [⌊i·P/parts⌋, ⌊(i+1)·P/parts⌋),
// the last part also taking an odd trailing record. Parts are contiguous
// in file order, so their concatenation is the file.
func (f *File) partRecords(parts, i int) (lo, hi int) {
	pairs := f.records / 2
	lo, hi = 2*(i*pairs/parts), 2*((i+1)*pairs/parts)
	if i == parts-1 {
		hi = f.records
	}
	return lo, hi
}

// ReadPart decodes part i of parts (see partRecords) and reports the
// encoded bytes a sequential reader consumes for it, for I/O cost
// charging: a block is parsed from its head, so the span runs from the
// first byte of the first block the range touches to the last byte of
// its last record. Records before the range are skipped, not copied.
func (f *File) ReadPart(parts, i int) ([]fastq.Record, int64, error) {
	lo, hi := f.partRecords(parts, i)
	if lo == hi {
		return nil, 0, nil
	}
	recs := make([]fastq.Record, hi-lo)
	first := lo / f.per
	var last uint64 // file offset just past the part's last record
	for b, r := first, lo; r < hi; b++ {
		blk := f.block(b)
		_, n := binary.Uvarint(blk)
		buf := blk[n:]
		var err error
		for skip := r - b*f.per; skip > 0 && err == nil; skip-- {
			buf, err = nextRecord(buf, nil)
		}
		for ; r < hi && r < (b+1)*f.per && err == nil; r++ {
			buf, err = nextRecord(buf, &recs[r-lo])
		}
		if err != nil {
			return nil, 0, fmt.Errorf("seqdb: block %d: %w", b, err)
		}
		last = f.offsets[b] + uint64(len(blk)-len(buf))
	}
	return recs, int64(last - f.offsets[first]), nil
}

// nextRecord parses the record at the head of buf and returns the bytes
// after it. It decodes into rec, or, when rec is nil, only checks the
// record and skips it without copying.
func nextRecord(buf []byte, rec *fastq.Record) ([]byte, error) {
	idLen, n := binary.Uvarint(buf)
	if n <= 0 || idLen > uint64(len(buf)-n) {
		return nil, errors.New("corrupt record id")
	}
	id := buf[n : n+int(idLen)]
	buf = buf[n+int(idLen):]

	// seqLen quality bytes follow the packed bases, so a longer
	// sequence cannot be in buf
	seqLen, n := binary.Uvarint(buf)
	if n <= 0 || seqLen > uint64(len(buf)-n) {
		return nil, errors.New("corrupt sequence length")
	}
	buf = buf[n:]
	packedLen := (int(seqLen) + 3) / 4
	packed := buf[:packedLen]
	buf = buf[packedLen:]

	var seq []byte
	if rec != nil {
		seq = make([]byte, seqLen)
		for i := range seq {
			code := packed[i/4] >> uint(2*(i%4)) & 3
			seq[i] = kmer.CodeBase(uint64(code))
		}
	}
	nExc, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, errors.New("corrupt exception count")
	}
	buf = buf[n:]
	var pos uint64
	for e := uint64(0); e < nExc; e++ {
		d, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, errors.New("corrupt exception")
		}
		buf = buf[n:]
		if d >= seqLen-pos {
			return nil, errors.New("exception out of range")
		}
		pos += d
		if seq != nil {
			seq[pos] = 'N'
		}
	}

	if uint64(len(buf)) < seqLen {
		return nil, errors.New("truncated quality")
	}
	if rec != nil {
		*rec = fastq.Record{
			ID:   append([]byte(nil), id...),
			Seq:  seq,
			Qual: append([]byte(nil), buf[:seqLen]...),
		}
	}
	return buf[seqLen:], nil
}
