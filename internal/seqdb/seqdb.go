// Package seqdb implements a compact binary container for sequencing
// reads, standing in for the SeqDB/HDF5 format the paper's earlier work
// used for fast parallel I/O (§3.3). Bases are 2-bit packed with an
// exception list for Ns, qualities are stored raw, and a block index at
// the end of the file lets every rank seek directly to its share — the
// property that made SeqDB fast to read in parallel and that the paper's
// block FASTQ reader was built to match "up to compression factor
// differences".
//
// Layout:
//
//	[8]  magic "HIPSEQDB"
//	[*]  blocks: each block holds up to BlockRecords records
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

// BlockRecords is the number of reads per addressable block.
const BlockRecords = 1024

// Write encodes records into the SeqDB container format.
func Write(w io.Writer, recs []fastq.Record) error {
	var body bytes.Buffer
	body.Write(magic)
	var offsets []uint64
	for lo := 0; lo < len(recs); lo += BlockRecords {
		hi := lo + BlockRecords
		if hi > len(recs) {
			hi = len(recs)
		}
		offsets = append(offsets, uint64(body.Len()))
		writeBlock(&body, recs[lo:hi])
	}
	if len(recs) == 0 {
		offsets = nil
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

func writeBlock(buf *bytes.Buffer, recs []fastq.Record) {
	writeUvarint(buf, uint64(len(recs)))
	for _, r := range recs {
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
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

// File is an opened SeqDB container supporting parallel block reads.
type File struct {
	data    []byte
	offsets []uint64
}

// Open reads and indexes a SeqDB file. The whole file is mapped into
// memory (datasets here are laptop-scale); per-block decoding is cheap
// and random-access.
func Open(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(data)
}

// Parse indexes SeqDB-format bytes.
func Parse(data []byte) (*File, error) {
	if len(data) < len(magic)+8 || !bytes.Equal(data[:len(magic)], magic) {
		return nil, errors.New("seqdb: bad magic")
	}
	indexOff := binary.BigEndian.Uint64(data[len(data)-8:])
	if indexOff > uint64(len(data)-8) {
		return nil, errors.New("seqdb: corrupt index offset")
	}
	idx := data[indexOff : len(data)-8]
	nBlocks, n := binary.Uvarint(idx)
	if n <= 0 {
		return nil, errors.New("seqdb: corrupt index")
	}
	idx = idx[n:]
	offsets := make([]uint64, nBlocks)
	for i := range offsets {
		v, n := binary.Uvarint(idx)
		if n <= 0 {
			return nil, errors.New("seqdb: corrupt index entry")
		}
		offsets[i] = v
		idx = idx[n:]
	}
	return &File{data: data, offsets: offsets}, nil
}

// Blocks returns the number of addressable blocks.
func (f *File) Blocks() int { return len(f.offsets) }

// BlockBytes returns the encoded size of block i (for I/O cost charging).
func (f *File) BlockBytes(i int) int64 {
	end := uint64(len(f.data) - 8)
	if i+1 < len(f.offsets) {
		end = f.offsets[i+1]
	}
	return int64(end - f.offsets[i])
}

// ReadBlock decodes block i.
func (f *File) ReadBlock(i int) ([]fastq.Record, error) {
	if i < 0 || i >= len(f.offsets) {
		return nil, fmt.Errorf("seqdb: block %d out of range", i)
	}
	buf := f.data[f.offsets[i]:]
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, errors.New("seqdb: corrupt block header")
	}
	buf = buf[n:]
	recs := make([]fastq.Record, 0, count)
	for r := uint64(0); r < count; r++ {
		rec, rest, err := decodeRecord(buf)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		buf = rest
	}
	return recs, nil
}

func decodeRecord(buf []byte) (fastq.Record, []byte, error) {
	idLen, n := binary.Uvarint(buf)
	if n <= 0 || uint64(len(buf)) < uint64(n)+idLen {
		return fastq.Record{}, nil, errors.New("seqdb: corrupt record id")
	}
	buf = buf[n:]
	id := append([]byte(nil), buf[:idLen]...)
	buf = buf[idLen:]

	seqLen, n := binary.Uvarint(buf)
	if n <= 0 {
		return fastq.Record{}, nil, errors.New("seqdb: corrupt sequence length")
	}
	buf = buf[n:]
	packedLen := (int(seqLen) + 3) / 4
	if len(buf) < packedLen {
		return fastq.Record{}, nil, errors.New("seqdb: truncated sequence")
	}
	seq := make([]byte, seqLen)
	for i := range seq {
		code := buf[i/4] >> uint(2*(i%4)) & 3
		seq[i] = kmer.CodeBase(uint64(code))
	}
	buf = buf[packedLen:]

	nExc, n := binary.Uvarint(buf)
	if n <= 0 {
		return fastq.Record{}, nil, errors.New("seqdb: corrupt exception count")
	}
	buf = buf[n:]
	pos := 0
	for e := uint64(0); e < nExc; e++ {
		d, n := binary.Uvarint(buf)
		if n <= 0 {
			return fastq.Record{}, nil, errors.New("seqdb: corrupt exception")
		}
		buf = buf[n:]
		pos += int(d)
		if pos >= int(seqLen) {
			return fastq.Record{}, nil, errors.New("seqdb: exception out of range")
		}
		seq[pos] = 'N'
	}

	if uint64(len(buf)) < seqLen {
		return fastq.Record{}, nil, errors.New("seqdb: truncated quality")
	}
	qual := append([]byte(nil), buf[:seqLen]...)
	return fastq.Record{ID: id, Seq: seq, Qual: qual}, buf[seqLen:], nil
}

// PartBlocks returns the half-open block range assigned to part i of
// parts, for parallel reading.
func (f *File) PartBlocks(parts, i int) (lo, hi int) {
	n := len(f.offsets)
	q, r := n/parts, n%parts
	lo = i*q + min(i, r)
	hi = lo + q
	if i < r {
		hi++
	}
	return lo, hi
}

// ReadPart decodes the blocks of part i of parts and reports the encoded
// bytes consumed (for I/O cost charging).
func (f *File) ReadPart(parts, i int) ([]fastq.Record, int64, error) {
	lo, hi := f.PartBlocks(parts, i)
	var recs []fastq.Record
	var bytes int64
	for b := lo; b < hi; b++ {
		rs, err := f.ReadBlock(b)
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, rs...)
		bytes += f.BlockBytes(b)
	}
	return recs, bytes, nil
}
