// Deterministic binary codec for checkpoint segment payloads. The
// encoding is hand-rolled rather than gob/JSON so that a payload's bytes
// are a pure function of the logical stage output: fixed-width
// little-endian integers, length-prefixed byte strings, no maps, no
// reflection. Determinism matters because the manifest records a content
// hash per stage — re-checkpointing an identical result must produce an
// identical hash.
package ckpt

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrTruncated is wrapped by decode errors caused by short or malformed
// payloads.
var ErrTruncated = errors.New("ckpt: truncated or malformed payload")

// enc is an append-only little-endian writer.
type enc struct {
	b []byte
}

// newEnc starts a writer with room for size bytes. Every stage encoder
// passes the exact length of the payload it is about to write — all fields
// are fixed-width or length-prefixed, so the length is a sum over counts
// the result already holds — and the buffer is allocated once; append's
// own growth (a quarter at a time on large slices, several times the
// payload in cumulative copies) remains the fallback should a size
// function ever fall behind its encoder.
func newEnc(size int) *enc { return &enc{b: make([]byte, 0, size)} }

func (e *enc) u8(v byte) { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) {
	e.b = binary.LittleEndian.AppendUint32(e.b, v)
}
func (e *enc) u64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *enc) bytes(v []byte) {
	e.u64(uint64(len(v)))
	e.b = append(e.b, v...)
}

// dec is the matching bounds-checked reader. Errors are sticky: after the
// first failure every read returns zero values, and callers check err
// once at the end. No input can make it panic or allocate more than the
// input's own length (list headers are validated against the remaining
// bytes before allocation).
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
}

func (d *dec) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int64   { return int64(d.u64()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) bool() bool   { return d.u8() != 0 }

func (d *dec) bytes() []byte {
	n := d.u64()
	if d.err != nil || n > uint64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	v := make([]byte, n)
	copy(v, d.b[d.off:])
	d.off += int(n)
	return v
}

// count reads a list length and validates it against the smallest
// possible per-element size, so a corrupt header cannot trigger a huge
// allocation.
func (d *dec) count(minElemBytes int) int {
	n := d.u64()
	if d.err != nil || minElemBytes < 1 ||
		n > uint64(len(d.b)-d.off)/uint64(minElemBytes) {
		d.fail()
		return 0
	}
	return int(n)
}

// done reports the terminal decode status: every byte consumed, no
// sticky error.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return ErrTruncated
	}
	return nil
}
