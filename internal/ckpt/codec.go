// Deterministic binary codec for checkpoint segment payloads. The
// encoding is hand-rolled rather than gob/JSON so that a payload's bytes
// are a pure function of the logical stage output: fixed-width
// little-endian integers, count-prefixed lists and byte strings, no maps,
// no reflection. Determinism matters because the manifest records a
// content hash per stage — re-checkpointing an identical result must
// produce an identical hash.
//
// A record's layout is stated once, as a walk: a function that visits the
// record's fields in wire order through a cursor. The same walk measures
// the record, writes it and reads it back, so the three cannot disagree.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrTruncated is wrapped by decode errors caused by short or malformed
// payloads.
var ErrTruncated = errors.New("ckpt: truncated or malformed payload")

const (
	measuring = iota // count the bytes the walk would write
	writing          // store fields into a buffer of the measured size
	reading          // load fields from a payload, bounds-checked
)

// cursor carries one walk over a payload. Fields are visited through
// pointers and stored through only when reading — a walk that measures or
// writes never modifies the record it visits. Read errors are sticky: after
// the first short read every field keeps its zero value and the caller
// checks once at the end. No input can make a read panic, or allocate more
// than a small multiple of the input's own length (list headers are
// validated against the bytes that remain before anything is allocated).
type cursor struct {
	mode int
	b    []byte // the payload: being filled, being parsed, or nil (measuring)
	off  int    // bytes measured, written or consumed
	err  error
	// varlen is set once the walk meets a list header: the size of what it
	// measured then depends on the value it visited.
	varlen bool
}

// next advances over the next n payload bytes and returns them, nil when
// there is no buffer (measuring) or not enough of it.
func (c *cursor) next(n int) []byte {
	if n > len(c.b)-c.off {
		if c.mode == measuring {
			c.off += n
		} else {
			c.fail()
		}
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

// fail records the sticky error and drops the buffer, so every later
// field falls through next's short path.
func (c *cursor) fail() {
	c.err, c.b, c.off = ErrTruncated, nil, 0
}

// The fixed-width fields, little-endian. They are functions, like every
// walk, so that the 64-bit one can be generic.

func u8(c *cursor, p *byte) {
	switch s := c.next(1); {
	case s == nil:
	case c.mode == reading:
		*p = s[0]
	default:
		s[0] = *p
	}
}

func u32(c *cursor, p *uint32) {
	switch s := c.next(4); {
	case s == nil:
	case c.mode == reading:
		*p = binary.LittleEndian.Uint32(s)
	default:
		binary.LittleEndian.PutUint32(s, *p)
	}
}

// i64 is any integer field carried as 64 wire bits.
func i64[T int | int64 | uint64](c *cursor, p *T) {
	switch s := c.next(8); {
	case s == nil:
	case c.mode == reading:
		*p = T(binary.LittleEndian.Uint64(s))
	default:
		binary.LittleEndian.PutUint64(s, uint64(*p))
	}
}

func f64(c *cursor, p *float64) {
	v := math.Float64bits(*p)
	i64(c, &v)
	if c.mode == reading {
		*p = math.Float64frombits(v)
	}
}

// uvarint is an integer as an unsigned LEB128 varint: 1 byte below 128,
// up to 10 for a negative one.
func uvarint(c *cursor, p *int64) {
	c.varlen = true
	if c.mode != reading {
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], uint64(*p))
		if s := c.next(n); s != nil {
			copy(s, tmp[:n])
		}
		return
	}
	if c.err != nil {
		return
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return
	}
	c.off += n
	*p = int64(v)
}

// flag is a bool as one byte, any nonzero value read as true.
func flag(c *cursor, p *bool) {
	var v byte
	if *p {
		v = 1
	}
	u8(c, &v)
	if c.mode == reading {
		*p = v != 0
	}
}

// count walks a list header — the length have when measuring or writing —
// and returns the list's length. A header read is validated against the
// smallest wire size of one element, so a corrupt one cannot trigger a
// huge allocation; a failed read returns zero.
func (c *cursor) count(have, minElemBytes int) int {
	c.varlen = true
	n := uint64(have)
	i64(c, &n)
	if c.mode != reading {
		return have
	}
	if c.err != nil || minElemBytes < 1 || n > uint64(len(c.b)-c.off)/uint64(minElemBytes) {
		c.fail()
		return 0
	}
	return int(n)
}

// blob is a count-prefixed byte string, read into a copy of its own.
func blob(c *cursor, p *[]byte) {
	s := c.next(c.count(len(*p), 1))
	if c.mode != reading {
		copy(s, *p)
	} else if c.err == nil {
		*p = make([]byte, len(s))
		copy(*p, s)
	}
}

// record is one wire record type: its walk, the wire size of its zero
// value — the smallest a value can be, which is what list headers are
// validated against — and whether every value has that size (no list or
// byte string inside).
type record[T any] struct {
	walk  func(*cursor, *T)
	size  int
	fixed bool
}

// recordOf measures the zero T under its walk.
func recordOf[T any](walk func(*cursor, *T)) record[T] {
	var zero T
	c := cursor{mode: measuring}
	walk(&c, &zero)
	return record[T]{walk, c.off, !c.varlen}
}

// ptrTo is the record of a *T: r's layout, read into a fresh T.
func ptrTo[T any](r record[T]) record[*T] {
	return record[*T]{func(c *cursor, p **T) {
		if c.mode == reading {
			*p = new(T)
		}
		r.walk(c, *p)
	}, r.size, r.fixed}
}

// listOf is the record of a count-prefixed list of r.
func listOf[T any](r record[T]) record[[]T] {
	return recordOf(func(c *cursor, p *[]T) { list(c, p, r) })
}

// list walks a count-prefixed list. A list of fixed-size records is
// measured as length × size without visiting them; a list being read is
// allocated once, at its validated length.
func list[T any](c *cursor, p *[]T, r record[T]) {
	n := c.count(len(*p), r.size)
	if c.mode == measuring && r.fixed {
		c.next(n * r.size)
		return
	}
	if c.mode == reading {
		*p = make([]T, n)
	}
	for s, i := *p, 0; i < len(s) && c.err == nil; i++ {
		r.walk(c, &s[i])
	}
}

// encode builds a payload from its walk: measure, allocate once, write.
func encode(walk func(*cursor)) []byte {
	c := cursor{mode: measuring}
	walk(&c)
	c = cursor{mode: writing, b: make([]byte, c.off)}
	walk(&c)
	if c.err != nil || c.off != len(c.b) {
		panic("ckpt: a walk measured and wrote different lengths")
	}
	return c.b
}

// done is the verdict of a read: no short field and every byte consumed.
func (c *cursor) done(what string) error {
	if c.err == nil && c.off != len(c.b) {
		c.fail()
	}
	if c.err != nil {
		return fmt.Errorf("%s payload: %w", what, c.err)
	}
	return nil
}
