// Package bytecodec holds the byte-level primitives shared by the repo's
// versioned binary codecs (the nas candidate/result codec and the evo
// checkpoint format): little-endian varints via encoding/binary's Append
// helpers, fixed 8-byte float64 bit patterns (so NaN/Inf and negative zero
// round-trip exactly, which %g-style text would not guarantee), and
// length-prefixed byte/string fields — plus a sticky-error Reader so decode
// paths stay linear instead of threading (value, rest, error) triples.
//
// Every encoder in the repo follows the same two rules, which is what makes
// encode→decode→encode byte-equality testable: appends are deterministic
// functions of the value (no maps iterated in hash order, no timestamps),
// and every variable-length field is length-prefixed so a truncated buffer
// fails cleanly instead of misparsing.
package bytecodec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v in zig-zag varint encoding.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendInt appends an int as a zig-zag varint.
func AppendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

// AppendF64 appends the exact bit pattern of v (8 bytes, little-endian).
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendBytes appends p length-prefixed.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendString appends s length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Reader decodes a buffer written with the Append helpers. The first
// malformed or truncated field latches an error; subsequent reads return
// zero values, so callers check Err once after a run of reads.
type Reader struct {
	b   []byte
	err error
}

// NewReader wraps b. The reader never mutates the buffer.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns how many bytes remain unread.
func (r *Reader) Len() int { return len(r.b) }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("bytecodec: "+format, args...)
	}
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or malformed uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads one zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated or malformed varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a zig-zag varint as an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// F64 reads one fixed 8-byte float64 bit pattern.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("truncated float64 (%d bytes left)", len(r.b))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// Count reads a list's uvarint element count and latches an error unless
// the bytes left can hold that many elements of at least elemBytes each, so
// a decoder can size the list before reading it without trusting the
// count.
func (r *Reader) Count(elemBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)/elemBytes) {
		r.fail("list of %d elements cannot fit in %d bytes", n, len(r.b))
		return 0
	}
	return int(n)
}

// Bytes reads one length-prefixed byte field. The returned slice aliases
// the underlying buffer; callers that retain it must copy.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)) < n {
		r.fail("truncated bytes field (want %d, have %d)", n, len(r.b))
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

// String reads one length-prefixed string field.
func (r *Reader) String() string { return string(r.Bytes()) }
