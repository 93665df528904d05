package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// The /classify wire format is fixed: the request body is one object whose
// only member is "instances", an array of number arrays, and the reply is
// {"predictions":[{"class":…,"logits":[…]},…]} and a newline. Both
// directions are hand-written over pooled buffers instead of reflective
// encoding/json: on the gesture model, decoding one 720-value window through
// encoding/json cost several times the int8 forward pass it fed.
//
// The decoder accepts a subset of what encoding/json accepts, with
// bit-identical values: parseNumber reads each number in one pass and
// converts it by Clinger's fast path or Eisel–Lemire, both correctly
// rounded, and by strconv.ParseFloat(…, 64), which encoding/json calls,
// only where neither decides (number.go says when). It rejects body
// shapes encoding/json tolerated:
// unknown keys, case-folded or escaped spellings of "instances", a repeated
// "instances" key, null rows or values, and anything but whitespace after
// the object. The encoder writes the bytes json.NewEncoder writes for the
// predictions as a []Result. FuzzClassifyCodec holds both to encoding/json.

// bytesPerValue is the body-size allowance per number: the longest
// shortest-round-trip float64, "-2.2250738585072014e-308" (24 bytes), plus
// a separator and whitespace. A body may carry up to QueueDepth instances
// at this allowance (maxBodyBytes); a larger one is refused with 413.
const bytesPerValue = 32

// maxBodyBytes is the /classify body cap for a model of inVol inputs: one
// value's allowance per input and one more per instance for its brackets,
// separator and the envelope, times queueDepth instances.
func maxBodyBytes(inVol, queueDepth int) int64 {
	return int64(inVol+1) * int64(queueDepth) * bytesPerValue
}

// readBody reads r to its end into buf[:0]. r delivers at most limit bytes
// (an http.MaxBytesReader), so buf grows to at most limit+1 bytes; more is
// reported as an *http.MaxBytesError. sizeHint is the declared body length,
// or negative when unknown.
func readBody(buf []byte, r io.Reader, sizeHint, limit int64) ([]byte, error) {
	buf = buf[:0]
	if sizeHint >= 0 && sizeHint <= limit && int64(cap(buf)) <= sizeHint {
		buf = make([]byte, 0, sizeHint+1) // room to read the EOF without growing
	}
	for {
		if len(buf) == cap(buf) {
			if int64(len(buf)) > limit {
				return buf, &http.MaxBytesError{Limit: limit}
			}
			grown := min(max(2*int64(cap(buf)), 512), limit+1)
			buf = append(make([]byte, 0, grown), buf...)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// syntaxError is a body the decoder refuses. Its message starts "bad JSON"
// for a body that breaks the grammar or the fixed schema.
type syntaxError struct {
	off  int    // byte offset of the offending input
	want string // what the decoder expected there
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("bad JSON: offset %d: want %s", e.off, e.want)
}

// lengthError is an instance with the wrong number of values, reported at
// its first extra value or at its early ']'.
type lengthError struct {
	instance, have, want int
}

func (e *lengthError) Error() string {
	if e.have > e.want {
		return fmt.Sprintf("serve: instance %d has more than %d values, model wants %d", e.instance, e.want, e.want)
	}
	return fmt.Sprintf("serve: instance %d has %d values, model wants %d", e.instance, e.have, e.want)
}

// instancesKey is the body's only member, matched byte for byte.
const instancesKey = `"instances"`

// decoder scans one /classify body.
type decoder struct {
	b   []byte
	off int
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.off < len(d.b) {
		switch d.b[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the next non-whitespace byte without consuming it, or 0 at
// the end of the body.
func (d *decoder) peek() byte {
	d.ws()
	if d.off == len(d.b) {
		return 0
	}
	return d.b[d.off]
}

// expect consumes the next non-whitespace byte if it is c.
func (d *decoder) expect(c byte, want string) error {
	if d.peek() != c {
		return &syntaxError{d.off, want}
	}
	d.off++
	return nil
}

// empty consumes the ']' of an array just opened, if the array is empty.
func (d *decoder) empty() bool {
	if d.peek() != ']' {
		return false
	}
	d.off++
	return true
}

// next consumes the separator after an array element and reports whether
// it closed the array.
func (d *decoder) next(where string) (bool, error) {
	switch d.peek() {
	case ',':
		d.off++
		return false, nil
	case ']':
		d.off++
		return true, nil
	}
	return false, &syntaxError{d.off, "',' or ']' " + where}
}

// number scans one JSON number and parses it to the float64
// encoding/json decodes it to.
func (d *decoder) number() (float64, error) {
	d.ws()
	v, end, err := parseNumber(d.b, d.off)
	d.off = end
	return v, err
}

// decodeInstances scans a /classify body. For each instance it calls row
// with the instance's index and writes the instance's values into the
// returned slice, which must hold inVol values; it returns the instance
// count. An instance of any other length is rejected at its first extra
// value or its early ']', so no row is ever written out of bounds.
func decodeInstances(body []byte, inVol int, row func(i int) []float64) (int, error) {
	d := decoder{b: body}
	if err := d.expect('{', "'{'"); err != nil {
		return 0, err
	}
	d.ws()
	if len(d.b)-d.off < len(instancesKey) || string(d.b[d.off:d.off+len(instancesKey)]) != instancesKey {
		return 0, &syntaxError{d.off, `the key "instances"`}
	}
	d.off += len(instancesKey)
	if err := d.expect(':', "':'"); err != nil {
		return 0, err
	}
	if err := d.expect('[', "'[' opening the instances"); err != nil {
		return 0, err
	}
	n := 0
	for end := d.empty(); !end; n++ {
		if err := d.expect('[', "'[' opening an instance"); err != nil {
			return 0, err
		}
		x, have := row(n), 0
		for done := d.empty(); !done; {
			v, err := d.number()
			if err != nil {
				return 0, err
			}
			if have == inVol {
				return 0, &lengthError{n, have + 1, inVol}
			}
			x[have] = v
			have++
			if done, err = d.next("in an instance"); err != nil {
				return 0, err
			}
		}
		if have != inVol {
			return 0, &lengthError{n, have, inVol}
		}
		var err error
		if end, err = d.next("after an instance"); err != nil {
			return 0, err
		}
	}
	if err := d.expect('}', `'}': "instances" is the body's only member`); err != nil {
		return 0, err
	}
	if d.ws(); d.off != len(d.b) {
		return 0, &syntaxError{d.off, "the end of the body"}
	}
	return n, nil
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// round-trip form, in exponent notation below 1e-6 or from 1e21 on, with a
// two-digit negative exponent trimmed to one (e-07 becomes e-7). f must be
// finite.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// errNonFinite reports a logit encoding/json could not encode either.
var errNonFinite = errors.New("serve: non-finite logit")

// appendReply appends the /classify reply for reqs to b, byte-identical to
// json.NewEncoder's encoding of {"predictions": []Result} for the same
// classes and logits.
func appendReply(b []byte, reqs []*request) ([]byte, error) {
	b = append(b, `{"predictions":[`...)
	for i, r := range reqs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"class":`...)
		b = strconv.AppendInt(b, int64(r.cls), 10)
		b = append(b, `,"logits":[`...)
		for j, v := range r.out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return b, errNonFinite
			}
			if j > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, v)
		}
		b = append(b, "]}"...)
	}
	return append(b, "]}\n"...), nil
}
