package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// decodeRequest parses a POST /solve body. It reads exactly what
// encoding/json's Decoder, with DisallowUnknownFields, reads into a
// Request, and then insists on the end of the body: one JSON object (or
// null, the zero Request) between JSON white space. Unknown fields and
// anything after the object are errors, so a misspelled option or a
// second object is refused instead of silently ignored.
//
// The body is read into a pooled buffer and decoded front to back in
// one pass: keys are matched as encoding/json matches them, weights are
// parsed straight into one slice, and strings are unescaped once.
// FuzzParseRequest holds it to the reflective decoder's verdicts and
// values.
func decodeRequest(body io.Reader) (Request, error) {
	bp := bodyBufs.Get().(*[]byte)
	b, err := readBody(body, (*bp)[:0])
	var req Request
	if err == nil {
		d := decoder{b: b}
		err = d.request(&req)
	}
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyBufs.Put(bp)
	}
	return req, err
}

// bodyBufs recycles the buffers request bodies are read into. Nothing a
// decoded Request holds points into one.
var bodyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 32<<10)
	return &b
}}

// maxPooledBody is the largest buffer bodyBufs keeps; one grown for a
// rarer, larger body is left to the collector.
const maxPooledBody = 1 << 20

// readBody appends all of r to buf. It grows with the bytes that
// arrive, never with a length the request merely declares.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
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

// requestFields are Request's JSON field names.
var requestFields = [...]string{"tenant", "alg", "x", "y", "z", "weights", "instance", "timeout_ms", "async"}

// fieldName returns the Request field name that key selects, matched as
// encoding/json matches it: under Unicode case folding
// (bytes.EqualFold), so "ALG" selects alg and "aſync" async. No two
// names fold alike, so the first match is the only one. It returns ""
// for an unknown key.
func fieldName(key []byte) string {
	for _, name := range requestFields {
		if string(key) == name || bytes.EqualFold(key, []byte(name)) {
			return name
		}
	}
	return ""
}

// decoder reads one JSON body front to back. Every method starts at
// d.i and leaves d.i just past what it read.
type decoder struct {
	b []byte
	i int
}

// fail reports a malformed body at the current offset.
func (d *decoder) fail(what string) error {
	if d.i >= len(d.b) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%s at offset %d", what, d.i)
}

// space skips JSON white space.
func (d *decoder) space() { d.i = skipSpace(d.b, d.i) }

// skipSpace returns the index of the first byte at or after i that is
// not JSON white space.
func skipSpace(b []byte, i int) int {
	for i < len(b) && jsonSpace[b[i]] {
		i++
	}
	return i
}

// jsonSpace marks the four white-space bytes JSON allows between tokens.
var jsonSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// peek returns the next byte, or 0 (which starts no JSON token) at the
// end of the body.
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// literal consumes lit if the body continues with it.
func (d *decoder) literal(lit string) bool {
	end := d.i + len(lit)
	if end > len(d.b) || string(d.b[d.i:end]) != lit {
		return false
	}
	d.i = end
	return true
}

// request reads the whole body into req.
func (d *decoder) request(req *Request) error {
	d.space()
	switch {
	case d.i == len(d.b):
		return io.EOF
	case d.peek() == '{':
		if err := d.object(req); err != nil {
			return err
		}
	case !d.literal("null"): // null decodes as the zero Request
		return d.fail("want a JSON object")
	}
	d.space()
	if d.i != len(d.b) {
		return errors.New("trailing data after the request object")
	}
	return nil
}

// object reads the request object, fields in any order; a repeated
// field decodes over what the earlier one left.
func (d *decoder) object(req *Request) error {
	d.i++ // '{'
	d.space()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.fail("want ':' after a field name")
		}
		d.i++
		d.space()
		if err := d.field(req, key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case '}':
			d.i++
			return nil
		default:
			return d.fail("want ',' or '}' after a field")
		}
	}
}

// field reads the value of the field key names. A null leaves a string,
// integer or bool field as it is and sets weights to nil, as
// encoding/json does; any other value of the wrong type is an error.
func (d *decoder) field(req *Request, key []byte) error {
	switch fieldName(key) {
	case "tenant":
		return d.str(&req.Tenant)
	case "alg":
		return d.str(&req.Alg)
	case "x":
		return integer(d, &req.X)
	case "y":
		return integer(d, &req.Y)
	case "z":
		return integer(d, &req.Z)
	case "weights":
		return d.weights(&req.Weights)
	case "instance":
		return d.str(&req.Instance)
	case "timeout_ms":
		return integer(d, &req.TimeoutMS)
	case "async":
		switch {
		case d.literal("true"):
			req.Async = true
		case d.literal("false"):
			req.Async = false
		case !d.literal("null"):
			return d.fail("async: want true or false")
		}
		return nil
	}
	return fmt.Errorf("unknown field %q", key)
}

// integer reads a JSON integer into *p, or leaves *p as it is for null.
func integer[T int | int64](d *decoder, p *T) error {
	if d.literal("null") {
		return nil
	}
	v, err := d.int64()
	if err != nil {
		return err
	}
	if int64(T(v)) != v {
		return d.fail("integer overflows its field")
	}
	*p = T(v)
	return nil
}

// int64 reads a JSON number that encoding/json would store in an int64:
// an optional minus, then digits without a leading zero, in range, with
// no fraction or exponent.
func (d *decoder) int64() (int64, error) {
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for i < len(b) && b[i]-'0' <= 9 {
		u = u*10 + uint64(b[i]-'0')
		i++
	}
	n := i - start
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	switch {
	case n == 0:
		return 0, d.fail("want an integer")
	case n > 1 && b[start] == '0':
		return 0, d.fail("leading zero in a number")
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, d.fail("want an integer, not a fraction or exponent")
	case n > 19 || u > limit: // 19 digits cannot wrap a uint64
		return 0, d.fail("integer overflows int64")
	}
	d.i = i
	if neg {
		return -int64(u), nil // -int64(1<<63) is MinInt64
	}
	return int64(u), nil
}

// weights reads a weights value as encoding/json reads one into a
// []int64: null sets *w to nil, and an array of integers and nulls
// fills *w's backing array, so a null element keeps what an earlier
// array under a repeated key left at its index; an empty array is an
// empty, non-nil slice. The slice is sized once: an array of integers
// and nulls ends at its first ']' and holds one element more than the
// commas before it, each element taking at least one byte. Any other
// element fails below, whatever the count was.
func (d *decoder) weights(w *Weights) error {
	if d.literal("null") {
		*w = nil
		return nil
	}
	if d.peek() != '[' {
		return d.fail("weights: want an array of integers")
	}
	d.i++
	d.space()
	if d.peek() == ']' {
		d.i++
		*w = Weights{}
		return nil
	}
	span := bytes.IndexByte(d.b[d.i:], ']')
	if span < 0 {
		return io.ErrUnexpectedEOF
	}
	n := bytes.Count(d.b[d.i:d.i+span], []byte{','}) + 1
	if 2*n-1 > span {
		return d.fail("weights: empty element")
	}
	out := *w
	if n > cap(out) {
		out = append(make(Weights, 0, n), out[:cap(out)]...)
	}
	out = out[:n]
	b, i := d.b, d.i
	for k := range out {
		// The common element, 1–18 digits without a leading zero, is
		// parsed inline; null, a sign, a longer number and every
		// malformed element take int64 and its checks.
		j, u := i, uint64(0)
		for j < len(b) && b[j]-'0' <= 9 && j-i < 18 {
			u = u*10 + uint64(b[j]-'0')
			j++
		}
		if j > i && (b[i] != '0' || j == i+1) && (j == len(b) || b[j]-'0' > 9) {
			out[k] = int64(u)
		} else {
			d.i = i
			if d.peek() != 'n' || !d.literal("null") {
				v, err := d.int64()
				if err != nil {
					return fmt.Errorf("weights[%d]: %w", k, err)
				}
				out[k] = v
			}
			j = d.i
		}
		i = skipSpace(b, j)
		switch {
		case i < len(b) && b[i] == ',' && k < n-1:
			i = skipSpace(b, i+1)
		case i < len(b) && b[i] == ']' && k == n-1:
			i++
		default:
			d.i = i
			return d.fail("weights: want ',' or ']' after an element")
		}
	}
	d.i = i
	*w = out
	return nil
}

// str reads a JSON string into *p, or leaves *p as it is for null.
func (d *decoder) str(p *string) error {
	if d.literal("null") {
		return nil
	}
	raw, escaped, ascii, err := d.span()
	if err != nil {
		return err
	}
	if !escaped && (ascii || utf8.Valid(raw)) {
		*p = string(raw)
		return nil
	}
	s, err := unquote(raw, ascii)
	if err != nil {
		return err
	}
	*p = s
	return nil
}

// key reads an object key. An unescaped, well-formed key is returned in
// place, without a copy.
func (d *decoder) key() ([]byte, error) {
	raw, escaped, ascii, err := d.span()
	if err != nil || !escaped && (ascii || utf8.Valid(raw)) {
		return raw, err
	}
	s, err := unquote(raw, ascii)
	return []byte(s), err
}

// inString marks the bytes that stand for themselves inside a JSON
// string: not a quote, a backslash, a control character or the start
// of a multi-byte sequence.
var inString = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// span reads a JSON string and returns the bytes between its quotes,
// and whether they hold an escape or a non-ASCII byte. Escapes are only
// skipped here; unquote checks them.
func (d *decoder) span() (raw []byte, escaped, ascii bool, err error) {
	if d.peek() != '"' {
		return nil, false, false, d.fail("want a string")
	}
	b, i := d.b, d.i+1
	ascii = true
	for {
		for i < len(b) && inString[b[i]] {
			i++
		}
		if i >= len(b) {
			return nil, false, false, io.ErrUnexpectedEOF
		}
		switch c := b[i]; {
		case c == '"':
			raw = b[d.i+1 : i]
			d.i = i + 1
			return raw, escaped, ascii, nil
		case c == '\\':
			escaped = true
			i += 2
		case c < ' ':
			d.i = i
			return nil, false, false, d.fail("control character in a string")
		default:
			ascii = false
			i++
		}
	}
}

// unquote unescapes the inside of a JSON string as encoding/json does,
// coercing it to valid UTF-8: invalid bytes and lone surrogate escapes
// become U+FFFD. It writes each byte once, into a builder whose String
// costs no copy; in an ASCII string the runs between escapes are found
// with bytes.IndexByte.
func unquote(raw []byte, ascii bool) (string, error) {
	var sb strings.Builder
	sb.Grow(len(raw))
	for len(raw) > 0 {
		j := 0
		if ascii {
			if j = bytes.IndexByte(raw, '\\'); j < 0 {
				j = len(raw)
			}
		}
		for j < len(raw) && raw[j] != '\\' && raw[j] < utf8.RuneSelf {
			j++
		}
		sb.Write(raw[:j])
		raw = raw[j:]
		switch {
		case len(raw) == 0:
		case raw[0] != '\\':
			r, size := utf8.DecodeRune(raw)
			sb.WriteRune(r)
			raw = raw[size:]
		case len(raw) < 2:
			return "", errors.New("truncated escape in a string")
		default:
			if c := unescape[raw[1]]; c != 0 {
				sb.WriteByte(c)
				raw = raw[2:]
				continue
			}
			r := hex4(raw)
			if r < 0 {
				return "", fmt.Errorf("invalid escape %.6q in a string", raw)
			}
			raw = raw[6:]
			if utf16.IsSurrogate(r) {
				r = utf16.DecodeRune(r, hex4(raw))
				if r != utf8.RuneError {
					raw = raw[6:]
				}
			}
			sb.WriteRune(r)
		}
	}
	return sb.String(), nil
}

// unescape maps the byte after a backslash to what it stands for, for
// every JSON escape but \u.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 decodes a \uXXXX escape at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
