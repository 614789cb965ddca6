package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
)

// The classify and quantize bodies every client sends — json.Marshal of
// five known fields — are read here without encoding/json's reflection.
// The scanner accepts a strict subset of JSON:
//
//   - one object whose keys are exactly model, method, bits, regime and
//     images, a later duplicate overriding an earlier one;
//   - string values of printable ASCII with no escapes;
//   - an integer bits;
//   - images as an array of arrays of JSON numbers.
//
// Each number becomes the float64 nearest it, the value
// strconv.ParseFloat(s, 64) gives it inside encoding/json (atof.go), so
// an accepted body decodes to encoding/json's bits. Any body outside the
// subset — escapes, non-ASCII, unknown or case-variant keys, null,
// nested values, a number ParseFloat rejects or overflows — is reported
// as such, and the caller hands it whole to encoding/json: what is
// accepted, and every error text, stays encoding/json's.

// Selection is the key-selecting part of a classify or quantize body as
// it came over the wire, before KeyFromWire canonicalizes it.
type Selection struct {
	Model  string
	Method string
	Bits   int
	Regime string
}

// ReadBody reads a request body whole. When the client declared a
// Content-Length within limit that is one allocation of exactly that
// length; otherwise it is io.ReadAll under the http.MaxBytesReader the
// middleware installed, which fails a body over the limit.
func ReadBody(r *http.Request, limit int64) ([]byte, error) {
	n := r.ContentLength
	if n < 0 || n > limit {
		return io.ReadAll(r.Body)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r.Body, body); err != nil {
		return nil, err
	}
	return body, nil
}

// ScanSelection reads the key fields of a body in the subset, checking
// the grammar of images without parsing its numbers. Like json.Unmarshal
// it accepts only whitespace after the object; ok is false for any body
// outside the subset, which the caller must decode with encoding/json.
func ScanSelection(body []byte) (sel Selection, ok bool) {
	s := scanner{b: body}
	sel, _, ok = s.object()
	s.space()
	return sel, ok && s.i == len(body)
}

// decodeClassify decodes a classify body into its key fields and its
// images, as json.NewDecoder(body).Decode would: bytes after the object
// are ignored. An image is a view into one slab holding every number of
// the body.
func decodeClassify(body []byte) (classifyRequest, error) {
	s := scanner{b: body, parse: true}
	if sel, images, ok := s.object(); ok {
		return classifyRequest{modelRequest(sel), images}, nil
	}
	var req classifyRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// scanner walks one body. Every method leaves i after what it consumed
// and reports false when the input leaves the subset, after which the
// scanner's state means nothing.
type scanner struct {
	b []byte
	i int
	// parse makes images parse its numbers into slab; without it only
	// their grammar is checked.
	parse bool
	slab  []float64
}

// object scans the top-level object: its key fields and, when
// parsing, its images.
func (s *scanner) object() (sel Selection, images [][]float64, ok bool) {
	if !s.next('{') {
		return sel, nil, false
	}
	if s.next('}') {
		return sel, nil, true
	}
	for {
		s.space()
		var key []byte
		key, ok = s.str()
		if !ok || !s.next(':') {
			return sel, nil, false
		}
		s.space()
		switch string(key) {
		case "model":
			sel.Model, ok = s.text()
		case "method":
			sel.Method, ok = s.text()
		case "regime":
			sel.Regime, ok = s.text()
		case "bits":
			sel.Bits, ok = s.integer()
		case "images":
			images, ok = s.images()
		default:
			return sel, nil, false
		}
		if !ok {
			return sel, nil, false
		}
		if s.next('}') {
			return sel, images, true
		}
		if !s.next(',') {
			return sel, nil, false
		}
	}
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c, after whitespace, if it is the next byte.
func (s *scanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str scans a string of printable ASCII without escapes and returns
// its contents, which alias the body.
func (s *scanner) str() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i+1 : j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text scans a string value.
func (s *scanner) text() (string, bool) {
	v, ok := s.str()
	return string(v), ok
}

// integer scans a number that strconv.Atoi takes, which is what
// encoding/json stores in an int.
func (s *scanner) integer() (int, bool) {
	tok, _, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(string(tok))
	return n, err == nil
}

// number scans one number of the JSON grammar and returns its bytes and
// its value as a decimal.
func (s *scanner) number() (tok []byte, d decimal, ok bool) {
	b, i := s.b, s.i
	if d.neg = i < len(b) && b[i] == '-'; d.neg {
		i++
	}
	n := 0 // digits read into d.m
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		j := i
		i, d.m = digits(b, i, d.m)
		n = i - j
	default:
		return nil, d, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || !isDigit(b[i]) {
			return nil, d, false
		}
		j := i
		i, d.m = digits(b, i, d.m)
		n += i - j
		d.k = j - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		eneg := false
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return nil, d, false
		}
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 1e4 { // far past any float64 already; no overflow
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		d.k += e
	}
	d.trunc = n > 19
	tok = b[s.i:i]
	s.i = i
	return tok, d, true
}

// digits reads the decimal digits at b[i:] into m, which wraps past 19
// of them, and returns the index after them.
func digits(b []byte, i int, m uint64) (int, uint64) {
	for ; i < len(b) && isDigit(b[i]); i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	return i, m
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// images scans an array of arrays of numbers. When parsing, the numbers
// land in the slab and each inner array becomes a view of its run; the
// views are capped so none can grow into its neighbour.
func (s *scanner) images() ([][]float64, bool) {
	if s.parse && s.slab == nil {
		// Every number of an array follows a '[' or a ',', so their count
		// bounds the numbers left, a later images key's included, and the
		// slab never regrows. It is at most one per two bytes: a digit
		// and a separator.
		rest := s.b[s.i:]
		n := bytes.Count(rest, []byte{','}) + bytes.Count(rest, []byte{'['})
		s.slab = make([]float64, 0, min(n, len(rest)/2+1))
	}
	imgs := [][]float64{}
	ok := s.array(func() bool {
		start := len(s.slab)
		if !s.array(s.value) {
			return false
		}
		if s.parse {
			end := len(s.slab)
			imgs = append(imgs, s.slab[start:end:end])
		}
		return true
	})
	return imgs, ok
}

// array scans an array whose elements elem scans.
func (s *scanner) array(elem func() bool) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.next(',') {
			return s.next(']')
		}
	}
}

// value scans one number and, when parsing, appends it to the slab.
func (s *scanner) value() bool {
	s.space()
	tok, d, ok := s.number()
	if !ok || !s.parse {
		return ok
	}
	v, ok := d.float()
	if !ok {
		var err error
		if v, err = strconv.ParseFloat(string(tok), 64); err != nil {
			return false
		}
	}
	s.slab = append(s.slab, v)
	return true
}
