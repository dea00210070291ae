package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	ehinfer "repro"
)

// readInferBody reads a whole /v1/infer body into one buffer, sized from
// Content-Length when the client sent one. A body over maxInferBytes is
// an error, however early its first JSON value ends.
func readInferBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxInferBytes {
		// MinRead spare bytes let the final read see EOF without a regrow.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxInferBytes))
	return buf.Bytes(), err
}

// decodeInferRequest decodes a POST /v1/infer body. The common shape
// takes fastInferRequest's single pass; everything else goes through
// encoding/json, so either path yields the request, or the error,
// that encoding/json alone would.
func decodeInferRequest(body []byte) (inferRequest, error) {
	if req, ok := fastInferRequest(body); ok {
		return req, nil
	}
	return jsonInferRequest(body)
}

// jsonInferRequest is the general decoder: encoding/json, rejecting
// unknown fields, bytes after the object, and null pixels. It is also
// the reference the fast path is fuzzed against.
func jsonInferRequest(body []byte) (inferRequest, error) {
	var req inferRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		return inferRequest{}, fmt.Errorf("%w: bad infer request: %v", ehinfer.ErrBadInput, err)
	}
	if nullPixel(body) {
		return inferRequest{}, fmt.Errorf("%w: bad infer request: null pixel value", ehinfer.ErrBadInput)
	}
	return req, nil
}

// nullPixel reports whether a decoded body holds null as an element of
// input or inputs. encoding/json leaves a float32 at zero for null, so
// such a pixel would reach the model as black. Only bodies that spell
// null somewhere pay for the second decode.
func nullPixel(body []byte) bool {
	if !bytes.Contains(body, []byte("null")) {
		return false
	}
	var probe struct {
		Input  []*float32   `json:"input"`
		Inputs [][]*float32 `json:"inputs"`
	}
	_ = json.Unmarshal(body, &probe) // decodes: the same bytes just did
	return slices.Contains(probe.Input, nil) ||
		slices.ContainsFunc(probe.Inputs, func(in []*float32) bool { return slices.Contains(in, nil) })
}

// fastInferRequest decodes the common request shape in one pass over
// body and reports false for anything outside it: one JSON object whose
// keys are inferRequest's exact field names, each at most once; plain
// printable-ASCII strings with no escapes; numbers in strict JSON
// grammar; and only whitespace after the object. Numbers are parsed by
// the strconv calls encoding/json makes for the same Go types, so an
// accepted body decodes bit for bit as encoding/json would decode it.
// Nothing returned refers into body.
func fastInferRequest(body []byte) (inferRequest, bool) {
	var req inferRequest
	p := jsonCursor{b: body}
	p.ws()
	if !p.eat('{') {
		return req, false
	}
	p.ws()
	if !p.eat('}') {
		var seen uint8
		for {
			p.ws()
			key, ok := p.plainString()
			if !ok {
				return req, false
			}
			p.ws()
			if !p.eat(':') {
				return req, false
			}
			p.ws()
			var field uint8
			switch string(key) {
			case "artifact":
				field = 1 << 0
				req.Artifact, ok = p.str()
			case "deployment":
				field = 1 << 1
				req.Deployment, ok = p.str()
			case "backend":
				field = 1 << 2
				req.Backend, ok = p.str()
			case "exit":
				field = 1 << 3
				req.Exit, ok = p.integer()
			case "threshold":
				field = 1 << 4
				req.Threshold, ok = p.float()
			case "input":
				field = 1 << 5
				req.Input, ok = p.floats()
			case "inputs":
				field = 1 << 6
				req.Inputs, ok = p.floatRows()
			default:
				return req, false
			}
			if !ok || seen&field != 0 {
				return req, false
			}
			seen |= field
			p.ws()
			if p.eat('}') {
				break
			}
			if !p.eat(',') {
				return req, false
			}
		}
	}
	p.ws()
	return req, p.i == len(p.b)
}

// jsonCursor walks a JSON text. Its methods consume one token or value
// and report false when the next bytes are not one of the shapes
// fastInferRequest accepts; the position is then meaningless.
type jsonCursor struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (p *jsonCursor) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (p *jsonCursor) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// plainString consumes a string of bytes 0x20–0x7E with no escapes and
// returns its contents, which alias the text.
func (p *jsonCursor) plainString() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// str decodes a plain string into a copy.
func (p *jsonCursor) str() (string, bool) {
	s, ok := p.plainString()
	return string(s), ok
}

// number consumes one number in JSON grammar and returns its bytes.
// The grammar check matters: strconv alone also accepts forms such as
// "+1", ".5", "Inf", "0x1p-2" and "1_0", which JSON does not.
func (p *jsonCursor) number() ([]byte, bool) {
	b, start := p.b, p.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	p.i = i
	return b[start:i], true
}

// skipDigits returns the index of the first byte at or after i that is
// not a decimal digit.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer decodes a JSON integer as encoding/json decodes it into an
// *int: strconv.ParseInt, base 10, 64 bits, then a range check for int.
func (p *jsonCursor) integer() (*int, bool) {
	tok, ok := p.number()
	if !ok || bytes.ContainsAny(tok, ".eE") {
		return nil, false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil || int64(int(n)) != n {
		return nil, false
	}
	v := int(n)
	return &v, true
}

// float decodes a JSON number as encoding/json decodes it into a
// float64.
func (p *jsonCursor) float() (float64, bool) {
	tok, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// floats decodes an array of JSON numbers as encoding/json decodes it
// into a []float32: each element through strconv.ParseFloat at 32 bits,
// and "[]" as an empty, non-nil slice.
func (p *jsonCursor) floats() ([]float32, bool) {
	if !p.eat('[') {
		return nil, false
	}
	// Size the slice once. In an array of numbers the first ']' closes
	// it and commas separate its elements; any other array fails below.
	end := bytes.IndexByte(p.b[p.i:], ']')
	if end < 0 {
		return nil, false
	}
	out := make([]float32, 0, bytes.Count(p.b[p.i:p.i+end], []byte{','})+1)
	p.ws()
	if p.eat(']') {
		return out, true
	}
	for {
		p.ws()
		tok, ok := p.number()
		if !ok {
			return nil, false
		}
		f, err := strconv.ParseFloat(string(tok), 32)
		if err != nil {
			return nil, false
		}
		out = append(out, float32(f))
		p.ws()
		if p.eat(']') {
			return out, true
		}
		if !p.eat(',') {
			return nil, false
		}
	}
}

// floatRows decodes an array of number arrays, "[]" again as an empty,
// non-nil slice.
func (p *jsonCursor) floatRows() ([][]float32, bool) {
	if !p.eat('[') {
		return nil, false
	}
	rows := [][]float32{}
	p.ws()
	if p.eat(']') {
		return rows, true
	}
	for {
		p.ws()
		row, ok := p.floats()
		if !ok {
			return nil, false
		}
		rows = append(rows, row)
		p.ws()
		if p.eat(']') {
			return rows, true
		}
		if !p.eat(',') {
			return nil, false
		}
	}
}
