package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"unicode/utf8"
)

// An ingest body is decoded in one pass when it has the canonical form
// every client sends, {"rows":[[string,...],...]}, and by encoding/json
// otherwise. The one-pass decoder accepts only bodies on which it and
// encoding/json cannot disagree, so encoding/json stays the reference
// semantics: what it accepts, rejects and reports is what the endpoint
// accepts, rejects and reports.

// decodeIngestBody reads an ingest request body, at most maxIngestBody
// bytes, and returns its rows. The body is read once, into a buffer
// presized from contentLength (negative when unknown; see readBody).
// If it was read whole and decodeRows recognizes it, that is the
// answer. Otherwise encoding/json decodes the bytes read followed by
// whatever the reader still holds: the same byte stream, and so the
// same result and the same error, as decoding the reader directly.
func decodeIngestBody(body io.ReadCloser, contentLength int64) ([][]string, error) {
	mbr := http.MaxBytesReader(nil, body, maxIngestBody)
	buf, err := readBody(mbr, contentLength)
	if err == nil {
		if rows, ok := decodeRows(buf); ok {
			return rows, nil
		}
	}
	var req ingestRequest
	if err := json.NewDecoder(io.MultiReader(bytes.NewReader(buf), mbr)).Decode(&req); err != nil {
		return nil, err
	}
	return req.Rows, nil
}

// maxIngestPresize bounds the buffer readBody allocates on a body's
// Content-Length alone, before any of it has arrived: a client that
// declares 32 MiB and sends nothing costs 1 MiB. Real batches are far
// smaller (100 perfbench rows are 54 KB); a larger body grows the
// buffer as it arrives.
const maxIngestPresize = 1 << 20

// readBody reads r to EOF into one buffer of size+1 bytes when size is
// known (up to maxIngestPresize), so a body that matches its
// Content-Length is read without growing it. It returns what was read
// and the first error other than io.EOF.
func readBody(r io.Reader, size int64) ([]byte, error) {
	n := int64(512)
	if size >= 0 {
		n = min(size, maxIngestPresize) + 1
	}
	buf := make([]byte, 0, n)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeRows decodes body if it is exactly {"rows":[[string,...],...]}
// with JSON whitespace anywhere, the one key spelled "rows", strings
// free of escapes and control bytes, the whole body valid UTF-8, and
// nothing but whitespace after the closing brace. It reports false for
// anything else, leaving it to encoding/json: case-folded, duplicate or
// unknown keys, nulls, escapes, other value types, invalid UTF-8 and
// trailing data. On a body it accepts, the rows equal what
// json.Unmarshal gives (empty arrays as empty, non-nil slices).
//
// Every field is a substring of one string copy of body, and the field
// and row slices are presized from counts of '"' and '[', so a body
// costs three allocations whatever its length. A caller that keeps a
// field must copy it or hold the whole body; dataset.Dictionary.Union
// copies every label it registers.
func decodeRows(body []byte) ([][]string, bool) {
	if !utf8.Valid(body) {
		return nil, false
	}
	s := string(body)
	// Each field takes two quotes and the key two more; each row one
	// '[' and the rows array one more.
	fields := make([]string, 0, max(strings.Count(s, `"`)/2-1, 0))
	rows := make([][]string, 0, max(strings.Count(s, "[")-1, 0))
	p := rowsParser{s: s}
	if !p.token('{') || !p.key() || !p.token(':') || !p.token('[') {
		return nil, false
	}
	if !p.token(']') {
		for {
			if !p.token('[') {
				return nil, false
			}
			start := len(fields)
			if !p.token(']') {
				for {
					f, ok := p.str()
					if !ok {
						return nil, false
					}
					fields = append(fields, f)
					if p.token(']') {
						break
					}
					if !p.token(',') {
						return nil, false
					}
				}
			}
			rows = append(rows, fields[start:len(fields):len(fields)])
			if p.token(']') {
				break
			}
			if !p.token(',') {
				return nil, false
			}
		}
	}
	if !p.token('}') {
		return nil, false
	}
	p.space()
	return rows, p.i == len(s)
}

// rowsParser is decodeRows' cursor over the body.
type rowsParser struct {
	s string
	i int
}

// space skips JSON whitespace.
func (p *rowsParser) space() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// token skips whitespace and then consumes c if it comes next.
func (p *rowsParser) token(c byte) bool {
	p.space()
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key consumes the object key "rows", spelled exactly so.
func (p *rowsParser) key() bool {
	const k = `"rows"`
	p.space()
	if strings.HasPrefix(p.s[p.i:], k) {
		p.i += len(k)
		return true
	}
	return false
}

// str consumes a string with no escape and no control byte and returns
// its contents as a substring of the body.
func (p *rowsParser) str() (string, bool) {
	if !p.token('"') {
		return "", false
	}
	for j := p.i; j < len(p.s); j++ {
		switch c := p.s[j]; {
		case c == '"':
			f := p.s[p.i:j]
			p.i = j + 1
			return f, true
		case c == '\\' || c < 0x20:
			return "", false
		}
	}
	return "", false
}
