package server

// Request bodies: one pooled read, then one of two decoders chosen by the
// bytes themselves. POST /v1/reference is consulted on every query
// submission, and its body is almost always the same flat object, so a
// hand-written scanner decodes that shape in one pass; anything it is not
// certain about goes, unchanged, to encoding/json with strict field
// checking. The scanner never guesses: where it accepts, encoding/json
// accepts the same bytes and produces an equal ReferenceRequest
// (FuzzDecodeReference holds it to that).

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// maxBodyBytes bounds request bodies; retrieved-set payloads travel in the
// reference body, so the bound is generous. A variable only so tests can
// lower it.
var maxBodyBytes int64 = 64 << 20

// maxPooledBody is the largest body buffer returned to the pool: one
// payload-carrying request must not pin megabytes per idle buffer.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads the request body, capped at maxBodyBytes, into a pooled
// buffer. The caller hands the buffer back with releaseBody once nothing
// references its bytes; both decoders copy every string they keep.
func readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		releaseBody(buf)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", tooLarge.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		return nil, false
	}
	return buf, true
}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// decodeStrict parses body as exactly one JSON value into v, rejecting
// unknown fields and anything but blanks after the value.
func decodeStrict(w http.ResponseWriter, body []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	if i := skipBlank(body, int(dec.InputOffset())); i < len(body) {
		writeError(w, http.StatusBadRequest,
			"bad request body: invalid character %q after top-level value", body[i])
		return false
	}
	return true
}

// decodeBody parses a JSON body with a size cap and strict field checking.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	buf, ok := readBody(w, r)
	if !ok {
		return false
	}
	defer releaseBody(buf)
	return decodeStrict(w, buf.Bytes(), v)
}

// decodeReference parses a POST /v1/reference body: the flat scanner where
// it accepts, the strict generic decoder over the same bytes where it
// declines.
func decodeReference(w http.ResponseWriter, r *http.Request) (ReferenceRequest, bool) {
	buf, ok := readBody(w, r)
	if !ok {
		return ReferenceRequest{}, false
	}
	defer releaseBody(buf)
	var req ReferenceRequest
	if scanReference(buf.Bytes(), &req) {
		return req, true
	}
	// A fresh value: the declined scan may have filled some of req's fields,
	// and only this one has to escape to the heap.
	var generic ReferenceRequest
	ok = decodeStrict(w, buf.Bytes(), &generic)
	return generic, ok
}

// Fields a flat reference body may carry, as bits for duplicate detection.
const (
	sawQueryID = 1 << iota
	sawTime
	sawClass
	sawSize
	sawCost
	sawRelations
)

// scanReference decodes the flat form of a ReferenceRequest — an object
// whose keys are exactly query_id, time, class, size, cost and relations,
// each at most once — and reports false ("declined") for everything else,
// valid or not: payload or plan, a key that is not a byte-for-byte match
// (encoding/json folds case and unescapes keys), a duplicate key, null, a
// surrogate escape, invalid UTF-8, an integer field not written as a plain
// integer, a number out of range, or non-blank bytes after the closing
// brace. Every string it returns is a fresh copy; none aliases b.
//
//watchman:hotpath
func scanReference(b []byte, req *ReferenceRequest) bool {
	i := skipBlank(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipBlank(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipBlank(b, i+1) == len(b)
	}
	var seen, field uint
	for {
		if i == len(b) || b[i] != '"' {
			return false
		}
		n := bytes.IndexByte(b[i+1:], '"')
		if n < 0 {
			return false
		}
		key := b[i+1 : i+1+n]
		i = skipBlank(b, i+n+2)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipBlank(b, i+1)
		ok := false
		switch {
		case string(key) == "query_id":
			field = sawQueryID
			req.QueryID, i, ok = scanString(b, i)
		case string(key) == "time":
			field = sawTime
			req.Time, i, ok = scanFloat(b, i)
		case string(key) == "class":
			field = sawClass
			var class int64
			class, i, ok = scanInt(b, i)
			req.Class = int(class)
			ok = ok && int64(req.Class) == class // int is 32 bits on some platforms
		case string(key) == "size":
			field = sawSize
			req.Size, i, ok = scanInt(b, i)
		case string(key) == "cost":
			field = sawCost
			req.Cost, i, ok = scanFloat(b, i)
		case string(key) == "relations":
			field = sawRelations
			req.Relations, i, ok = scanStrings(b, i)
		}
		if !ok || seen&field != 0 {
			return false
		}
		seen |= field
		i = skipBlank(b, i)
		if i == len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipBlank(b, i+1)
		case '}':
			return skipBlank(b, i+1) == len(b)
		default:
			return false
		}
	}
}

// skipBlank returns the index of the first byte of b at or after i that is
// not JSON whitespace, len(b) when there is none.
//
//watchman:hotpath
func skipBlank(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString decodes the JSON string starting at b[i] and returns it with
// the index just past its closing quote.
//
//watchman:hotpath
func scanString(b []byte, i int) (string, int, bool) {
	if i == len(b) || b[i] != '"' {
		return "", i, false
	}
	start := i + 1
	for i = start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			//lint:ignore hotpathalloc the copy is the request's own string; the body buffer returns to the pool
			return string(b[start:i]), i + 1, true
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return scanEscapedString(b, start, i)
		}
	}
	return "", i, false
}

// scanEscapedString finishes scanString for a string that needs more than
// a copy: b[start:i] is plain ASCII and b[i] is an escape, a control byte
// or the start of a multi-byte rune. The text is assembled on the stack
// (IDs past 256 bytes spill to the heap through append) and copied out
// once.
//
//watchman:hotpath
func scanEscapedString(b []byte, start, i int) (string, int, bool) {
	var stack [256]byte
	//lint:ignore hotpathalloc fills the stack array; growth is the > 256 B fallback
	out := append(stack[:0], b[start:i]...)
	for i < len(b) {
		c := b[i]
		switch {
		case c == '"':
			//lint:ignore hotpathalloc the copy is the request's own string; out lives on this frame
			return string(out), i + 1, true
		case c < ' ':
			return "", i, false
		case c == '\\':
			if i+1 == len(b) {
				return "", i, false
			}
			i += 2
			switch c = b[i-1]; c {
			case '"', '\\', '/':
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			case 'u':
				r, ok := hex4(b, i)
				// Surrogates (paired or not) are encoding/json's business.
				if !ok || (0xD800 <= r && r < 0xE000) {
					return "", i, false
				}
				//lint:ignore hotpathalloc fills the stack array; growth is the > 256 B fallback
				out = utf8.AppendRune(out, r)
				i += 4
				continue
			default:
				return "", i, false
			}
			//lint:ignore hotpathalloc fills the stack array; growth is the > 256 B fallback
			out = append(out, c)
		case c < utf8.RuneSelf:
			//lint:ignore hotpathalloc fills the stack array; growth is the > 256 B fallback
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return "", i, false // encoding/json would substitute U+FFFD
			}
			//lint:ignore hotpathalloc fills the stack array; growth is the > 256 B fallback
			out = append(out, b[i:i+size]...)
			i += size
		}
	}
	return "", i, false
}

// hex4 decodes the four hex digits of a \uXXXX escape at b[i:i+4].
//
//watchman:hotpath
func hex4(b []byte, i int) (rune, bool) {
	if i+4 > len(b) {
		return 0, false
	}
	var r rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// skipDigits returns the index of the first non-digit of b at or after i.
//
//watchman:hotpath
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// scanInt decodes a JSON number written as a plain integer — optional
// minus, no leading zero, no fraction or exponent — that fits an int64.
// The caller rejects whatever follows the digits unless it ends the value,
// which is what turns "1.0", "1e3" and "01" into declines.
//
//watchman:hotpath
func scanInt(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if u > (1<<63)/10 {
			return 0, i, false
		}
		u = u*10 + uint64(b[i]-'0') // < 2^64: no wrap
	}
	switch {
	case i == start, b[start] == '0' && i > start+1:
		return 0, i, false
	case neg:
		return -int64(u), i, u <= 1<<63 // -int64(1<<63) wraps to MinInt64
	default:
		return int64(u), i, u < 1<<63
	}
}

// scanFloat decodes a JSON number: the grammar is checked here (strconv
// alone would also take "1_0", "0x1p3" or "Inf"), the value comes from
// strconv.ParseFloat as it does in encoding/json, and an out-of-range
// literal declines.
//
//watchman:hotpath
func scanFloat(b []byte, i int) (float64, int, bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return 0, i, false
	}
	if i < len(b) && b[i] == '.' {
		frac := i + 1
		if i = skipDigits(b, frac); i == frac {
			return 0, i, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		exp := i
		if i = skipDigits(b, exp); i == exp {
			return 0, i, false
		}
	}
	//lint:ignore hotpathalloc ParseFloat does not retain its argument, so the conversion stays on the stack for literals up to 32 bytes
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, i, err == nil
}

// maxPresizedStrings caps the capacity scanStrings reserves from a comma
// count it has not verified yet.
const maxPresizedStrings = 16

// scanStrings decodes a JSON array of strings. "[]" yields an empty,
// non-nil slice, as encoding/json does.
//
//watchman:hotpath
func scanStrings(b []byte, i int) ([]string, int, bool) {
	if i == len(b) || b[i] != '[' {
		return nil, i, false
	}
	i = skipBlank(b, i+1)
	if i < len(b) && b[i] == ']' {
		//lint:ignore hotpathalloc zero-length, so nothing is allocated; non-nil as encoding/json leaves it
		return make([]string, 0), i + 1, true
	}
	n := 1
	for _, c := range b[i:] {
		if c == ']' {
			break
		}
		if c == ',' {
			n++
		}
	}
	//lint:ignore hotpathalloc the slice is the request's own; sized once from the comma count
	out := make([]string, 0, min(n, maxPresizedStrings))
	for {
		var s string
		var ok bool
		if s, i, ok = scanString(b, i); !ok {
			return nil, i, false
		}
		//lint:ignore hotpathalloc appends into the capacity reserved above; growth needs > 16 names or a ']' inside one
		out = append(out, s)
		i = skipBlank(b, i)
		if i == len(b) {
			return nil, i, false
		}
		switch b[i] {
		case ',':
			i = skipBlank(b, i+1)
		case ']':
			return out, i + 1, true
		default:
			return nil, i, false
		}
	}
}
