package dataplane

import (
	"net/http"
	"strconv"
	"strings"
)

// hopContext is what one mesh hop tells the next about a request: the
// trace it belongs to, the span of the caller's inbound pass (zero at
// the root), the cluster the caller ran in, and the traffic class. It
// travels in the one X-Slate-Context field, the way B3's single "b3"
// header and W3C's "traceparent" carry a trace in one field, so a hop
// costs net/http one header key, not four.
//
// Wire form, fields in this fixed order, separated by ';':
//
//	<trace>;<parent>;<source>;<class>
//
// trace and parent are lowercase hex without leading zeros; trace is
// never zero. source and class are free-form: '%', ';', the control
// bytes and DEL are written %XX (uppercase hex), and so is a space that
// ends the value, which header parsing would trim; every other byte is
// written as itself. A space inside a class stays as it is, so a class
// the ingress classifier names ("gateway|POST /ingress") reads without
// decoding. A value that is not exactly what formatting some context
// gives is malformed and reads as no context at all.
type hopContext struct {
	trace  uint64
	parent uint64
	source string
	class  string
}

// String returns c's wire form: the one allocation of formatting it.
func (c hopContext) String() string {
	var buf [96]byte
	b := strconv.AppendUint(buf[:0], c.trace, 16)
	b = append(b, ';')
	b = strconv.AppendUint(b, c.parent, 16)
	b = append(b, ';')
	b = appendEscaped(b, c.source, false)
	b = append(b, ';')
	b = appendEscaped(b, c.class, true)
	return string(b)
}

// mustEscape reports whether byte c is written %XX in a free-form field;
// atEnd says c is the last byte of the value.
func mustEscape(c byte, atEnd bool) bool {
	return c < ' ' || c == ';' || c == '%' || c == 0x7f || (c == ' ' && atEnd)
}

const upperHex = "0123456789ABCDEF"

// appendEscaped appends field s; last says s ends the value.
func appendEscaped(b []byte, s string, last bool) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; mustEscape(c, last && i == len(s)-1) {
			b = append(b, '%', upperHex[c>>4], upperHex[c&15])
		} else {
			b = append(b, c)
		}
	}
	return b
}

// readHop reads the context a request carries; ok is false when it
// carries none, or more than one, or a malformed one.
func readHop(h http.Header) (hopContext, bool) {
	if vs := h[HeaderContext]; len(vs) == 1 {
		return parseHop(vs[0])
	}
	return hopContext{}, false
}

// parseHop reads an X-Slate-Context value. A malformed value gives
// ok = false. Fields without escapes are substrings of v, so the common
// case allocates nothing.
//
//slate:hot
func parseHop(v string) (c hopContext, ok bool) {
	trace, rest, ok1 := strings.Cut(v, ";")
	parent, rest, ok2 := strings.Cut(rest, ";")
	source, class, ok3 := strings.Cut(rest, ";")
	if !ok1 || !ok2 || !ok3 {
		return hopContext{}, false
	}
	var okT, okP, okS, okC bool
	c.trace, okT = parseSpanHex(trace)
	c.parent, okP = parseSpanHex(parent)
	c.source, okS = unescape(source, false)
	c.class, okC = unescape(class, true)
	if !okT || !okP || !okS || !okC || c.trace == 0 {
		return hopContext{}, false
	}
	return c, true
}

// parseSpanHex reads 1 to 16 lowercase hex digits without a leading
// zero (a lone "0" is zero), as strconv.AppendUint writes them.
func parseSpanHex(s string) (uint64, bool) {
	if len(s) == 0 || len(s) > 16 || (len(s) > 1 && s[0] == '0') {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		d, ok := hexDigit(s[i], false)
		if !ok {
			return 0, false
		}
		v = v<<4 | uint64(d)
	}
	return v, true
}

// hexDigit is the value of hex digit c: lowercase only, or uppercase
// only when upper is set.
func hexDigit(c byte, upper bool) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case !upper && 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case upper && 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// unescape reads one free-form field; last says it ends the value. A
// field with no escape is returned as it is; one with escapes is
// decoded by the cold path.
func unescape(s string, last bool) (string, bool) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '%' {
			return unescapeSlow(s, last)
		} else if mustEscape(c, last && i == len(s)-1) {
			return "", false
		}
	}
	return s, true
}

// unescapeSlow decodes a field holding %XX escapes. Each escape must
// stand for a byte that formatting escapes at that place.
//
//slate:cold
func unescapeSlow(s string, last bool) (string, bool) {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '%' {
			if mustEscape(c, last && i == len(s)-1) {
				return "", false
			}
			b = append(b, c)
			continue
		}
		if i+2 >= len(s) {
			return "", false
		}
		hi, ok1 := hexDigit(s[i+1], true)
		lo, ok2 := hexDigit(s[i+2], true)
		if c = hi<<4 | lo; !ok1 || !ok2 || !mustEscape(c, last && i+3 == len(s)) {
			return "", false
		}
		b = append(b, c)
		i += 2
	}
	return string(b), true
}

// edgeTrace reads the trace id an edge request brings in
// X-Slate-Trace-Id: hex of any length, either case. An id longer than
// 16 digits keeps its low 64 bits, as B3 does with 128-bit ids. Zero
// means "mint one": an empty, zero or non-hex id.
func edgeTrace(s string) uint64 {
	var v uint64
	for i := 0; i < len(s); i++ {
		d, ok := hexDigit(s[i], false)
		if !ok {
			if d, ok = hexDigit(s[i], true); !ok {
				return 0
			}
		}
		v = v<<4 | uint64(d)
	}
	return v
}
