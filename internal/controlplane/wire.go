package controlplane

// The telemetry report decoder. A MetricsReport (global:/v1/metrics) is
// decoded in one pass by a scanner that knows its schema. The wire is
// encoding/json's, which encodes reports and stays the oracle: the
// decoder accepts exactly what json.Unmarshal accepts and yields a
// reflect.DeepEqual value (FuzzReportCodec). That includes encoding/json's
// less obvious rules: keys match case-insensitively (bytes.EqualFold);
// unknown keys are skipped but still checked for syntax; null leaves a
// field as it was, except that it makes a slice nil; a repeated key
// decodes into the value already there, so a second array overwrites the
// first one's elements in place; an integer field takes only an integer
// literal in range; a string with invalid UTF-8 gets U+FFFD in its place;
// nesting deeper than 10 000 and anything after the value are errors.

import (
	"bytes"
	"math"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/servicelayernetworking/slate/internal/telemetry"
)

// Intern-table bounds: a name longer than internMaxLen, or a new name once
// the table holds internMaxEntries, is decoded into a string of its own,
// so no sequence of bodies grows the table past internMaxEntries names of
// at most internMaxLen bytes.
const (
	internMaxEntries = 4096
	internMaxLen     = 128
)

// internTable hands out one shared string per service, class and cluster
// name, so the windows the global retains across reports share their
// names instead of each report holding a copy. The zero value is ready;
// concurrent handlers share one table.
type internTable struct {
	mu sync.Mutex
	m  map[string]string
}

// str returns b as a string, the table's copy when it holds or can take one.
//
//slate:hot
func (t *internTable) str(b []byte) string {
	if t == nil || len(b) > internMaxLen {
		return string(b) //slate:nolint hotalloc -- not interned: no table, or a name too long to keep
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	return t.addLocked(b)
}

// addLocked interns a name seen for the first time, if the table has
// room. Caller holds t.mu.
//
//slate:cold
func (t *internTable) addLocked(b []byte) string {
	s := string(b)
	if len(t.m) < internMaxEntries {
		if t.m == nil {
			t.m = make(map[string]string)
		}
		t.m[s] = s
	}
	return s
}

// maxWireDepth is encoding/json's nesting limit: a body nesting arrays
// and objects deeper than this is a syntax error there, so it is here.
const maxWireDepth = 10000

// minListCap is the capacity a decoded list starts at: a steady delta
// report carries about seven stats, so most lists take one allocation.
const minListCap = 8

// The members of each wire object, in json.Marshal's order; a decoder's
// switch cases are indices into these. A field added to MetricsReport,
// telemetry.WindowStats or telemetry.MetricKey needs an entry here and a
// case there, or TestReportCodecRoundTrip fails.
var (
	reportFields = fieldNames("cluster", "window_ms", "stats", "delta", "epoch", "removed", "table_version", "leader_epoch")
	statFields   = fieldNames("Key", "Window", "Requests", "RPS", "MeanLatency", "P50", "P99", "EgressBytes")
	keyFields    = fieldNames("Service", "Class", "Cluster")
)

func fieldNames(names ...string) [][]byte {
	out := make([][]byte, len(names))
	for i, n := range names {
		out[i] = []byte(n)
	}
	return out
}

// field returns the index of the member a key names, or -1, matching as
// encoding/json does. It tries want first: keys usually come in order.
func field(key []byte, fields [][]byte, want int) int {
	if want < len(fields) && bytes.EqualFold(key, fields[want]) {
		return want
	}
	for i, f := range fields {
		if bytes.EqualFold(key, f) {
			return i
		}
	}
	return -1
}

// wireError is a body the decoder refuses, at the offset where it stopped.
type wireError struct {
	off  int
	what string
}

func (e *wireError) Error() string {
	return "controlplane: " + e.what + " at offset " + strconv.Itoa(e.off)
}

// wireDecoder scans one body. Names go through names (nil: no interning);
// buf holds the text of a string that has escapes or invalid UTF-8.
type wireDecoder struct {
	data  []byte
	off   int
	depth int
	names *internTable
	buf   []byte
}

// decodeReport decodes a report body into rep as json.Unmarshal would.
//
//slate:hot
func decodeReport(data []byte, rep *MetricsReport, names *internTable) error {
	d := wireDecoder{data: data, names: names}
	d.space()
	if err := d.report(rep); err != nil {
		return err
	}
	return d.end()
}

//slate:cold
func (d *wireDecoder) fail(what string) error { return &wireError{off: d.off, what: what} }

func (d *wireDecoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 past the end (0 is never valid there).
func (d *wireDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// end accepts only whitespace after the top-level value.
func (d *wireDecoder) end() error {
	d.space()
	if d.off != len(d.data) {
		return d.fail("data after the top-level value")
	}
	return nil
}

func (d *wireDecoder) literal(word string) error {
	if len(d.data)-d.off < len(word) || string(d.data[d.off:d.off+len(word)]) != word {
		return d.fail("invalid literal")
	}
	d.off += len(word)
	return nil
}

// open consumes the '{' or '[' at the cursor, reporting whether close
// follows at once (the empty object or array, also consumed).
func (d *wireDecoder) open(close byte) (empty bool, err error) {
	if d.depth++; d.depth > maxWireDepth {
		return false, d.fail("nesting too deep")
	}
	d.off++
	d.space()
	if d.peek() == close {
		d.off++
		d.depth--
		return true, nil
	}
	return false, nil
}

// more consumes the ',' or the close after a member or element,
// reporting whether the object or array ended.
func (d *wireDecoder) more(close byte) (done bool, err error) {
	d.space()
	switch d.peek() {
	case ',':
		d.off++
		d.space()
		return false, nil
	case close:
		d.off++
		d.depth--
		return true, nil
	}
	return false, d.fail("want ',' or the closing bracket")
}

// member reads an object key and its ':', leaving the cursor on the value.
// The key may live in d.buf: match it before decoding the value.
func (d *wireDecoder) member() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.fail("want an object key")
	}
	key, err := d.text()
	if err != nil {
		return nil, err
	}
	d.space()
	if d.peek() != ':' {
		return nil, d.fail("want ':' after an object key")
	}
	d.off++
	d.space()
	return key, nil
}

// text reads the string literal at the cursor and returns its contents,
// unquoted as encoding/json unquotes.
func (d *wireDecoder) text() ([]byte, error) {
	start := d.off + 1
	escaped, wide := false, false
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.off = i + 1
			raw := d.data[start:i]
			if !escaped && (!wide || utf8.Valid(raw)) {
				return raw, nil
			}
			return d.unquote(raw), nil
		case c == '\\':
			escaped = true
			if i++; i == len(d.data) {
				continue // the loop ends: unterminated
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(d.data)-i <= 4 || hex4(d.data[i+1:i+5]) < 0 {
					d.off = i
					return nil, d.fail("invalid \\u escape")
				}
				i += 4
			default:
				d.off = i
				return nil, d.fail("invalid escape")
			}
		case c < ' ':
			d.off = i
			return nil, d.fail("control character in a string")
		case c >= utf8.RuneSelf:
			wide = true
		}
	}
	d.off = len(d.data)
	return nil, d.fail("unterminated string")
}

// hex4 parses four hex digits, or returns -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
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
		r = r*16 + rune(c)
	}
	return r
}

// unquote decodes the escapes of a checked string's contents into d.buf
// and turns invalid UTF-8 into U+FFFD, exactly as encoding/json does
// (an unpaired surrogate escape also becomes U+FFFD).
func (d *wireDecoder) unquote(s []byte) []byte {
	d.buf = d.buf[:0]
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				d.buf = append(d.buf, '\b')
			case 'f':
				d.buf = append(d.buf, '\f')
			case 'n':
				d.buf = append(d.buf, '\n')
			case 'r':
				d.buf = append(d.buf, '\r')
			case 't':
				d.buf = append(d.buf, '\t')
			case 'u':
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if len(s)-r >= 6 && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r+2:])); dec != unicode.ReplacementChar {
							d.buf = utf8.AppendRune(d.buf, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				d.buf = utf8.AppendRune(d.buf, rr)
				continue
			default: // '"', '\\', '/'
				d.buf = append(d.buf, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			d.buf = append(d.buf, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			d.buf = utf8.AppendRune(d.buf, rr)
			r += size
		}
	}
	return d.buf
}

// number reads the number literal at the cursor:
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *wireDecoder) number() ([]byte, error) {
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	if d.peek() == '0' {
		d.off++
	} else if !d.digits() {
		return nil, d.fail("invalid number")
	}
	if d.peek() == '.' {
		d.off++
		if !d.digits() {
			return nil, d.fail("invalid number")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !d.digits() {
			return nil, d.fail("invalid number")
		}
	}
	return d.data[start:d.off], nil
}

// digits passes over a run of decimal digits, reporting whether there was one.
func (d *wireDecoder) digits() bool {
	start := d.off
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		d.off++
	}
	return d.off > start
}

// skip checks and passes over one value of any shape: an unknown member.
func (d *wireDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		if empty, err := d.open('}'); empty || err != nil {
			return err
		}
		for {
			if _, err := d.member(); err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
			if done, err := d.more('}'); done || err != nil {
				return err
			}
		}
	case c == '[':
		if empty, err := d.open(']'); empty || err != nil {
			return err
		}
		for {
			if err := d.skip(); err != nil {
				return err
			}
			if done, err := d.more(']'); done || err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.text()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.fail("want a value")
}

// The scalar decoders below leave the field as it was on null.

func (d *wireDecoder) str(p *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		b, err := d.text()
		if err != nil {
			return err
		}
		*p = d.names.str(b)
		return nil
	}
	return d.fail("want a string")
}

// numeric reads a number field's literal, or null.
func (d *wireDecoder) numeric() (lit []byte, null bool, err error) {
	switch c := d.peek(); {
	case c == 'n':
		return nil, true, d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		lit, err = d.number()
		return lit, false, err
	}
	return nil, false, d.fail("want a number")
}

// digitsValue parses a run of decimal digits, reporting false on any
// other byte or past math.MaxUint64.
func digitsValue(b []byte) (uint64, bool) {
	var u uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		dg := uint64(c - '0')
		if u > (math.MaxUint64-dg)/10 {
			return 0, false
		}
		u = u*10 + dg
	}
	return u, true
}

// int and uint take what strconv.ParseInt and ParseUint take, as
// encoding/json does: digits only, in range, so 1.0 and 1e3 do not
// decode, nor does -0 into a uint.
func (d *wireDecoder) int(p *int64) error {
	lit, null, err := d.numeric()
	if null || err != nil {
		return err
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	u, ok := digitsValue(lit)
	switch {
	case !ok || !neg && u > math.MaxInt64 || neg && u > 1<<63:
		return d.fail("number is not an int64")
	case neg:
		*p = -int64(u)
	default:
		*p = int64(u)
	}
	return nil
}

func (d *wireDecoder) uint(p *uint64) error {
	lit, null, err := d.numeric()
	if null || err != nil {
		return err
	}
	u, ok := digitsValue(lit)
	if !ok {
		return d.fail("number is not a uint64")
	}
	*p = u
	return nil
}

// float rejects what strconv.ParseFloat rejects: a literal out of range.
func (d *wireDecoder) float(p *float64) error {
	lit, null, err := d.numeric()
	if null || err != nil {
		return err
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return d.fail("number is not a float64")
	}
	*p = f
	return nil
}

func (d *wireDecoder) bool(p *bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case 't':
		*p = true
		return d.literal("true") // on an error the value does not matter
	case 'f':
		*p = false
		return d.literal("false")
	}
	return d.fail("want a boolean")
}

// list decodes a JSON array into s, or null into nil, as encoding/json
// decodes into a slice: element i decodes into s[i] as it stands, the
// length grows one element at a time over whatever the backing array
// already holds, and the result is cut to the elements read. An empty
// array is an empty, non-nil slice.
func list[T telemetry.WindowStats | telemetry.MetricKey](d *wireDecoder, s []T) ([]T, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return s, d.fail("want an array")
	}
	empty, err := d.open(']')
	if err != nil {
		return s, err
	}
	if empty {
		return make([]T, 0), nil //slate:nolint hotalloc -- zero length: no allocation, but non-nil as encoding/json leaves it
	}
	for i := 0; ; i++ {
		switch {
		case i == cap(s):
			grown := make([]T, i+1, max(2*i, minListCap)) //slate:nolint hotalloc -- the decoded list is the result; it doubles from minListCap
			copy(grown, s)
			s = grown
		case i == len(s):
			s = s[:i+1]
		}
		switch p := any(&s[i]).(type) {
		case *telemetry.WindowStats:
			err = d.stat(p)
		case *telemetry.MetricKey:
			err = d.metricKey(p)
		}
		if err != nil {
			return s, err
		}
		done, err := d.more(']')
		if err != nil {
			return s, err
		}
		if done {
			return s[:i+1], nil
		}
	}
}

func (d *wireDecoder) report(rep *MetricsReport) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.fail("want a report object")
	}
	if empty, err := d.open('}'); empty || err != nil {
		return err
	}
	for next := 0; ; {
		key, err := d.member()
		if err != nil {
			return err
		}
		i := field(key, reportFields, next)
		switch next = i + 1; i {
		case 0: // cluster
			err = d.str((*string)(&rep.Cluster))
		case 1: // window_ms
			err = d.int(&rep.WindowMS)
		case 2: // stats
			rep.Stats, err = list(d, rep.Stats)
		case 3: // delta
			err = d.bool(&rep.Delta)
		case 4: // epoch
			err = d.uint(&rep.Epoch)
		case 5: // removed
			rep.Removed, err = list(d, rep.Removed)
		case 6: // table_version
			err = d.uint(&rep.TableVersion)
		case 7: // leader_epoch
			err = d.uint(&rep.LeaderEpoch)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
		if done, err := d.more('}'); done || err != nil {
			return err
		}
	}
}

func (d *wireDecoder) stat(ws *telemetry.WindowStats) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.fail("want a stats object")
	}
	if empty, err := d.open('}'); empty || err != nil {
		return err
	}
	for next := 0; ; {
		key, err := d.member()
		if err != nil {
			return err
		}
		i := field(key, statFields, next)
		switch next = i + 1; i {
		case 0: // Key
			err = d.metricKey(&ws.Key)
		case 1: // Window
			err = d.int((*int64)(&ws.Window))
		case 2: // Requests
			err = d.uint(&ws.Requests)
		case 3: // RPS
			err = d.float(&ws.RPS)
		case 4: // MeanLatency
			err = d.int((*int64)(&ws.MeanLatency))
		case 5: // P50
			err = d.int((*int64)(&ws.P50))
		case 6: // P99
			err = d.int((*int64)(&ws.P99))
		case 7: // EgressBytes
			err = d.int(&ws.EgressBytes)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
		if done, err := d.more('}'); done || err != nil {
			return err
		}
	}
}

func (d *wireDecoder) metricKey(k *telemetry.MetricKey) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.fail("want a key object")
	}
	if empty, err := d.open('}'); empty || err != nil {
		return err
	}
	for next := 0; ; {
		key, err := d.member()
		if err != nil {
			return err
		}
		i := field(key, keyFields, next)
		switch next = i + 1; i {
		case 0: // Service
			err = d.str(&k.Service)
		case 1: // Class
			err = d.str(&k.Class)
		case 2: // Cluster
			err = d.str(&k.Cluster)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
		if done, err := d.more('}'); done || err != nil {
			return err
		}
	}
}
