package repro

// The Report wire codec: one append-style encoder and one single-pass
// decoder, both written against the wire format directly (no reflection, no
// intermediate mirror struct), because the serving layer encodes and decodes
// one Report per job and a reflective codec adds a quarter to a served job's
// allocations (measured in doc.go, "Performance").
//
// The format is what encoding/json produced for the struct tags on Report
// when every float was routed through a non-finite-safe wrapper, and both
// directions keep its behaviour to the byte and to the corner case; the
// reflective codec they replaced lives on in report_json_test.go as the
// oracle the fixtures and the fuzz target compare against.

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// MarshalJSON encodes the report in its stable wire form (see the type
// docs: snake_case keys, non-finite floats as strings, detail omitted).
func (r Report) MarshalJSON() ([]byte, error) {
	// Sized once up front, a little high: a float64 prints in at most 24
	// bytes plus its comma, the integers of a typical report in a handful.
	dst := make([]byte, 0, 512+len(r.Engine)+25*(len(r.X)+len(r.Errors))+68*len(r.ErrorTrace)+
		8*(len(r.Boundaries)+len(r.StrictBoundaries)+len(r.Epochs)+len(r.UpdatesPerWorker)))
	dst = append(dst, `{"engine":`...)
	dst = appendJSONString(dst, r.Engine)
	dst = append(dst, `,"x":`...)
	dst = appendJSONFloats(dst, r.X)
	dst = append(dst, `,"converged":`...)
	dst = strconv.AppendBool(dst, r.Converged)
	dst = append(dst, `,"iterations":`...)
	dst = strconv.AppendInt(dst, int64(r.Iterations), 10)
	dst = append(dst, `,"updates":`...)
	dst = strconv.AppendInt(dst, int64(r.Updates), 10)
	dst = append(dst, `,"final_residual":`...)
	dst = appendJSONFloat(dst, r.FinalResidual)
	if r.FinalError != 0 {
		dst = append(dst, `,"final_error":`...)
		dst = appendJSONFloat(dst, r.FinalError)
	}
	if len(r.Errors) > 0 {
		dst = append(dst, `,"errors":`...)
		dst = appendJSONFloats(dst, r.Errors)
	}
	if len(r.ErrorTrace) > 0 {
		dst = append(dst, `,"error_trace":[`...)
		for i, te := range r.ErrorTrace {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"time":`...)
			dst = appendJSONFloat(dst, te.Time)
			dst = append(dst, `,"error":`...)
			dst = appendJSONFloat(dst, te.Error)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = appendJSONIntsField(dst, `,"boundaries":`, r.Boundaries)
	dst = appendJSONIntsField(dst, `,"strict_boundaries":`, r.StrictBoundaries)
	dst = appendJSONIntsField(dst, `,"epochs":`, r.Epochs)
	dst = appendJSONIntsField(dst, `,"updates_per_worker":`, r.UpdatesPerWorker)
	dst = appendJSONInt64Field(dst, `,"messages_sent":`, r.MessagesSent)
	dst = appendJSONInt64Field(dst, `,"messages_dropped":`, r.MessagesDropped)
	dst = appendJSONInt64Field(dst, `,"messages_stale":`, r.MessagesStale)
	dst = appendJSONInt64Field(dst, `,"messages_reordered":`, r.MessagesReordered)
	dst = appendJSONInt64Field(dst, `,"messages_duplicate":`, r.MessagesDuplicate)
	dst = appendJSONInt64Field(dst, `,"bytes_sent":`, r.BytesSent)
	dst = appendJSONInt64Field(dst, `,"bytes_received":`, r.BytesReceived)
	dst = appendJSONInt64Field(dst, `,"workers_lost":`, r.WorkersLost)
	dst = appendJSONInt64Field(dst, `,"workers_rejoined":`, r.WorkersRejoined)
	dst = appendJSONInt64Field(dst, `,"resharding":`, r.Resharding)
	if r.Time != 0 {
		dst = append(dst, `,"time":`...)
		dst = appendJSONFloat(dst, r.Time)
	}
	dst = appendJSONInt64Field(dst, `,"elapsed_ns":`, int64(r.Elapsed))
	return append(dst, '}'), nil
}

// appendJSONFloat appends f the way encoding/json formats a float64 ('f'
// form, 'e' below 1e-6 and from 1e21, exponent without a leading zero),
// with the non-finite values as the strings "Infinity", "-Infinity", "NaN".
func appendJSONFloat(dst []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(dst, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(dst, `"Infinity"`...)
	case math.IsInf(f, -1):
		return append(dst, `"-Infinity"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONFloats appends xs as a JSON array (null for a nil slice).
func appendJSONFloats(dst []byte, xs []float64) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONFloat(dst, v)
	}
	return append(dst, ']')
}

// appendJSONInts appends xs as a JSON array (null for a nil slice).
func appendJSONInts(dst []byte, xs []int) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// appendJSONIntsField appends an omitempty []int member (key carries its
// leading comma and colon).
func appendJSONIntsField(dst []byte, key string, xs []int) []byte {
	if len(xs) == 0 {
		return dst
	}
	return appendJSONInts(append(dst, key...), xs)
}

// appendJSONInt64Field appends an omitempty integer member.
func appendJSONInt64Field(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

// appendJSONString appends s quoted. Anything encoding/json would escape
// (quotes, backslashes, control and non-ASCII bytes, and its HTML-safe set)
// is handed to encoding/json so the escaping is its, byte for byte.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			quoted, _ := json.Marshal(s) // a string never fails to marshal
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// UnmarshalJSON decodes the wire form back into a Report in one pass over
// b. The decoded report carries no engine detail (the typed accessors
// report absence). It accepts exactly what decoding into the tagged struct
// with encoding/json accepted, to the same values: keys match
// case-insensitively, unknown keys are skipped, a repeated key decodes into
// what the earlier occurrence left, null leaves integers, booleans and
// strings alone, zeroes a float and nils a slice. On error *r is untouched.
func (r *Report) UnmarshalJSON(b []byte) error {
	d := jsonReader{data: b}
	var out Report
	if err := d.report(&out); err != nil {
		return err
	}
	if d.peek() != 0 || d.pos != len(b) {
		return d.errorf("data after the top-level value")
	}
	*r = out
	return nil
}

// jsonReader is a cursor over one JSON text. Every method consumes exactly
// the value (or punctuation) it names and rejects what the JSON grammar
// rejects, so a single pass both validates and decodes.
type jsonReader struct {
	data []byte
	pos  int
}

// maxJSONDepth bounds the nesting of skipped (unknown-key) values, as
// encoding/json bounds it.
const maxJSONDepth = 10000

func (d *jsonReader) errorf(format string, args ...any) error {
	return fmt.Errorf("repro: decoding Report JSON at offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// peek skips white space and returns the next byte without consuming it
// (0 at end of input).
func (d *jsonReader) peek() byte {
	if d.pos < len(d.data) && d.data[d.pos] > ' ' {
		return d.data[d.pos] // the common case: compact JSON, nothing to skip
	}
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// literal consumes lit if it is next.
func (d *jsonReader) literal(lit string) bool {
	if end := d.pos + len(lit); end <= len(d.data) && string(d.data[d.pos:end]) == lit {
		d.pos = end
		return true
	}
	return false
}

// null consumes a null if that is the next value.
func (d *jsonReader) null() bool {
	return d.peek() == 'n' && d.literal("null")
}

// open consumes the opening bracket of an array or object, or a null in its
// place.
func (d *jsonReader) open(bracket byte) (null bool, err error) {
	if d.null() {
		return true, nil
	}
	if d.peek() != bracket {
		return false, d.errorf("want %q", bracket)
	}
	d.pos++
	return false, nil
}

// next moves to the next element of the array or member of the object whose
// closing bracket is given: it consumes the separating comma (none before
// the first), or the closing bracket, reporting done.
func (d *jsonReader) next(first bool, closing byte) (done bool, err error) {
	c := d.peek()
	switch {
	case c == closing:
		d.pos++
		return true, nil
	case first:
		return false, nil
	case c == ',':
		d.pos++
		if d.peek() == closing {
			return false, d.errorf("trailing comma")
		}
		return false, nil
	}
	return false, d.errorf("want ',' or %q", closing)
}

// stringToken consumes a string and returns it quotes included, and whether
// it is plain: printable ASCII without escapes, so the bytes between the
// quotes are the value.
func (d *jsonReader) stringToken() (tok []byte, plain bool, err error) {
	if d.peek() != '"' {
		return nil, false, d.errorf("want a string")
	}
	start := d.pos
	plain = true
	for i := start + 1; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:d.pos], plain, nil
		case c == '\\':
			plain = false
			i++
		case c < 0x20:
			d.pos = i
			return nil, false, d.errorf("control character in string")
		case c >= 0x80:
			plain = false
		}
	}
	d.pos = len(d.data)
	return nil, false, d.errorf("unterminated string")
}

// unquote returns the value of a string token: the bytes between the quotes
// when plain, else whatever encoding/json makes of the escapes and of
// invalid UTF-8 (or its error for an escape the grammar does not have).
func (d *jsonReader) unquote(tok []byte, plain bool) (string, error) {
	if plain {
		return string(tok[1 : len(tok)-1]), nil
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return "", d.errorf("%v", err)
	}
	return s, nil
}

// key consumes an object key and its colon and returns the one of names it
// matches, "" for a key that matches none.
func (d *jsonReader) key(names []string) (string, error) {
	tok, plain, err := d.stringToken()
	if err != nil {
		return "", err
	}
	var name string
	if plain {
		name = matchName(names, tok[1:len(tok)-1])
	} else {
		s, err := d.unquote(tok, false)
		if err != nil {
			return "", err
		}
		name = matchName(names, []byte(s))
	}
	if d.peek() != ':' {
		return "", d.errorf("want ':' after object key")
	}
	d.pos++
	return name, nil
}

// matchName matches a key the way encoding/json matches it to a struct
// field: exactly if it can, else case-insensitively.
func matchName(names []string, key []byte) string {
	for _, name := range names {
		if string(key) == name {
			return name
		}
	}
	for _, name := range names {
		if strings.EqualFold(name, string(key)) {
			return name
		}
	}
	return ""
}

// skip consumes one value of any type, validating it; depth counts the
// arrays and objects around it.
func (d *jsonReader) skip(depth int) error {
	switch c := d.peek(); {
	case c == '"':
		tok, plain, err := d.stringToken()
		if err == nil {
			_, err = d.unquote(tok, plain)
		}
		return err
	case c == '{' || c == '[':
		if depth >= maxJSONDepth {
			return d.errorf("exceeded max depth")
		}
		closing := c + 2 // '{'+2 == '}', '['+2 == ']'
		d.pos++
		for first := true; ; first = false {
			done, err := d.next(first, closing)
			if done || err != nil {
				return err
			}
			if c == '{' {
				if _, err := d.key(nil); err != nil {
					return err
				}
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == 't':
		if d.literal("true") {
			return nil
		}
	case c == 'f':
		if d.literal("false") {
			return nil
		}
	case c == 'n':
		if d.literal("null") {
			return nil
		}
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.numberToken()
		return err
	}
	return d.errorf("want a value")
}

// numberToken consumes a number, enforcing the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
func (d *jsonReader) numberToken() ([]byte, error) {
	d.peek()
	data, start := d.data, d.pos
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else if j := skipDigits(data, i); j > i {
		i = j
	} else {
		d.pos = i
		return nil, d.errorf("want a number")
	}
	if i < len(data) && data[i] == '.' {
		j := skipDigits(data, i+1)
		if j == i+1 {
			d.pos = j
			return nil, d.errorf("want digits after the decimal point")
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := skipDigits(data, i)
		if j == i {
			d.pos = j
			return nil, d.errorf("want digits in the exponent")
		}
		i = j
	}
	d.pos = i
	return data[start:i], nil
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// integer decodes an integer member: a number token that is an int64 (no
// fraction, no exponent), or null, which leaves *dst alone.
func (d *jsonReader) integer(dst *int64) error {
	if d.null() {
		return nil
	}
	if d.small(dst) {
		return nil
	}
	tok, err := d.numberToken()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return d.errorf("%s is not an int64", tok)
	}
	*dst = v
	return nil
}

// small consumes the number that is next when it is a plain integer of at
// most 18 digits — which cannot overflow and needs no strconv — and leaves
// anything else (a fraction, an exponent, a leading zero, more digits, no
// digits) unconsumed for the general path.
func (d *jsonReader) small(dst *int64) bool {
	data, i := d.data, d.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start, v := i, int64(0)
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		v = v*10 + int64(data[i]-'0')
		i++
	}
	switch n := i - start; {
	case n == 0 || n > 18 || n > 1 && data[start] == '0':
		return false
	case i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E'):
		return false
	}
	if neg {
		v = -v
	}
	*dst, d.pos = v, i
	return true
}

func (d *jsonReader) int(dst *int) error {
	v := int64(*dst)
	err := d.integer(&v)
	*dst = int(v)
	return err
}

// float decodes a float member: a number, one of the three non-finite
// strings, or null, which zeroes it.
func (d *jsonReader) float(dst *float64) error {
	switch d.peek() {
	case 'n':
		if d.literal("null") {
			*dst = 0
			return nil
		}
	case '"':
		switch {
		case d.literal(`"Infinity"`):
			*dst = math.Inf(1)
		case d.literal(`"-Infinity"`):
			*dst = math.Inf(-1)
		case d.literal(`"NaN"`):
			*dst = math.NaN()
		default:
			return d.errorf(`a string that is not "Infinity", "-Infinity" or "NaN" in place of a number`)
		}
		return nil
	}
	tok, err := d.numberToken()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return d.errorf("%s is not a float64", tok)
	}
	*dst = v
	return nil
}

func (d *jsonReader) bool(dst *bool) error {
	switch d.peek() {
	case 'n':
		if d.literal("null") {
			return nil
		}
	case 't':
		if d.literal("true") {
			*dst = true
			return nil
		}
	case 'f':
		if d.literal("false") {
			*dst = false
			return nil
		}
	}
	return d.errorf("want a boolean")
}

func (d *jsonReader) string(dst *string) error {
	if d.null() {
		return nil
	}
	tok, plain, err := d.stringToken()
	if err != nil {
		return err
	}
	s, err := d.unquote(tok, plain)
	if err != nil {
		return err
	}
	*dst = s
	return nil
}

// slot returns dst with element i addressable, growing it by one as needed.
// Nothing is sized from the input ahead of reading it, so a hostile length
// cannot make the decoder allocate more than append's doubling. Like
// encoding/json, an element beyond the current length that an earlier
// decode into the same slice left behind is exposed as it was, not zeroed
// (only a repeated key can observe that).
func slot[T any](dst []T, i int) []T {
	if i >= cap(dst) {
		var zero T
		dst = append(dst[:cap(dst)], zero)
	}
	if i >= len(dst) {
		dst = dst[:i+1]
	}
	return dst
}

// sliceOf decodes an array (or null, giving nil) into dst, element i into
// dst[i] through elem, and returns the slice cut to the elements read; an
// empty array gives a fresh empty slice.
func sliceOf[T any](d *jsonReader, dst []T, elem func(*jsonReader, *T) error) ([]T, error) {
	null, err := d.open('[')
	if null || err != nil {
		return nil, err
	}
	i := 0
	for ; ; i++ {
		done, err := d.next(i == 0, ']')
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		dst = slot(dst, i)
		if err := elem(d, &dst[i]); err != nil {
			return nil, err
		}
	}
	if i == 0 {
		return []T{}, nil
	}
	return dst[:i], nil
}

// The wire keys of each object, in wire order (the struct tags on Report
// and TimedError).
var (
	reportKeys = []string{
		"engine", "x", "converged", "iterations", "updates", "final_residual",
		"final_error", "errors", "error_trace", "boundaries", "strict_boundaries",
		"epochs", "updates_per_worker", "messages_sent", "messages_dropped",
		"messages_stale", "messages_reordered", "messages_duplicate",
		"bytes_sent", "bytes_received", "workers_lost", "workers_rejoined",
		"resharding", "time", "elapsed_ns",
	}
	timedErrorKeys = []string{"time", "error"}
)

// object walks the members of an object nested depth containers deep (a
// null in its place is a no-op), handing each key that matches one of names
// to member, as that name, with the cursor on its value, and skipping the
// others.
func (d *jsonReader) object(names []string, depth int, member func(name string) error) error {
	null, err := d.open('{')
	if null || err != nil {
		return err
	}
	for first := true; ; first = false {
		done, err := d.next(first, '}')
		if done || err != nil {
			return err
		}
		name, err := d.key(names)
		if err != nil {
			return err
		}
		if name == "" {
			err = d.skip(depth + 1)
		} else {
			err = member(name)
		}
		if err != nil {
			return err
		}
	}
}

func (d *jsonReader) report(r *Report) error {
	return d.object(reportKeys, 0, func(name string) (err error) {
		switch name {
		case "engine":
			err = d.string(&r.Engine)
		case "x":
			r.X, err = sliceOf(d, r.X, (*jsonReader).float)
		case "converged":
			err = d.bool(&r.Converged)
		case "iterations":
			err = d.int(&r.Iterations)
		case "updates":
			err = d.int(&r.Updates)
		case "final_residual":
			err = d.float(&r.FinalResidual)
		case "final_error":
			err = d.float(&r.FinalError)
		case "errors":
			r.Errors, err = sliceOf(d, r.Errors, (*jsonReader).float)
		case "error_trace":
			r.ErrorTrace, err = sliceOf(d, r.ErrorTrace, (*jsonReader).timedError)
		case "boundaries":
			r.Boundaries, err = sliceOf(d, r.Boundaries, (*jsonReader).int)
		case "strict_boundaries":
			r.StrictBoundaries, err = sliceOf(d, r.StrictBoundaries, (*jsonReader).int)
		case "epochs":
			r.Epochs, err = sliceOf(d, r.Epochs, (*jsonReader).int)
		case "updates_per_worker":
			r.UpdatesPerWorker, err = sliceOf(d, r.UpdatesPerWorker, (*jsonReader).int)
		case "messages_sent":
			err = d.integer(&r.MessagesSent)
		case "messages_dropped":
			err = d.integer(&r.MessagesDropped)
		case "messages_stale":
			err = d.integer(&r.MessagesStale)
		case "messages_reordered":
			err = d.integer(&r.MessagesReordered)
		case "messages_duplicate":
			err = d.integer(&r.MessagesDuplicate)
		case "bytes_sent":
			err = d.integer(&r.BytesSent)
		case "bytes_received":
			err = d.integer(&r.BytesReceived)
		case "workers_lost":
			err = d.integer(&r.WorkersLost)
		case "workers_rejoined":
			err = d.integer(&r.WorkersRejoined)
		case "resharding":
			err = d.integer(&r.Resharding)
		case "time":
			err = d.float(&r.Time)
		case "elapsed_ns":
			err = d.integer((*int64)(&r.Elapsed))
		}
		return err
	})
}

func (d *jsonReader) timedError(te *TimedError) error {
	return d.object(timedErrorKeys, 2, func(name string) error {
		if name == "time" {
			return d.float(&te.Time)
		}
		return d.float(&te.Error)
	})
}
