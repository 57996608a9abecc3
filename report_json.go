package repro

// The Report wire codec. The encoder is append-style and written against
// the wire format directly (no reflection), because the server encodes one
// Report per job and a reflective encoder adds a quarter to a served job's
// allocations (measured in doc.go, "Performance"). The decoder, which only
// clients run, is encoding/json over a mirror struct whose floats read the
// non-finite strings.
//
// The format is what encoding/json produced for the struct tags on Report
// when every float was routed through a non-finite-safe wrapper, and both
// directions keep its behaviour to the byte and to the corner case; that
// reflective codec lives on in report_json_test.go as the oracle the
// fixtures and the fuzz target compare against.

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// MarshalJSON encodes the report in its stable wire form (see the type
// docs: snake_case keys, non-finite floats as strings, detail omitted).
func (r Report) MarshalJSON() ([]byte, error) {
	// Sized once up front, a little high: a float64 prints in at most 24
	// bytes plus its comma, the integers of a typical report in a handful.
	dst := make([]byte, 0, 512+len(r.Engine)+25*(len(r.X)+len(r.Errors))+68*len(r.ErrorTrace)+
		8*(len(r.Boundaries)+len(r.StrictBoundaries)+len(r.Epochs)+len(r.UpdatesPerWorker))+180*len(r.PerWorker))
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
	if len(r.PerWorker) > 0 {
		dst = append(dst, `,"per_worker":[`...)
		for _, s := range r.PerWorker {
			for k, v := range [...]int64{int64(s.Elapsed), int64(s.Compute), int64(s.Publish), int64(s.Drain), int64(s.Parked), s.Accounts} {
				dst = strconv.AppendInt(append(dst, statsKeys[k]...), v, 10)
			}
			dst = append(dst, "},"...)
		}
		dst[len(dst)-1] = ']'
	}
	return append(dst, '}'), nil
}

// statsKeys are WorkerStats' members in field order, punctuation first.
var statsKeys = [...]string{`{"elapsed_ns":`, `,"compute_ns":`, `,"publish_ns":`, `,"drain_ns":`, `,"parked_ns":`, `,"accounts":`}

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

// UnmarshalJSON decodes the wire form back into a Report. The decoded
// report carries no engine detail (the typed accessors report absence). It
// is encoding/json over reportWire, so it accepts what decoding into the
// tagged struct accepts, to the same values: keys match case-insensitively,
// unknown keys are skipped, a repeated key decodes into what the earlier
// occurrence left, null leaves integers, booleans and strings alone, zeroes
// a float and nils a slice. On error *r is untouched.
func (r *Report) UnmarshalJSON(b []byte) error {
	var w reportWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	out := Report(w.plainReport)
	out.X, out.Errors = wireFloats(w.X), wireFloats(w.Errors)
	out.FinalResidual, out.FinalError, out.Time = float64(w.FinalResidual), float64(w.FinalError), float64(w.Time)
	if w.ErrorTrace != nil {
		out.ErrorTrace = make([]TimedError, len(w.ErrorTrace))
		for i, te := range w.ErrorTrace {
			out.ErrorTrace[i] = TimedError{Time: float64(te.Time), Error: float64(te.Error)}
		}
	}
	*r = out
	return nil
}

// plainReport is Report without its methods, so that decoding into it takes
// the struct tags instead of calling Report.UnmarshalJSON again.
type plainReport Report

// reportWire is the decoding mirror of Report: the integer, boolean and
// string members land in the embedded plainReport, and every float member
// is shadowed by a field of the same key at the shallower depth (which
// encoding/json prefers) that reads the non-finite strings.
type reportWire struct {
	plainReport
	X             []wireFloat `json:"x"`
	FinalResidual wireFloat   `json:"final_residual"`
	FinalError    wireFloat   `json:"final_error"`
	Errors        []wireFloat `json:"errors"`
	ErrorTrace    []struct {
		Time  wireFloat `json:"time"`
		Error wireFloat `json:"error"`
	} `json:"error_trace"`
	Time wireFloat `json:"time"`
}

// wireFloat decodes a float member: a number, one of the strings
// "Infinity", "-Infinity" and "NaN", or null, which zeroes it.
type wireFloat float64

func (f *wireFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "null":
		*f = 0
	case `"Infinity"`:
		*f = wireFloat(math.Inf(1))
	case `"-Infinity"`:
		*f = wireFloat(math.Inf(-1))
	case `"NaN"`:
		*f = wireFloat(math.NaN())
	default:
		// b is one well-formed JSON value: ParseFloat takes every JSON number
		// and nothing else JSON can spell (strings keep their quotes).
		v, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			return fmt.Errorf("repro: decoding Report JSON: %s is not a float64", b)
		}
		*f = wireFloat(v)
	}
	return nil
}

// wireFloats copies a decoded float array (nil stays nil, empty stays
// empty).
func wireFloats(xs []wireFloat) []float64 {
	if xs == nil {
		return nil
	}
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = float64(v)
	}
	return out
}
