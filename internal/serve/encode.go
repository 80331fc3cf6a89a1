package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/service"
)

// WriteJSON writes v as indented JSON with status code. The body is
// encoded before the header is written, so a value that cannot be
// encoded becomes a structured 500 rather than a 200 with no body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	body, err := EncodeJSON(v)
	if err != nil {
		code = http.StatusInternalServerError
		// An ErrorResponse holding only a string and an int always encodes.
		body, _ = EncodeJSON(ErrorResponse{Error: "encode response: " + err.Error(), Code: code})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

// EncodeJSON returns the body WriteJSON sends for v: v indented by two
// spaces and followed by a newline, byte for byte what json.Encoder
// writes after SetIndent("", "  "). Every JSON body of the serving tier
// is framed by it, the cluster router's included.
//
// A RunResponse takes a fast path: its Result's indented encoding —
// kept on the Result once it is served from the cache — followed by
// the envelope fields, appended without reflection or a re-indent pass.
func EncodeJSON(v any) ([]byte, error) {
	if r, ok := v.(RunResponse); ok {
		return encodeRun(r)
	}
	return encodeIndented(v)
}

func encodeIndented(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// encodeRun encodes a RunResponse. The envelope fields follow the
// Result's promoted fields at the same depth, so the Result's own
// indented encoding is the body up to its closing brace. Only a result
// served from the cache keeps its encoding: a miss or a bypass is
// usually served once, and keeping its bytes would hold heap nobody
// reads again.
func encodeRun(v RunResponse) ([]byte, error) {
	var res, b []byte
	if v.Result != nil {
		if res = v.Result.Encoded(); res == nil {
			var err error
			if res, err = json.MarshalIndent(v.Result, "", "  "); err != nil {
				return nil, err
			}
			if v.Cache == service.CacheHit || v.Cache == service.CacheCoalesced {
				v.Result.KeepEncoded(res)
			} else {
				// Not kept: the envelope extends the encoding in place.
				b = append(res[:len(res)-len("\n}")], ',')
			}
		}
	}
	if b == nil {
		b = make([]byte, 0, len(res)+128+48*len(v.Stages))
		if res == nil {
			b = append(b, '{')
		} else {
			b = append(b, res[:len(res)-len("\n}")]...)
			b = append(b, ',')
		}
	}
	b = append(b, "\n  \"cache\": "...)
	b = appendString(b, v.Cache)
	b = append(b, ",\n  \"serve_ns\": "...)
	b = strconv.AppendInt(b, v.ServeNS, 10)
	b = append(b, ",\n  \"trace_id\": "...)
	b = appendString(b, v.TraceID)
	if len(v.Stages) > 0 {
		keys := make([]string, 0, len(v.Stages))
		for k, ms := range v.Stages {
			if math.IsNaN(ms) || math.IsInf(ms, 0) {
				// Unencodable: the reflective encoder reports the error.
				return encodeIndented(v)
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, ",\n  \"stages\": {"...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = appendString(b, k)
			b = append(b, ": "...)
			b = appendFloat(b, v.Stages[k])
		}
		b = append(b, "\n  }"...)
	}
	return append(b, "\n}\n"...), nil
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json leaves unescaped is copied; anything else (quotes,
// backslashes, the HTML-escaped <, > and &, control bytes, non-ASCII)
// goes through encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json writes a float64:
// the shortest representation, in exponent form below 1e-6 and from
// 1e21 on, with a one-digit negative exponent unpadded (1e-7, not
// 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
