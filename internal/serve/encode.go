package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"unicode/utf8"

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
// A RunResponse takes a fast path with no reflection and no re-indent
// pass: its Result is written by appendResult, or copied from the
// encoding kept on it once it is served from the cache, and the
// envelope fields follow. An AnalyzeResponse is written directly by
// encodeAnalyze.
func EncodeJSON(v any) ([]byte, error) {
	switch r := v.(type) {
	case RunResponse:
		return encodeRun(r)
	case AnalyzeResponse:
		return encodeAnalyze(r)
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
	envelope := 128 + 48*len(v.Stages)
	var b []byte
	if v.Result != nil {
		res := v.Result.Encoded()
		if res == nil && !finiteResult(v.Result) {
			// Unencodable: the reflective encoder reports the error.
			return encodeIndented(v)
		}
		if res == nil && (v.Cache == service.CacheHit || v.Cache == service.CacheCoalesced) {
			res = appendResult(make([]byte, 0, resultSize(v.Result)), v.Result)
			v.Result.KeepEncoded(res)
		}
		if res == nil {
			// Not kept: the envelope extends the encoding in place.
			b = appendResult(make([]byte, 0, resultSize(v.Result)+envelope), v.Result)
		} else {
			b = append(make([]byte, 0, len(res)+envelope), res...)
		}
		b = append(b[:len(b)-len("\n}")], ',')
	} else {
		b = append(make([]byte, 0, envelope), '{')
	}
	b = append(b, "\n  \"cache\": "...)
	b = appendString(b, v.Cache)
	b = append(b, ",\n  \"serve_ns\": "...)
	b = strconv.AppendInt(b, v.ServeNS, 10)
	b = append(b, ",\n  \"trace_id\": "...)
	b = appendString(b, v.TraceID)
	if len(v.Stages) > 0 {
		for _, ms := range v.Stages {
			if !finite(ms) {
				return encodeIndented(v)
			}
		}
		b = append(b, ",\n  \"stages\": "...)
		b = appendFloats(b, v.Stages, "  ")
	}
	return append(b, "\n}\n"...), nil
}

// encodeAnalyze encodes an AnalyzeResponse as json.MarshalIndent(v,
// "", "  ") writes it, plus the newline: the fields in struct order, an
// omitempty field left out when it is empty, a nil Results as null and
// an empty one as []. A response whose items carry a triage block goes
// to encodeIndented whole; the triage itself costs far more than its
// encoding. A field added to AnalyzeResponse, AnalyzeItem or
// AnalysisFinding must be added here too;
// TestAnalyzeEncoderCoversEveryField fails until it is.
func encodeAnalyze(v AnalyzeResponse) ([]byte, error) {
	// The buffer is sized as resultSize sizes a Result's: every string
	// as if it needed no escaping, plus the punctuation and indentation
	// around it. Foundry batches encode to 97–99% of it.
	n := 96
	for i := range v.Results {
		it := &v.Results[i]
		if it.Triage != nil {
			return encodeIndented(v)
		}
		n += 64 + len(it.Name) + len(it.Error)
		for j := range it.Findings {
			f := &it.Findings[j]
			n += 192 + len(f.Plane) + len(f.Severity) + len(f.Code) + len(f.Message) + len(f.Suggestion)
		}
	}
	b := append(make([]byte, 0, n), "{\n  \"results\": "...)
	switch {
	case v.Results == nil:
		b = append(b, "null"...)
	case len(v.Results) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range v.Results {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendAnalyzeItem(b, &v.Results[i])
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"ok\": "...)
	b = strconv.AppendInt(b, int64(v.OK), 10)
	b = append(b, ",\n  \"failed\": "...)
	b = strconv.AppendInt(b, int64(v.Failed), 10)
	b = append(b, ",\n  \"serve_ns\": "...)
	b = strconv.AppendInt(b, v.ServeNS, 10)
	return append(b, "\n}\n"...), nil
}

// appendAnalyzeItem appends one element of an AnalyzeResponse's
// results array, with no triage block.
func appendAnalyzeItem(b []byte, it *AnalyzeItem) []byte {
	b = append(b, "\n    {\n      \"name\": "...)
	b = appendString(b, it.Name)
	b = append(b, ",\n      \"code\": "...)
	b = strconv.AppendInt(b, int64(it.Code), 10)
	if it.Error != "" {
		b = append(b, ",\n      \"error\": "...)
		b = appendString(b, it.Error)
	}
	if len(it.Findings) > 0 {
		b = append(b, ",\n      \"findings\": ["...)
		for j := range it.Findings {
			f := &it.Findings[j]
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n        {\n          \"plane\": "...)
			b = appendString(b, f.Plane)
			if f.Severity != "" {
				b = append(b, ",\n          \"severity\": "...)
				b = appendString(b, f.Severity)
			}
			if f.Code != "" {
				b = append(b, ",\n          \"code\": "...)
				b = appendString(b, f.Code)
			}
			b = append(b, ",\n          \"line\": "...)
			b = strconv.AppendInt(b, int64(f.Line), 10)
			b = append(b, ",\n          \"col\": "...)
			b = strconv.AppendInt(b, int64(f.Col), 10)
			b = append(b, ",\n          \"message\": "...)
			b = appendString(b, f.Message)
			if f.Suggestion != "" {
				b = append(b, ",\n          \"suggestion\": "...)
				b = appendString(b, f.Suggestion)
			}
			b = append(b, "\n        }"...)
		}
		b = append(b, "\n      ]"...)
	}
	return append(b, "\n    }"...)
}

// appendResult appends r as json.MarshalIndent(r, "", "  ") writes it:
// the fields in struct order, an omitempty field left out when it is
// empty, a nil slice as null and an empty one as [], map keys sorted.
// Every float in r must be finite (finiteResult). A field added to
// service.Result or report.TableData must be added here too;
// TestResultEncoderCoversEveryField fails until it is.
func appendResult(b []byte, r *service.Result) []byte {
	b = append(b, "{\n  \"key\": "...)
	b = appendString(b, r.Key)
	b = append(b, ",\n  \"kind\": "...)
	b = appendString(b, r.Kind)
	b = append(b, ",\n  \"id\": "...)
	b = appendString(b, r.ID)
	if r.Defense != "" {
		b = append(b, ",\n  \"defense\": "...)
		b = appendString(b, r.Defense)
	}
	if r.Model != "" {
		b = append(b, ",\n  \"model\": "...)
		b = appendString(b, r.Model)
	}
	if r.Seed != 0 {
		b = append(b, ",\n  \"seed\": "...)
		b = strconv.AppendInt(b, r.Seed, 10)
	}
	if r.ChaosProb != 0 {
		b = append(b, ",\n  \"chaos_prob\": "...)
		b = appendFloat(b, r.ChaosProb)
	}
	if r.Faults != "" {
		b = append(b, ",\n  \"faults\": "...)
		b = appendString(b, r.Faults)
	}
	if r.Repeat != 0 {
		b = append(b, ",\n  \"repeat\": "...)
		b = strconv.AppendInt(b, int64(r.Repeat), 10)
	}
	b = append(b, ",\n  \"status\": "...)
	b = appendString(b, r.Status)
	b = append(b, ",\n  \"table\": {\n    \"title\": "...)
	b = appendString(b, r.Table.Title)
	b = append(b, ",\n    \"headers\": "...)
	b = appendStrings(b, r.Table.Headers, "    ")
	b = append(b, ",\n    \"rows\": "...)
	switch rows := r.Table.Rows; {
	case rows == nil:
		b = append(b, "null"...)
	case len(rows) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i, row := range rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n      "...)
			b = appendStrings(b, row, "      ")
		}
		b = append(b, "\n    ]"...)
	}
	b = append(b, "\n  }"...)
	if len(r.Details) > 0 {
		b = append(b, ",\n  \"details\": "...)
		b = appendStrings(b, r.Details, "  ")
	}
	if len(r.Metrics) > 0 {
		b = append(b, ",\n  \"metrics\": "...)
		b = appendFloats(b, r.Metrics, "  ")
	}
	if r.InjectedFaults != 0 {
		b = append(b, ",\n  \"injected_faults\": "...)
		b = strconv.AppendInt(b, int64(r.InjectedFaults), 10)
	}
	b = append(b, ",\n  \"compute_ns\": "...)
	b = strconv.AppendInt(b, r.ComputeNS, 10)
	b = append(b, ",\n  \"code_version\": "...)
	b = appendString(b, r.Version)
	return append(b, "\n}"...)
}

// resultSize estimates the length of r's encoding, to size its buffer:
// every string as if it needed no escaping, plus the punctuation and
// indentation around it. Results of the matrix encode to 95–100% of it.
func resultSize(r *service.Result) int {
	n := 256 + len(r.Key) + len(r.Kind) + len(r.ID) + len(r.Defense) + len(r.Model) +
		len(r.Faults) + len(r.Status) + len(r.Table.Title) + len(r.Version)
	for _, h := range r.Table.Headers {
		n += len(h) + 10
	}
	for _, row := range r.Table.Rows {
		n += 16
		for _, c := range row {
			n += len(c) + 12
		}
	}
	for _, d := range r.Details {
		n += len(d) + 8
	}
	for k := range r.Metrics {
		n += len(k) + 16
	}
	return n
}

// finiteResult reports whether encoding/json can encode r: the only
// values of a Result it refuses are NaN and infinite floats.
func finiteResult(r *service.Result) bool {
	if !finite(r.ChaosProb) {
		return false
	}
	for _, v := range r.Metrics {
		if !finite(v) {
			return false
		}
	}
	return true
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendStrings appends ss as an indented JSON array whose closing
// bracket sits at indent.
func appendStrings(b []byte, ss []string, indent string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	if len(ss) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		b = append(b, indent...)
		b = append(b, "  "...)
		b = appendString(b, s)
	}
	b = append(b, '\n')
	b = append(b, indent...)
	return append(b, ']')
}

// appendFloats appends a non-empty map of finite floats as an indented
// JSON object with sorted keys whose closing brace sits at indent.
func appendFloats(b []byte, m map[string]float64, indent string) []byte {
	var kbuf [16]string // more keys than any Result or stage map has
	keys := kbuf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '\n')
		b = append(b, indent...)
		b = append(b, "  "...)
		b = appendString(b, k)
		b = append(b, ": "...)
		b = appendFloat(b, m[k])
	}
	b = append(b, '\n')
	b = append(b, indent...)
	return append(b, '}')
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json leaves unescaped is copied, and so is valid UTF-8 other
// than U+2028 and U+2029; anything else (quotes, backslashes, the
// HTML-escaped <, > and &, control bytes, invalid UTF-8 and those two
// separators) goes through encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return appendMarshaled(b, s)
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
			return appendMarshaled(b, s)
		}
		i += n
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendMarshaled appends s as encoding/json writes it.
func appendMarshaled(b []byte, s string) []byte {
	q, _ := json.Marshal(s) // a string always encodes
	return append(b, q...)
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
