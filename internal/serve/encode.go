package serve

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file holds the append-style predict-response encoder of the
// raw-speed pass: the success path of POST /v1/models/{name}/predict is
// serialized by appending into one pooled byte buffer instead of
// reflecting over freshly-built pointer-field structs with json.Marshal.
// The output is compact JSON with the float formatting of encoding/json
// (the tests decode it with encoding/json into httpPredictResponse);
// non-finite values — which encoding/json cannot represent at all —
// encode as null instead of failing the whole response.

// predictBuffers is the per-request scratch of handlePredict: decoded
// rows (with their flat backing arrays on the binary path), the engine's
// result buffer, the request body and the response bytes. Pooled so a
// steady-state predict request reuses one warm set end to end.
type predictBuffers struct {
	rows  []Row
	preds []Prediction
	facts []float64
	fks   []int64
	body  []byte
	out   []byte
}

var predictBufPool = sync.Pool{New: func() any { return new(predictBuffers) }}

func getPredictBuffers() *predictBuffers  { return predictBufPool.Get().(*predictBuffers) }
func putPredictBuffers(b *predictBuffers) { predictBufPool.Put(b) }

// resized returns s at length n, growing the backing array only when a
// bigger batch than any before arrives.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// appendJSONFloat appends f exactly as encoding/json would ('f' format
// inside [1e-6, 1e21), shortest 'e' format with a trimmed exponent
// outside), so hand-encoded and reflected responses are byte-identical
// for every finite value. NaN and infinities append null.
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Trim the leading zero of a two-digit exponent: e-09 → e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendJSONString appends s as a quoted JSON string, escaping quotes,
// backslashes and control characters (the only inputs here are model
// names and error messages, which are plain text).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for _, r := range s {
		switch {
		case r == '"':
			dst = append(dst, '\\', '"')
		case r == '\\':
			dst = append(dst, '\\', '\\')
		case r == '\n':
			dst = append(dst, '\\', 'n')
		case r == '\r':
			dst = append(dst, '\\', 'r')
		case r == '\t':
			dst = append(dst, '\\', 't')
		case r < 0x20:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[r>>4], hex[r&0xf])
		default:
			dst = utf8.AppendRune(dst, r)
		}
	}
	return append(dst, '"')
}

// appendPredictResponse encodes the predict success envelope into dst and
// returns it: {"model","kind","version","predictions":[…]}, one object
// per row carrying exactly the fields meaningful for the model kind —
// "output" (NN) or "log_prob" and "cluster" (GMM) — or, for a failed row,
// the structured "error" (code, message, details.row) while the rest of
// the batch proceeds.
func appendPredictResponse(dst []byte, info ModelInfo, preds []Prediction) []byte {
	dst = append(dst, `{"model":`...)
	dst = appendJSONString(dst, info.Name)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, string(info.Kind))
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(info.Version), 10)
	dst = append(dst, `,"predictions":[`...)
	for i := range preds {
		if i > 0 {
			dst = append(dst, ',')
		}
		p := &preds[i]
		switch {
		case p.Err != "":
			dst = append(dst, `{"error":{"code":`...)
			dst = appendJSONString(dst, p.Code)
			dst = append(dst, `,"message":`...)
			dst = appendJSONString(dst, p.Err)
			dst = append(dst, `,"details":{"row":`...)
			dst = strconv.AppendInt(dst, int64(i), 10)
			dst = append(dst, `}}}`...)
		case info.Kind == KindNN:
			dst = append(dst, `{"output":`...)
			dst = appendJSONFloat(dst, p.Output)
			dst = append(dst, '}')
		default: // KindGMM
			dst = append(dst, `{"log_prob":`...)
			dst = appendJSONFloat(dst, p.LogProb)
			dst = append(dst, `,"cluster":`...)
			dst = strconv.AppendInt(dst, int64(p.Cluster), 10)
			dst = append(dst, '}')
		}
	}
	return append(dst, `]}`...)
}
