package serve

import (
	"fmt"

	"factorml/internal/codec"
)

// Binary predict wire format ("FMB1"), negotiated per request via
// Content-Type: application/x-factorml-binary on POST
// /v1/models/{name}/predict. It exists for one reason: at production row
// rates the JSON predict path is dominated by number formatting and
// parsing, not by the factorized math. The binary format is fixed-layout
// little-endian in internal/codec, so encoding is a straight memory walk.
//
// Request (after the shared admission and size checks; every multi-byte
// integer little-endian):
//
//	magic   "FMB1"                       4 bytes
//	type    1 (predict request)          1 byte
//	pad     0 0 0                        3 bytes
//	nRows   uint32
//	factW   uint32  fact features per row
//	nFKs    uint32  foreign keys per row
//	rows    nRows × (factW × float64, nFKs × int64)
//
// Response (status 200; request-level failures keep the JSON error
// envelope with its stable codes, whatever the request encoding):
//
//	magic   "FMB1"
//	type    2 (predict response)         1 byte
//	kind    0 = NN, 1 = GMM              1 byte
//	pad     0 0                          2 bytes
//	nameLen uint16, name bytes
//	version uint32
//	nRows   uint32
//	rows    nRows × row result
//
// Row result: one status byte; 0 = ok followed by the kind's payload
// (NN: float64 output; GMM: float64 log-prob + int32 cluster), 1 = row
// error followed by uint16-length code and uint16-length message (the
// same stable api.Code* values as the JSON predictions carry).
// BinaryContentType selects the binary predict wire format when sent as
// a request's Content-Type; responses to binary requests carry it back.
const BinaryContentType = "application/x-factorml-binary"

const (
	wireMagic        = "FMB1"
	wireTypeRequest  = 1
	wireTypeResponse = 2

	wireKindNN  = 0
	wireKindGMM = 1

	wireRowOK  = 0
	wireRowErr = 1
)

// wireMinRowBytes is the least a response row takes: an error status with
// an empty code and an empty message.
const wireMinRowBytes = 1 + 2 + 2

// AppendBinaryRequest encodes rows as one binary predict request appended
// to dst. All rows must share one shape (that of rows[0]); the format has
// a single per-batch width header. Exported for wire clients (cmd/loadgen
// and tests).
func AppendBinaryRequest(dst []byte, rows []Row) ([]byte, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("serve: binary request needs at least one row")
	}
	factW, nFKs := len(rows[0].Fact), len(rows[0].FKs)
	for i := range rows {
		if len(rows[i].Fact) != factW || len(rows[i].FKs) != nFKs {
			return nil, fmt.Errorf("serve: binary request row %d has shape (%d,%d), batch header says (%d,%d)",
				i, len(rows[i].Fact), len(rows[i].FKs), factW, nFKs)
		}
	}
	dst = append(dst, wireMagic...)
	dst = append(dst, wireTypeRequest, 0, 0, 0)
	dst = codec.AppendU32(dst, uint32(len(rows)))
	dst = codec.AppendU32(dst, uint32(factW))
	dst = codec.AppendU32(dst, uint32(nFKs))
	for i := range rows {
		dst = codec.AppendF64s(dst, rows[i].Fact)
		dst = codec.AppendI64s(dst, rows[i].FKs)
	}
	return dst, nil
}

// readPreamble reads the eight bytes both messages open with — magic,
// message type, one type-specific byte (returned), two zero pad bytes —
// and checks all but the type-specific byte.
func readPreamble(r *codec.Reader, typ byte) (byte, error) {
	magic := r.Bytes("magic", len(wireMagic))
	t, b, pad := r.U8("message type"), r.U8("preamble"), r.U16("padding")
	switch {
	case r.Err() != nil:
		return 0, r.Err()
	case string(magic) != wireMagic:
		return 0, fmt.Errorf("bad magic %q, want %q", magic, wireMagic)
	case t != typ:
		return 0, fmt.Errorf("message type %d, want %d", t, typ)
	case pad != 0:
		return 0, fmt.Errorf("nonzero padding bytes")
	}
	return b, nil
}

// decodeBinaryRequest parses a binary predict request into the pooled
// buffers: bufs.rows alias flat backing arrays (bufs.facts/bufs.fks), so
// a warm steady state decodes without allocating. The row count is
// checked against the body size before a buffer is sized from it, and a
// padded body is rejected.
func decodeBinaryRequest(data []byte, bufs *predictBuffers) error {
	r := codec.NewReader(data)
	pad, err := readPreamble(&r, wireTypeRequest)
	n, factW, nFKs := int(r.U32("row count")), int(r.U32("fact width")), int(r.U32("key count"))
	switch {
	case err != nil:
		return err
	case r.Err() != nil:
		return r.Err()
	case pad != 0:
		return fmt.Errorf("nonzero padding bytes")
	case n == 0:
		return fmt.Errorf("request has no rows")
	case factW+nFKs == 0:
		return fmt.Errorf("request rows are empty (no features, no keys)")
	}
	nRows := r.Count("row", n, 8*(factW+nFKs))
	if err := r.Err(); err != nil {
		return err
	}
	// Count bounded nRows·(factW+nFKs) by the body's size.
	bufs.facts = resized(bufs.facts, nRows*factW)
	bufs.fks = resized(bufs.fks, nRows*nFKs)
	bufs.rows = resized(bufs.rows, nRows)
	for i := range bufs.rows {
		fact := bufs.facts[i*factW : (i+1)*factW]
		fks := bufs.fks[i*nFKs : (i+1)*nFKs]
		r.F64s("row features", fact)
		r.I64s("row keys", fks)
		bufs.rows[i] = Row{Fact: fact, FKs: fks}
	}
	return r.Done()
}

// appendBinaryResponse encodes the predict success response appended to
// dst — the binary twin of appendPredictResponse, carrying the identical
// per-row values and error codes.
func appendBinaryResponse(dst []byte, info ModelInfo, preds []Prediction) []byte {
	dst = append(dst, wireMagic...)
	kind := byte(wireKindGMM)
	if info.Kind == KindNN {
		kind = wireKindNN
	}
	dst = append(dst, wireTypeResponse, kind, 0, 0)
	dst = codec.AppendStr16(dst, info.Name)
	dst = codec.AppendU32(dst, uint32(info.Version))
	dst = codec.AppendU32(dst, uint32(len(preds)))
	for i := range preds {
		p := &preds[i]
		if p.Err != "" {
			dst = append(dst, wireRowErr)
			dst = codec.AppendStr16(dst, p.Code)
			dst = codec.AppendStr16(dst, p.Err)
			continue
		}
		dst = append(dst, wireRowOK)
		if info.Kind == KindNN {
			dst = codec.AppendF64(dst, p.Output)
		} else {
			dst = codec.AppendF64(dst, p.LogProb)
			dst = codec.AppendU32(dst, uint32(int32(p.Cluster)))
		}
	}
	return dst
}

// DecodeBinaryResponse parses a binary predict response. Exported for
// wire clients (cmd/loadgen and the equivalence tests).
func DecodeBinaryResponse(data []byte) (ModelInfo, []Prediction, error) {
	info, preds, err := decodeBinaryResponse(data)
	if err != nil {
		return ModelInfo{}, nil, fmt.Errorf("serve: binary response: %w", err)
	}
	return info, preds, nil
}

func decodeBinaryResponse(data []byte) (info ModelInfo, preds []Prediction, err error) {
	r := codec.NewReader(data)
	kind, err := readPreamble(&r, wireTypeResponse)
	if err != nil {
		return info, nil, err
	}
	switch kind {
	case wireKindNN:
		info.Kind = KindNN
	case wireKindGMM:
		info.Kind = KindGMM
	default:
		return info, nil, fmt.Errorf("unknown model kind %d", kind)
	}
	info.Name = r.Str16("model name")
	info.Version = int(r.U32("model version"))
	preds = make([]Prediction, r.Count("row", int(r.U32("row count")), wireMinRowBytes))
	for i := range preds {
		p := &preds[i]
		switch status := r.U8("row status"); {
		case r.Err() != nil:
		case status == wireRowErr:
			p.Code = r.Str16("row error code")
			// A row is an error exactly when its message is set: an empty one
			// would read back as a zero prediction.
			if p.Err = r.Str16("row error message"); p.Err == "" && r.Err() == nil {
				return info, nil, fmt.Errorf("row %d is an error row with no message", i)
			}
		case status != wireRowOK:
			return info, nil, fmt.Errorf("row %d has unknown status %d", i, status)
		case info.Kind == KindNN:
			p.Output = r.F64("row output")
		default:
			p.LogProb = r.F64("row log-prob")
			p.Cluster = int(int32(r.U32("row cluster")))
		}
	}
	return info, preds, r.Done()
}
