// Package api defines the wire-level conventions of the HTTP surface:
// one structured error envelope with stable machine-readable codes,
// shared by every endpoint of internal/serve and internal/stream.
//
// The surface is split into two planes:
//
//   - the unversioned control plane — /healthz, /readyz, /statsz,
//     /metrics — whose payloads are operational and may evolve, and
//   - the versioned data plane under /v1/ — models, predict, ingest,
//     refresh — whose request/response shapes and error codes are stable
//     within a major version.
//
// Every non-2xx response from any endpoint is the envelope
//
//	{"error": {"code": "model_not_found",
//	           "message": "no model \"foo\"",
//	           "details": {…}}}
//
// Code is from the fixed catalog below and is what clients should branch
// on; Message is human-readable and may change; Details carries optional
// machine-readable context (the offending row index, the limit that
// tripped, …). Responses with status 429 or 503 additionally carry a
// Retry-After header (seconds).
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Stable machine-readable error codes. These are wire contract: clients
// branch on them, so existing values never change meaning.
const (
	// CodeInvalidRequest marks a request the server could not parse or
	// that fails basic shape validation (malformed JSON, unknown fields,
	// an empty batch).
	CodeInvalidRequest = "invalid_request"
	// CodePayloadTooLarge marks a request body over the endpoint's size
	// cap.
	CodePayloadTooLarge = "payload_too_large"
	// CodeMethodNotAllowed marks a known path hit with the wrong verb.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound marks an unknown route on the data plane.
	CodeNotFound = "not_found"
	// CodeModelNotFound marks an operation on an unregistered model name.
	CodeModelNotFound = "model_not_found"
	// CodeModelIncompatible marks a model whose shape cannot be served
	// over this server's dimension hierarchy.
	CodeModelIncompatible = "model_incompatible"
	// CodeRowWidthMismatch marks a prediction row whose fact feature
	// vector has the wrong width for the model.
	CodeRowWidthMismatch = "row_width_mismatch"
	// CodeFKCountMismatch marks a prediction row carrying the wrong
	// number of foreign keys for the schema.
	CodeFKCountMismatch = "fk_count_mismatch"
	// CodeUnknownForeignKey marks a row referencing a key absent from a
	// dimension table.
	CodeUnknownForeignKey = "unknown_foreign_key"
	// CodeNonFiniteFeature marks a prediction row carrying a NaN or ±Inf
	// fact feature, which no model can score.
	CodeNonFiniteFeature = "non_finite_feature"
	// CodePredictOverloaded marks a predict rejected by admission
	// control: the model's in-flight limit was reached before any work
	// was admitted. Safe to retry after the Retry-After hint.
	CodePredictOverloaded = "predict_overloaded"
	// CodeIngestOverloaded marks an ingest rejected by admission control:
	// the bounded ingest queue was full before the batch was read. Safe
	// to retry after the Retry-After hint; nothing was applied.
	CodeIngestOverloaded = "ingest_overloaded"
	// CodeIngestInvalid marks a change batch rejected by validation with
	// no partial effects.
	CodeIngestInvalid = "ingest_invalid"
	// CodeStreamDisabled marks an ingest/refresh against a server booted
	// without a streaming change feed.
	CodeStreamDisabled = "stream_disabled"
	// CodeMonitoringDisabled marks a model-health query against a server
	// booted without the health monitor.
	CodeMonitoringDisabled = "monitoring_disabled"
	// CodeNotReady marks a server still loading its registry at boot.
	CodeNotReady = "not_ready"
	// CodeInternal marks a genuine server-side failure. For ingest the
	// batch may have been partially or fully applied — do not blindly
	// retry.
	CodeInternal = "internal"
)

// Error is the body of the envelope every non-2xx response carries.
type Error struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

// Error implements the error interface so an api.Error can travel as a
// Go error where convenient.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Envelope is the top-level non-2xx response shape.
type Envelope struct {
	Error Error `json:"error"`
}

// WriteJSON writes v as an indented JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes the structured error envelope. Status 429 and 503
// responses carry a Retry-After header of DefaultRetryAfterSeconds so
// clients under admission control know when to come back.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteErrorDetails(w, status, code, nil, format, args...)
}

// WriteErrorDetails is WriteError with an optional details map.
func WriteErrorDetails(w http.ResponseWriter, status int, code string, details map[string]any, format string, args ...any) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(DefaultRetryAfterSeconds))
	}
	WriteJSON(w, status, Envelope{Error: Error{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
		Details: details,
	}})
}

// DefaultRetryAfterSeconds is the Retry-After hint on every 429 and 503
// response.
const DefaultRetryAfterSeconds = 1
