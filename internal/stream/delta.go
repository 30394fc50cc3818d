package stream

import (
	"errors"
	"fmt"
	"math"
)

// FactRow is one new fact tuple in a change batch: the tuple's own
// features plus one foreign key per dimension table (in join order).
// Target is stored only when the fact table carries a target column.
type FactRow struct {
	SID      int64     `json:"sid"`
	FKs      []int64   `json:"fks"`
	Features []float64 `json:"features"`
	Target   float64   `json:"target,omitempty"`
}

// DimUpdate is one dimension-table change in a batch: an insert when RID
// is new in the table, an in-place update of the tuple's payload when it
// exists. FKs carries the tuple's sub-dimension foreign keys when the
// table sits mid-level in a snowflake hierarchy (one key per recorded
// reference, empty for a leaf table); an update may repoint them. Updates
// reach the serving caches immediately (exactly the entries derived from
// the tuple are invalidated, at every hierarchy position referencing the
// table) and mark incremental GMM statistics for a rebuild on the next
// refresh.
type DimUpdate struct {
	Table    string    `json:"table"`
	RID      int64     `json:"rid"`
	FKs      []int64   `json:"fks,omitempty"`
	Features []float64 `json:"features"`
}

// Batch is one atomic change-feed entry. The whole batch is validated
// before anything is applied: a bad row rejects the batch without partial
// effects. Dimension changes apply before fact rows, so a fact row may
// reference a dimension tuple inserted by the same batch.
type Batch struct {
	Facts []FactRow   `json:"facts,omitempty"`
	Dims  []DimUpdate `json:"dims,omitempty"`
}

// ValidationError marks a batch that was rejected up front: nothing was
// applied. Any other error from Ingest is a server-side failure that may
// have occurred after rows were applied (storage I/O, a triggered
// refresh) — retrying the same batch may duplicate rows.
type ValidationError struct{ msg string }

func (e *ValidationError) Error() string { return e.msg }

// IsValidationError reports whether err is a batch-validation rejection.
func IsValidationError(err error) bool {
	var ve *ValidationError
	return errors.As(err, &ve)
}

func valErrf(format string, args ...any) error {
	return &ValidationError{msg: fmt.Sprintf(format, args...)}
}

// nonFinite returns the index of the first NaN or ±Inf in v, or -1. One
// such value in a batch would poison every model the stream maintains, and
// the row would stay in the fact table for every later rebaseline, so
// validation rejects it.
func nonFinite(v ...float64) int {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

// IncompatibleModelError marks an attach rejected because the model does
// not fit the stream's star schema (wrong joined width, or an NN over a
// target-less fact table). Callers attaching a whole registry can skip
// these and keep such models served-but-static, while other attach
// failures (storage I/O, dangling foreign keys found by the base absorb)
// stay hard errors.
type IncompatibleModelError struct{ msg string }

func (e *IncompatibleModelError) Error() string { return e.msg }

// IsIncompatibleModel reports whether err is a schema-incompatibility
// rejection from AttachGMM/AttachNN.
func IsIncompatibleModel(err error) bool {
	var ie *IncompatibleModelError
	return errors.As(err, &ie)
}

func incompatErrf(format string, args ...any) error {
	return &IncompatibleModelError{msg: fmt.Sprintf(format, args...)}
}

// IngestResult reports what one Ingest call did.
type IngestResult struct {
	Facts       int   `json:"facts"`
	DimInserts  int   `json:"dim_inserts"`
	DimUpdates  int   `json:"dim_updates"`
	PendingRows int64 `json:"pending_rows"`
	// RefreshTriggered is set when the batch pushed the pending-row count
	// over Policy.RefreshRows and an automatic refresh ran.
	RefreshTriggered bool `json:"refresh_triggered"`
}

// ModelRefresh reports one model's part of a refresh.
type ModelRefresh struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// RowsAbsorbed is how many fact rows this refresh folded into the
	// model's statistics (GMM) or how many rows the warm-start epochs
	// trained over (NN).
	RowsAbsorbed int64 `json:"rows_absorbed"`
	// LogLikelihood is the data log-likelihood recorded by the maintained
	// statistics (GMM only; responsibilities of earlier rows are as of
	// their absorb-time model).
	LogLikelihood float64 `json:"log_likelihood,omitempty"`
	// Rebaselined is set when the statistics were rebuilt from scratch
	// under the current model (dirty after a dimension update, or the
	// Policy.RebaselineEvery cadence).
	Rebaselined bool `json:"rebaselined,omitempty"`
	// Strategy names how this refresh trained: "incremental" for the GMM
	// sufficient-statistics maintenance, or the planner-chosen execution
	// strategy ("factorized"/"streaming") for an NN warm-start retrain —
	// the refresh reuses the plan computed at attach time (recomputed
	// after dimension updates, when the statistics shift).
	Strategy string `json:"strategy,omitempty"`
}

// RefreshResult reports one refresh across every attached model.
type RefreshResult struct {
	Models []ModelRefresh `json:"models"`
}

// Counters is a snapshot of the stream's cumulative ingestion counters,
// the "stream" section of /statsz and /metrics.
type Counters struct {
	Batches       uint64 `json:"batches"`
	FactsIngested uint64 `json:"facts_ingested"`
	DimInserts    uint64 `json:"dim_inserts"`
	DimUpdates    uint64 `json:"dim_updates"`
	Refreshes     uint64 `json:"refreshes"`
	AutoRefreshes uint64 `json:"auto_refreshes"`
	Rebaselines   uint64 `json:"rebaselines"`
	// Checkpoints counts committed WAL snapshots (explicit Checkpoint
	// calls plus the SnapshotEvery cadence).
	Checkpoints    uint64 `json:"checkpoints"`
	PendingRows    int64  `json:"pending_rows"`
	AttachedModels int    `json:"attached_models"`
	// IngestQueueDepth is the number of admitted-but-unfinished HTTP
	// ingest batches (see Options.MaxQueuedIngest).
	IngestQueueDepth int `json:"ingest_queue_depth"`
	// IngestRejections counts batches the bounded ingest queue rejected
	// with 429 before any work was admitted.
	IngestRejections uint64 `json:"ingest_rejections"`
}
