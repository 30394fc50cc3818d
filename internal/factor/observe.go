package factor

import (
	"sync/atomic"
	"time"
)

// PassEvent describes one completed phase of a training pass: a chunked
// row pass (RunRowPass / RunSGDPass), a factorized match pass
// (PartScan.RunChunks), a dimension-cache fill, or an
// initialization scan. Pass names the logical pass, Phase the mechanical
// stage within it. A GMM trainer makes one pass per EM iteration and names
// it once per loop — "gmm.em" / "igmm.em" (dense, full / diagonal),
// "fgmm.em" / "figmm.em" (factorized), after "fgmm.init" — and an NN
// trainer one per epoch ("nn.sgd_epoch", "fnn.sgd"). Fold is the
// cumulative worker time spent folding rows into accumulators (summed
// across workers, so it exceeds Wall when the pass parallelizes well);
// Merge is the single-threaded ordered-merge time.
type PassEvent struct {
	Pass    string
	Phase   string // "scan", "cache_fill", "fold"
	Workers int
	Rows    int64
	Chunks  int64
	Wall    time.Duration
	Fold    time.Duration
	Merge   time.Duration
	Err     bool
}

// Observer receives pass events. It may be called from the training
// goroutine only (events are emitted after a pass completes), but
// passes from concurrent trainings can interleave, so implementations
// must be goroutine-safe.
type Observer func(PassEvent)

var passObserver atomic.Pointer[Observer]

// SetObserver installs the process-wide pass observer (nil removes it).
// With no observer installed the pass operators skip all timing and
// counting work — the hot loops are untouched.
func SetObserver(o Observer) {
	if o == nil {
		passObserver.Store(nil)
		return
	}
	passObserver.Store(&o)
}

func loadObserver() Observer {
	if p := passObserver.Load(); p != nil {
		return *p
	}
	return nil
}
