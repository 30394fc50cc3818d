package factor

import (
	"sync/atomic"
	"time"
)

// PassEvent describes one completed phase of a training pass: a chunked
// match pass (RunChunks), a dimension-cache fill, or an initialization
// scan. Pass names the logical pass, Phase the mechanical stage within it.
// A trainer names its passes once per family, whatever the strategy or
// covariance structure: "gmm.init" then one "gmm.em" per EM iteration, and
// one "nn.sgd" per epoch. Fold is the cumulative worker time spent folding
// matches into accumulators (summed across workers, so it exceeds Wall
// when the pass parallelizes well); Merge is the single-threaded
// ordered-merge time.
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

// passMeter is the observer accounting of one pass phase, shared by every
// operator that emits a PassEvent. observePass returns nil when no observer
// is installed, and the callers then leave their hooks unwrapped, so the
// hot loops carry no timing; done is nil-safe so a caller ends its pass the
// same way in both cases.
type passMeter struct {
	obs     Observer
	ev      PassEvent
	start   time.Time
	rows    atomic.Int64
	chunks  atomic.Int64
	foldNs  atomic.Int64
	mergeNs atomic.Int64
}

func observePass(pass, phase string, workers int) *passMeter {
	p := passObserver.Load()
	if p == nil {
		return nil
	}
	return &passMeter{obs: *p, ev: PassEvent{Pass: pass, Phase: phase, Workers: workers}, start: time.Now()}
}

// folded records one chunk of n rows whose fold began at t0. Folds run
// concurrently on the workers, hence the atomics.
func (m *passMeter) folded(t0 time.Time, n int) {
	m.foldNs.Add(int64(time.Since(t0)))
	m.rows.Add(int64(n))
	m.chunks.Add(1)
}

// merged records one ordered merge that began at t0.
func (m *passMeter) merged(t0 time.Time) { m.mergeNs.Add(int64(time.Since(t0))) }

// done emits the event for a pass that returned err, and returns err.
func (m *passMeter) done(err error) error {
	if m == nil {
		return err
	}
	m.ev.Rows = m.rows.Load()
	m.ev.Chunks = m.chunks.Load()
	m.ev.Wall = time.Since(m.start)
	m.ev.Fold = time.Duration(m.foldNs.Load())
	m.ev.Merge = time.Duration(m.mergeNs.Load())
	m.ev.Err = err != nil
	m.obs(m.ev)
	return err
}
