package parallel

import (
	"errors"
	"runtime"
	"sync"
	"time"
)

// Workers resolves a NumWorkers configuration knob: 0 selects
// runtime.NumCPU(), anything below 1 clamps to 1 (sequential), and any
// other value is used as given.
func Workers(n int) int {
	if n == 0 {
		return runtime.NumCPU()
	}
	if n < 1 {
		return 1
	}
	return n
}

// errAborted is handed to the producer once the run has failed elsewhere;
// Run itself always returns the original error.
var errAborted = errors.New("parallel: run aborted")

// DefaultFillGrain is the index-range grain used by RunRange.
const DefaultFillGrain = 64

// RunRange splits [0, n) into fixed grains and runs body on the worker
// pool. It is meant for cache fills whose writes land at disjoint indexes:
// nothing is reduced, so nothing is merged.
func RunRange(workers, n int, body func(start, end int) error) error {
	// Never spin up more workers than there are grains: a tiny fill (a
	// handful of grains per block, once per EM pass) clamps to one worker,
	// which Run executes inline instead of paying pool startup. The grain
	// geometry is the same either way.
	if grains := (n + DefaultFillGrain - 1) / DefaultFillGrain; workers > grains {
		workers = grains
	}
	return Run(workers,
		func(f *Feed[int]) error {
			for start := 0; start < n; start += DefaultFillGrain {
				if err := f.Emit(start); err != nil {
					return err
				}
			}
			return nil
		},
		func(start int) (struct{}, error) {
			return struct{}{}, body(start, min(start+DefaultFillGrain, n))
		}, nil)
}

// window is how far emission may run ahead of in-order merging: Emit
// blocks once window chunks are outstanding, so one stalled worker cannot
// make the merger buffer an unbounded number of completed accumulators
// (which can be large — e.g. full gradient workspaces), and a run never
// needs more than window+1 chunk objects (Feed.Next). Inline, every chunk
// is merged before its Emit returns: the window is zero.
func window(workers int) int {
	if workers <= 1 {
		return 0
	}
	return 4 * workers
}

// Feed is the producer's handle into a Run. It is only valid for the
// duration of the produce callback and must be used from that goroutine.
type Feed[C any] struct {
	emit func(C) error
	// quiesce waits for every emitted chunk to be merged; nil when the run
	// is inline, where each Emit has merged its chunk before it returns.
	quiesce func() error
	seq     int // chunks emitted so far
	ring    []C // the chunk objects Next has made, at most window+1
	size    int // window+1
}

// Emit hands one chunk to the pool. Chunks are worked concurrently but
// merged strictly in emission order.
func (f *Feed[C]) Emit(c C) error {
	if err := f.emit(c); err != nil {
		return err
	}
	f.seq++
	return nil
}

// Next returns the chunk object to fill for the next Emit: a fresh one from
// newChunk for the run's first window+1 emissions, then the object emitted
// window+1 emissions earlier. That chunk's merge has returned by then — an
// Emit takes one of window credits and a merge hands its credit back — so
// whatever the merge left in it (a chunk's accumulator: zero) is what the
// producer finds. Until the next Emit, Next returns the same object. The
// objects belong to the run and are dropped with it.
func (f *Feed[C]) Next(newChunk func() C) C {
	i := f.seq % f.size
	if f.ring == nil {
		f.ring = make([]C, 0, f.size)
	}
	if i == len(f.ring) {
		f.ring = append(f.ring, newChunk())
	}
	return f.ring[i]
}

// Barrier blocks until every chunk emitted so far has been worked and
// merged, then runs fn (which may be nil) on the producer goroutine while
// the pool is quiescent. Shared state written inside fn is safely visible
// to workers processing later chunks, and vice versa.
func (f *Feed[C]) Barrier(fn func() error) error {
	if f.quiesce != nil {
		if err := f.quiesce(); err != nil {
			return err
		}
	}
	if fn == nil {
		return nil
	}
	return fn()
}

type job[C any] struct {
	seq int
	c   C
}

type result[R any] struct {
	seq int
	r   R
}

type barrierReq struct {
	upto int // number of chunks that must be merged before release
	done chan struct{}
}

// Run executes one deterministic chunked map-reduce pass.
//
// produce runs on the calling goroutine and emits chunks through the Feed.
// work runs on worker goroutines, one chunk at a time, and returns the
// chunk's partial result. merge runs on a single goroutine and receives the
// partial results strictly in emission order; it may be nil when chunks
// carry no reduction (pure fills into disjoint locations).
//
// With workers <= 1 everything runs inline on the calling goroutine in the
// exact same chunk/merge structure, so the produced floating-point results
// are bit-identical for every worker count.
//
// A producer whose chunks carry buffers or accumulators takes them from
// Feed.Next instead of allocating one per chunk: the run then owns at most
// window+1 chunk objects, each reused only after its merge returned.
func Run[C, R any](workers int, produce func(f *Feed[C]) error, work func(c C) (R, error), merge func(r R) error) error {
	w := window(workers)
	f := &Feed[C]{size: w + 1}
	if w == 0 {
		f.emit = func(c C) error {
			r, err := work(c)
			if err != nil {
				return err
			}
			if merge == nil {
				return nil
			}
			return merge(r)
		}
		return produce(f)
	}

	var (
		jobs     = make(chan job[C])
		results  = make(chan result[R], 2*workers)
		barriers = make(chan barrierReq)
		credits  = make(chan struct{}, w)
		abort    = make(chan struct{})
		failOnce sync.Once
		runErr   error
	)
	for i := 0; i < w; i++ {
		credits <- struct{}{}
	}
	fail := func(err error) {
		failOnce.Do(func() {
			runErr = err
			close(abort)
		})
	}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// The observer is sampled once per worker lifetime; when none is
			// installed the loop carries no timing at all.
			wobs := loadWorkerObserver()
			var chunks int64
			var busy time.Duration
			if wobs != nil {
				defer func() { wobs(WorkerEvent{Worker: id, Chunks: chunks, Busy: busy}) }()
			}
			for jb := range jobs {
				var t0 time.Time
				if wobs != nil {
					t0 = time.Now()
				}
				r, err := work(jb.c)
				if wobs != nil {
					busy += time.Since(t0)
					chunks++
				}
				if err != nil {
					fail(err)
					return
				}
				select {
				case results <- result[R]{seq: jb.seq, r: r}:
				case <-abort:
					return
				}
			}
		}(i)
	}

	mergerDone := make(chan struct{})
	go func() {
		defer close(mergerDone)
		next := 0
		pending := make(map[int]R)
		var waiting []barrierReq
		release := func() {
			kept := waiting[:0]
			for _, b := range waiting {
				if b.upto <= next {
					close(b.done)
				} else {
					kept = append(kept, b)
				}
			}
			waiting = kept
		}
		for {
			select {
			case res, ok := <-results:
				if !ok {
					return
				}
				pending[res.seq] = res.r
				for {
					r, ok := pending[next]
					if !ok {
						break
					}
					delete(pending, next)
					if merge != nil {
						if err := merge(r); err != nil {
							fail(err)
							return
						}
					}
					next++
					// Each merged chunk returns one emission credit; the
					// channel has capacity for every outstanding token, so
					// this never blocks.
					credits <- struct{}{}
				}
				release()
			case b := <-barriers:
				if b.upto <= next {
					close(b.done)
				} else {
					waiting = append(waiting, b)
				}
			case <-abort:
				return
			}
		}
	}()

	f.emit = func(c C) error {
		select {
		case <-credits:
		case <-abort:
			return errAborted
		}
		select {
		case jobs <- job[C]{seq: f.seq, c: c}:
			return nil
		case <-abort:
			return errAborted
		}
	}
	f.quiesce = func() error {
		done := make(chan struct{})
		select {
		case barriers <- barrierReq{upto: f.seq, done: done}:
		case <-abort:
			return errAborted
		}
		select {
		case <-done:
			return nil
		case <-abort:
			return errAborted
		}
	}
	prodErr := produce(f)
	close(jobs)
	wg.Wait()
	close(results)
	<-mergerDone

	if runErr != nil {
		return runErr
	}
	if errors.Is(prodErr, errAborted) {
		// Aborted without a recorded cause cannot happen, but never surface
		// the sentinel.
		return nil
	}
	return prodErr
}
