package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// sample is a set of measurements of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

func (s sample) median() float64 { return percentile(s.sorted(), 50) }

// tailPercentile is the highest percentile that still has at least ten
// samples beyond it, the one worth quoting as "the tail" for this count.
func (s sample) tailPercentile() (p float64, v float64) {
	switch n := len(s); {
	case n >= 10000:
		p = 99.9
	case n >= 1000:
		p = 99
	case n >= 100:
		p = 90
	default:
		p = 50
	}
	return p, percentile(s.sorted(), p)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// phaseOps counts what one phase attempted and what failed: any non-2xx,
// any error return, any self-check mismatch.
type phaseOps struct {
	name      string
	attempted int
	failed    int
	firstErr  string
}

// ledger collects per-phase operation counts; clients on several
// goroutines report into it.
type ledger struct {
	mu     sync.Mutex
	phases []*phaseOps
}

func (l *ledger) phase(name string) *phaseOps {
	for _, p := range l.phases {
		if p.name == name {
			return p
		}
	}
	p := &phaseOps{name: name}
	l.phases = append(l.phases, p)
	return p
}

// op records one operation of a phase; a non-nil err marks it failed.
func (l *ledger) op(phase string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.phase(phase)
	p.attempted++
	if err != nil {
		p.failed++
		if p.firstErr == "" {
			p.firstErr = err.Error()
		}
	}
}

func (l *ledger) totals() (attempted, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range l.phases {
		attempted += p.attempted
		failed += p.failed
	}
	return attempted, failed
}
