package monitor

import (
	"fmt"
	"math"
	"time"

	"factorml/internal/join"
)

// CaptureBaseline snapshots the joined training distribution of spec in
// two streaming passes over the factorized join (never materialized):
// the first pass finds each column's range, the second fills fixed-bin
// histograms over exactly that range. score, when non-nil, is evaluated
// per joined row to capture the prediction-quality baseline (the GMM
// per-row log-likelihood or the NN output) under metric's name. Every
// histogram has DefaultBins interior bins.
func CaptureBaseline(sp *join.Spec, score func(x []float64, y float64) float64, metric string) (*Baseline, error) {
	d := sp.JoinedWidth()
	lo := make([]float64, d)
	hi := make([]float64, d)
	var sLo, sHi float64
	var rows int64
	err := join.Stream(sp, func(sid int64, x []float64, y float64) error {
		if rows == 0 {
			copy(lo, x)
			copy(hi, x)
		} else {
			for i, v := range x {
				if v < lo[i] {
					lo[i] = v
				}
				if v > hi[i] {
					hi[i] = v
				}
			}
		}
		if score != nil {
			s := score(x, y)
			if rows == 0 {
				sLo, sHi = s, s
			} else {
				if s < sLo {
					sLo = s
				}
				if s > sHi {
					sHi = s
				}
			}
		}
		rows++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("monitor: baseline range pass: %w", err)
	}
	if rows == 0 {
		return nil, fmt.Errorf("monitor: cannot capture a baseline over an empty join")
	}
	b := &Baseline{
		CapturedAtUnix: time.Now().Unix(),
		Rows:           rows,
		Columns:        make([]ColumnBaseline, d),
	}
	names := columnNames(sp)
	sketches := make([]*Sketch, d)
	for i := 0; i < d; i++ {
		b.Columns[i] = ColumnBaseline{Table: names[i][0], Name: names[i][1]}
		// Widen the upper edge one ULP so the training maximum itself
		// lands in the last interior bin, not overflow.
		sketches[i] = NewSketch(lo[i], math.Nextafter(hi[i], math.Inf(1)), DefaultBins)
	}
	var quality *Sketch
	if score != nil {
		quality = NewSketch(sLo, math.Nextafter(sHi, math.Inf(1)), DefaultBins)
	}
	err = join.Stream(sp, func(sid int64, x []float64, y float64) error {
		for i, v := range x {
			sketches[i].Observe(v)
		}
		if score != nil {
			quality.Observe(score(x, y))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("monitor: baseline histogram pass: %w", err)
	}
	for i := 0; i < d; i++ {
		b.Columns[i].Sketch = *sketches[i]
	}
	if quality != nil {
		b.Quality = quality
		b.QualityMetric = metric
	}
	return b, nil
}

// columnNames returns, per joined feature offset, the (table, column)
// pair it came from, in the joined layout's [S, R1, …, Rq] order.
func columnNames(sp *join.Spec) [][2]string {
	out := make([][2]string, 0, sp.JoinedWidth())
	add := func(table string, feats []string) {
		for _, f := range feats {
			out = append(out, [2]string{table, f})
		}
	}
	add(sp.S.Schema().Name, sp.S.Schema().Features)
	for _, r := range sp.Rs {
		add(r.Schema().Name, r.Schema().Features)
	}
	return out
}
