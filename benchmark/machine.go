package main

import "time"

// The reference box is a shared two-core virtual machine whose speed moves
// by 30-40% for minutes at a time (README.md, "Noise study"). Every reported
// time is plain wall-clock; nothing is corrected. So that two runs can be
// told apart by the state the machine was in, the harness times a fixed
// kernel at every phase boundary and reports the median as information
// (`bench.machine_kernel_ms`, and one line of the report): four
// multiply-add chains over 32 KiB, resident in the first-level cache like
// the trainers' per-row kernels, about 2.8 ms on the undisturbed box.

const (
	kernelWords = 1 << 11 // float64s per array: 2 x 16 KiB
	kernelReps  = 3072
	// kernelSamples is how many times the kernel runs at a phase boundary.
	kernelSamples = 8
)

// machineGauge collects the kernel's times, in milliseconds, over a run.
type machineGauge struct {
	x, y []float64
	sink float64
	ms   sample
}

// read runs the kernel kernelSamples times.
func (g *machineGauge) read() {
	if g.x == nil {
		g.x, g.y = make([]float64, kernelWords), make([]float64, kernelWords)
		for i := range g.x {
			g.x[i], g.y[i] = float64(i%97)*0.01, float64(i%89)*0.02
		}
	}
	for s := 0; s < kernelSamples; s++ {
		t0 := time.Now()
		for rep := 0; rep < kernelReps; rep++ {
			var a, b, c, d float64
			x, y := g.x, g.y
			for len(x) >= 4 {
				a += x[0] * y[0]
				b += x[1] * y[1]
				c += x[2] * y[2]
				d += x[3] * y[3]
				x, y = x[4:], y[4:]
			}
			g.sink += a + b + c + d
		}
		g.ms = append(g.ms, ms(time.Since(t0)))
	}
}
