package gmm

import (
	"math"
	"math/rand"
	"testing"

	"factorml/internal/core"
	"factorml/internal/linalg"
)

// evaluator is the dense scorer M- and S-GMM, LogProb and
// Responsibilities used before they moved onto Scorer over the one-part
// partition: one linalg.QuadForm per component over the whole joined row.
// It stays here as the oracle the dense path is checked against.
type evaluator struct {
	m      *Model
	states []compState
}

func (m *Model) newEvaluator() (*evaluator, error) {
	states, err := m.precompute(core.NewPartition([]int{m.D}))
	return &evaluator{m: m, states: states}, err
}

// logDensities fills logp[c] = ln π_c·N(x | µ_c, Σ_c) and leaves the
// deviation x − µ_c it was computed from in pd[c·D : (c+1)·D].
func (ev *evaluator) logDensities(x, pd, logp []float64) {
	d := ev.m.D
	for c := range logp {
		pdc := pd[c*d : (c+1)*d]
		linalg.VecSub(pdc, x, ev.m.Means[c])
		st := &ev.states[c]
		if st.invVar != nil {
			logp[c] = st.logW + st.logNorm - 0.5*diagQuadPD(pdc, st.invVar)
		} else {
			logp[c] = st.logW + st.logNorm - 0.5*linalg.QuadForm(st.blocked.B[0][0], pdc)
		}
	}
}

// TestDenseScoringMatchesEvaluator pins Model.LogProb and
// Model.Responsibilities — the fused kernel over the one-part partition —
// against the evaluator oracle on random models from fusedTestModel, the
// generator TestFusedKernelMatchesReference draws from: within 1e-12
// relative for a full covariance (the kernel sums the quadratic form four
// rows at a time), and bit for bit for a diagonal one (the same
// per-dimension sum).
func TestDenseScoringMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i, d := range []int{7, 7, 11, 7, 7, 11} {
		m := fusedTestModel(t, rng, 4, d)
		if i >= 3 {
			m.restrictToDiagonal()
		}
		ev, err := m.newEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		logProb := m.LogProbFunc()
		pd := make([]float64, m.K*m.D)
		lp := make([]float64, m.K)
		want := make([]float64, m.K)
		for trial := 0; trial < 50; trial++ {
			x := make([]float64, d)
			for j := range x {
				x[j] = 2 * rng.NormFloat64()
			}
			if trial%5 == 0 {
				copy(x, m.Means[trial%m.K]) // a zero deviation
			}
			ev.logDensities(x, pd, lp)
			wantLP := linalg.LogSumExp(lp)
			linalg.SoftmaxLSE(want, lp)
			gotLP, got := logProb(x), m.Responsibilities(x)
			if m.Diagonal {
				if gotLP != wantLP || linalg.MaxAbsDiffVec(got, want) != 0 {
					t.Fatalf("d=%d diagonal trial %d: LogProb %v, γ %v; evaluator %v, γ %v", d, trial, gotLP, got, wantLP, want)
				}
				continue
			}
			if diff := math.Abs(gotLP - wantLP); diff > 1e-12*math.Max(1, math.Abs(wantLP)) {
				t.Fatalf("d=%d trial %d: LogProb %v, evaluator %v (diff %g)", d, trial, gotLP, wantLP, diff)
			}
			if diff := linalg.MaxAbsDiffVec(got, want); diff > 1e-12 {
				t.Fatalf("d=%d trial %d: responsibilities differ from the evaluator's by %g", d, trial, diff)
			}
		}
	}
}
