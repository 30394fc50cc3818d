package core

// Ops counts floating-point operations attributed to the training math
// (join bookkeeping excluded), analytically: a d×d quadratic form is d²
// multiplications, which is exactly the accounting the paper's §V-B
// saving-rate analysis uses, so the closed form Δτ/τ can be checked against
// these counters. The methods below are the per-kernel primitives; cost.go
// composes them into the per-event units that the trainers (measured,
// Stats.Ops) and the planner (estimated, plan.Estimate.Ops) both multiply
// by event counts, so the two are directly comparable.
type Ops struct {
	Mul  int64 // multiplications
	Adds int64 // additions and subtractions
}

// AddQuadForm charges a d-dimensional quadratic form xᵀAx.
func (o *Ops) AddQuadForm(d int) {
	o.Mul += int64(d) * int64(d)
	o.Adds += int64(d)*int64(d) - 1
}

// AddBilinear charges xᵀAy with len(x)=r, len(y)=c.
func (o *Ops) AddBilinear(r, c int) {
	o.Mul += int64(r) * int64(c)
	o.Adds += int64(r)*int64(c) - 1
}

// AddMatVec charges an r×c matrix-vector product.
func (o *Ops) AddMatVec(r, c int) {
	o.Mul += int64(r) * int64(c)
	o.Adds += int64(r) * int64(c-1)
}

// AddOuter charges a weighted outer-product accumulation w·x·yᵀ into an
// r×c block (one multiply per cell for the product, one add for the
// accumulation, plus r multiplies for w·x).
func (o *Ops) AddOuter(r, c int) {
	o.Mul += int64(r)*int64(c) + int64(r)
	o.Adds += int64(r) * int64(c)
}

// AddSyrk charges the upper triangle of a weighted symmetric rank-1
// accumulation w·x·xᵀ into a d×d block (linalg.SyrkAccum): d(d+1)/2 cells
// at one multiply and one add each, plus d multiplies for w·x.
func (o *Ops) AddSyrk(d int) {
	cells := int64(d) * int64(d+1) / 2
	o.Mul += cells + int64(d)
	o.Adds += cells
}

// AddMoments charges folding one γ-weighted deviation of width d into an
// EM iteration's first and second moments: s1 += γ·PD is an axpy, and the
// second moment is the upper triangle of γ·PD·PDᵀ (AddSyrk) for a full
// covariance or its diagonal γ·PD² — two multiplies and one add per
// column — for a diagonal one.
func (o *Ops) AddMoments(d int, diagonal bool) {
	o.AddAxpy(d)
	if diagonal {
		o.Mul += 2 * int64(d)
		o.Adds += int64(d)
	} else {
		o.AddSyrk(d)
	}
}

// AddOuterPlain charges an unweighted outer-product accumulation x·yᵀ into
// an r×c block (one multiply and one add per cell; no scalar weight).
func (o *Ops) AddOuterPlain(r, c int) {
	o.Mul += int64(r) * int64(c)
	o.Adds += int64(r) * int64(c)
}

// AddDiagQuad charges a diagonal quadratic form Σ (x_i−µ_i)²·w_i over d
// dimensions (the IGMM E-step kernel): one subtraction, one squaring and
// one weighting multiply per dimension.
func (o *Ops) AddDiagQuad(d int) {
	o.Mul += 2 * int64(d)
	o.Adds += 2*int64(d) - 1
}

// AddDot charges an n-dimensional inner product.
func (o *Ops) AddDot(n int) {
	o.Mul += int64(n)
	o.Adds += int64(n - 1)
}

// AddSub charges n element-wise subtractions (e.g. forming PD = x − µ).
func (o *Ops) AddSub(n int) {
	o.Adds += int64(n)
}

// AddAxpy charges y += a·x over n elements.
func (o *Ops) AddAxpy(n int) {
	o.Mul += int64(n)
	o.Adds += int64(n)
}

// Add merges another counter into o in place.
func (o *Ops) Add(b Ops) {
	o.Mul += b.Mul
	o.Adds += b.Adds
}

// Plus returns the element-wise sum of two counters.
func (o Ops) Plus(b Ops) Ops {
	return Ops{Mul: o.Mul + b.Mul, Adds: o.Adds + b.Adds}
}

// Scale returns the counter multiplied by n (e.g. one EM iteration's
// per-row kernel costs scaled to n rows by the planner).
func (o Ops) Scale(n int64) Ops {
	return Ops{Mul: o.Mul * n, Adds: o.Adds * n}
}

// Total returns the combined flop count (multiplications plus additions),
// the scalar the planner ranks strategies by.
func (o Ops) Total() int64 { return o.Mul + o.Adds }
