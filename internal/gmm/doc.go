// Package gmm implements full-covariance Gaussian Mixture Model training by
// Expectation-Maximization over normalized relations. Train is the one
// entry point: it takes the strategy (plan.Strategy), has factor.Open open
// that strategy's access path and runs the one EM driver (em) over it, for
// full and diagonal covariances alike. The paper's three flavours are its
// strategies, and they differ only in the set of direct dimensions the path
// factorizes: F-GMM (TrainF), the paper's contribution, factorizes every
// one — the E-step quadratic form and the M-step accumulations split into
// per-relation blocks (Eq. 7–24), every quantity that depends only on a
// dimension tuple computed once per distinct tuple — while M-GMM (reading
// the materialized join T once per iteration) and S-GMM (re-executing the
// block-nested-loops join instead) factorize none: the driver runs over the
// one-part partition, every joined row all fact part, with no caches, group
// sums or cross blocks — Algorithm 1.
//
// One pass per iteration: the paper's Algorithm 1 and its factorized form
// read the data three times per EM iteration — responsibilities, means,
// covariances about the new means. Here a row's responsibilities are folded,
// the moment they are known, into N_k, s1 = Σγ·PD and S = Σγ·PD·PDᵀ of the
// deviations PD = x − µ from the iteration's *starting* means (the PD the
// E-step has just formed; for a dimension tuple, the one its QuadCache
// carries), and the M-step is solved after the pass as µ ← µ + d,
// Σ ← S/N_k − d·dᵀ + εI with d = s1/N_k — an exact identity, under which
// every group trick of Eq. 13–24 carries over unchanged. The three-pass
// form survives as the test oracle (factorml_onepass_test.go).
//
// One statistics type: Moments holds those sums about an origin it
// stores — the trainers' starting means, or the model's means at attach or
// rebaseline for the streaming refresh — and every trainer and the refresh
// fold into it and step through its one M-step. About an origin inside the
// data the sums do not cancel. The factorized path's per-tuple group
// sums are the rows of a factor.Slots, live for one block or pass and
// folded in tuple ordinal order; the refresh, whose sums live as long as
// its stream, folds whole joined rows over the one-part partition.
//
// One scoring kernel: every E-step and every point score runs the fused
// kernel behind Scorer (fused.go). F's E-step, serving and the streaming
// refresh run it over the relation partition with per-tuple dimension
// caches; M's and S's, LogProb, Responsibilities and Predict run it over the
// one-part partition, where a joined row is all fact part.
//
// The decomposition is exact, so all three strategies produce identical
// parameters at every iteration (verified by tests to ~1e-9). Binary joins
// and multi-way star joins are both supported; the multi-way factorization
// follows §V-C (diagonal blocks and PD vectors of each dimension relation
// are reused; cross-dimension blocks are evaluated per joined tuple through
// the cached PDs).
//
// Covariance structure: Config.Diagonal is the request, Model.Diagonal the
// state — stamped by Train, copied by Clone, written by Save, kept by a
// stream refresh — and nothing takes it as an argument beside the model.
// igmm.go says what a diagonal model's caches are and where its kernels
// differ.
//
// Flop accounting: no kernel counts its own operations. Stats.Ops is
// internal/core's per-event units (core.GMMUnits) × the events this run saw
// — matches per merged chunk, tuples per fill and flush —
// and the planner multiplies the same units by the counts it predicts. Only
// the unfused scoring loop, the fused kernel's reference, charges at its
// call sites: that is what checks the units.
//
// Numerical notes: responsibilities are computed in log space with
// log-sum-exp (this affects all three algorithms identically, so exactness
// of the comparison is preserved), covariances get a small diagonal
// regularizer each M-step, and a component whose responsibility mass
// collapses keeps its previous parameters.
package gmm
