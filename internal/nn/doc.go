// Package nn implements feed-forward neural network training (backprop,
// squared error) over normalized relations. Train is the one entry point: it
// takes the strategy (plan.Strategy), has factor.Open open that strategy's
// access path and runs the one SGD driver (sgd) over it. The paper's three
// flavours are its strategies, and they differ only in the set of direct
// dimensions the path factorizes:
//
//   - Train(…, plan.Materialized, …) (M-NN): materialize T = S ⋈ R1 ⋈ … on
//     disk, train reading T, with no dimension factorized.
//   - Train(…, plan.Streaming, …) (S-NN): identical training, streaming the
//     join per pass and gathering each match's dimension rows into its row.
//   - Train(…, plan.Factorized, …) (F-NN): the factorized trainer of §VI,
//     every direct dimension factorized. In the first layer's forward pass,
//     the partial pre-activation W_R·x_R (+ share of bias) of each
//     dimension tuple is computed once per parameter state and reused for
//     every matching fact tuple. The backward pass reads features directly
//     from the base relations (the I/O saving of §VI-A3). Above layer 1 it
//     performs the same multiplications as M and S (Eq. 28-29); the
//     input-layer weight gradient is factorized too, because both regimes
//     here step once per pass or per block rather than per tuple:
//     Σ_n δ⁰_n·x_nᵀ over a dimension's columns is Σ_t (Σ_{n∈t} δ⁰_n)·x_tᵀ,
//     so each match adds its δ⁰ into its tuple's sum and each touched tuple
//     pays one outer product per step.
//
// With no dimension factorized the driver's fact part is the whole joined
// row: no partials to cache, no δ⁰ sums and nothing to flush — plain
// backprop, chunk by chunk.
//
// Factorization stops after the first layer. The paper shows (§VI-A2) that
// sharing layer 2 needs an additive activation (only Identity is), and that
// even then it "will always result in increased costs": it saves no
// multiply per fact tuple and adds a layer-2 mat-vec per dimension tuple
// and per cache refill. Two tests hold that result without a trainer
// branch: core's TestLayer2SharingCostsMore prices the scheme's events from
// Ops primitives against NNUnits, and TestLayer2SharingExact checks its
// algebra on one joined row of an Identity network.
//
// One forward pass: layer 1 is either dense (W0·x + b⁰, for Predict) or
// factorized (PartialPreAct per dimension tuple, completed by
// ForwardFactorized, for the trainer and serving); both run the same loop over
// the upper layers in a ForwardScratch, whose buffers backprop reads. The
// output layer is linear however many hidden layers there are, none
// included (partial.go).
//
// Flop accounting: the kernels count nothing. Stats.Ops is internal/core's
// per-event units (core.NNUnits) × the events this run saw — matches per
// epoch, tuples per fill and flush — and the planner multiplies the same
// units by the counts it predicts.
//
// Two batching regimes are supported, both producing identical parameter
// trajectories across M/S/F: Epoch (one gradient step per full pass) and
// Block (one step per R1 block of the join, cut at the join spec's block
// size — M-NN reconstructs the block boundaries of T from the
// materializer's per-block counts).
package nn
