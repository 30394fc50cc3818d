// Package data generates the workloads of the paper's evaluation (§VII):
//
//   - Synthetic star schemas with controllable tuple ratio rr = nS/nR,
//     feature widths dS/dR(i), and number of underlying Gaussian clusters.
//     Features are sampled from mixtures of Gaussians with added noise,
//     following the paper's §VII-A (which itself follows Kumar et al.).
//   - Simulated stand-ins for the Hamlet real datasets (Expedia, Walmart,
//     Movies, and the augmented Expedia3-5): relations with the exact
//     cardinalities and dimensionalities of Tables IV/V, optionally scaled
//     down by a factor for CI-sized runs. The environment is offline, so
//     the real values are substituted by synthetic ones with the same
//     shape; the training algorithms' costs depend on (nS, nR, dS, dR, rr),
//     not on the feature values, so the performance geometry is preserved
//     (benchmark/README.md, "How the numbers line up with the paper").
//   - One-hot ("Sparse") encodings for the NN real-dataset experiments
//     (Table VII).
package data
