// Package linalg provides the dense linear-algebra kernels used by the
// factorized learning algorithms: row-major dense matrices, vectors,
// matrix/vector products, symmetric positive-definite factorizations
// (Cholesky), determinants, inverses, quadratic forms and outer-product
// accumulation, and the program's one exp (ExpInto) and log (Log), whose
// bits are the same on every architecture (explog.go).
//
// It replaces NumPy in the original paper's artifact. The kernels are
// deliberately simple and allocation-conscious: every hot-path routine has a
// destination-passing variant so training loops can run allocation-free.
//
// Dimension mismatches are programmer errors and panic, mirroring the
// convention of mainstream Go numeric libraries. Data-dependent failures
// (e.g. a matrix that is not positive definite) return errors.
package linalg
