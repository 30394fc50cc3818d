// Package experiments reproduces the paper's evaluation (§VII): every
// figure (3a-c, 4a-c, 5a-c, 6a-c) and both real-dataset tables (VI, VII).
//
// Each experiment sweeps one knob of the star schema — tuple ratio
// rr = nS/nR, dimension feature width dR, component count K, hidden width
// nh — generates the synthetic workload, trains the M-/S-/F- variant of the
// model, and records wall-clock time, multiplication counts and page I/O.
// The absolute numbers differ from the paper's testbed (Python+NumPy+
// PostgreSQL on a Xeon cluster vs. pure Go here); the deliverable is the
// shape, and the tests check it in exact counts: on every rr and dR sweep F
// makes fewer multiplications than S and M, and its saving grows with rr
// and dR; testdata/tiny_counts.csv pins every row's multiplications and
// page I/O. The times are single, non-interleaved runs of each strategy.
//
// Two profiles are provided: Quick (CI-sized, seconds per figure) and Paper
// (the paper's parameters; hours). Both preserve the tuple ratios, which is
// what the relative costs depend on.
package experiments
