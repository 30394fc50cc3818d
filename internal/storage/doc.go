// Package storage implements the paged relational storage engine underneath
// the factorized learning algorithms. It plays the role PostgreSQL plays in
// the paper's artifact: durable storage of the input relations S and R and
// of the materialized join result T.
//
// Relations are heap files of fixed-width records (int64 key columns,
// float64 feature columns, optional float64 target) packed into 8 KiB pages.
// There is one read path: a Scanner reads pages straight from the file into
// a buffer of its own, in append order or from any row SeekRow moves it to.
// Nothing caches pages. The database counts every page read and written
// (IOStats), so that the paper's analytic I/O cost model (§V-A, block nested
// loops join page counts) can be verified against measured counters.
//
// The catalog and the blobs are replaced whole through internal/durable;
// heap files are written in place and fsynced by CheckpointSync.
package storage
