//go:build !race

package serve

// RaceEnabled reports whether the race detector is compiled in. The
// zero-alloc pins skip under -race: the race runtime instruments
// sync.Pool operations with bookkeeping allocations that do not exist in
// production builds. The pins are enforced by the regular (non-race) test
// run, which CI always executes alongside the race run. It is exported
// from this in-package test file so the external test package sees it too.
const RaceEnabled = false
