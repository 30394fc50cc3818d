//go:build race

package serve

// RaceEnabled: see race_off_test.go.
const RaceEnabled = true
