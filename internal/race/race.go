//go:build race

// Package race reports whether the race detector is compiled in, for the
// tests whose subject it distorts: testing.AllocsPerRun counts the
// detector's own allocations, so the allocation pins skip themselves.
package race

// Enabled is true when the build has -race.
const Enabled = true
