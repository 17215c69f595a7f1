//go:build !race

package race

// Enabled is true when the build has -race.
const Enabled = false
