//go:build race

package chain

// raceEnabled lets the allocation gates skip under the race detector, whose
// instrumentation allocates on its own account.
const raceEnabled = true
