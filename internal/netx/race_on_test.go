//go:build race

package netx

// raceAllocs is the room the allocation ceilings leave the race detector,
// under which sync.Pool drops buffers at random.
const raceAllocs = 3
