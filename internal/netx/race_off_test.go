//go:build !race

package netx

const raceAllocs = 0
