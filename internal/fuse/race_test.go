//go:build race

package fuse

// raceEnabled reports that the race detector is on; it changes
// allocation behaviour, so the allocation pins skip.
const raceEnabled = true
