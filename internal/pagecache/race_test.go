//go:build race

package pagecache

// raceEnabled reports that the race detector is on; it changes
// allocation behaviour (sync.Pool drops items at random), so the
// allocation pins skip.
const raceEnabled = true
