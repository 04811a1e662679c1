//go:build !race

package pagecache

const raceEnabled = false
