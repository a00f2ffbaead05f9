//go:build !race

package server

// raceEnabled reports whether the race detector is compiled in; the
// allocation gates skip under it.
const raceEnabled = false
