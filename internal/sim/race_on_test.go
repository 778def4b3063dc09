//go:build race

package sim_test

// raceEnabled reports whether the race detector is compiled in. The
// exactness tests compare single-threaded runs, which it cannot check, so
// under it they run a sample of the campaigns.
const raceEnabled = true
