//go:build race

package service

// raceEnabled reports whether the race detector instruments this build;
// under it sync.Pool drops a random share of what is put back, so
// allocation counts vary from run to run.
const raceEnabled = true
