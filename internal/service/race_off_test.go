//go:build !race

package service

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
