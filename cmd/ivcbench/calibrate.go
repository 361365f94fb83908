package main

import (
	"runtime"
	"slices"
	"time"
)

// The host calibration: a fixed kernel of this program's own, timed
// before and after the suite, so a snapshot carries the host's speed
// and cmd/benchdiff can tell a slow host from a slow change. On a
// shared host the same code's time moves with the other guests' load
// (turbo frequency, shared caches); the kernel's code never changes, so
// its time moves only with the host.

// calSteps is the kernel's length, about 350 µs on a 2 GHz Xeon.
const calSteps = 1 << 16

// calRuns is how many kernel runs each end of the suite times.
const calRuns = 11

// calTable is the kernel's data: 256 KiB, resident in L2 like a tile of
// the solvers' grids.
var calTable = func() []uint32 {
	t := make([]uint32, 1<<16)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return t
}()

// calSink keeps the kernel's result live.
var calSink uint64

// calKernel mixes the solvers' kinds of work: loads from an L2-resident
// table, integer arithmetic, and a branch taken one time in eight.
func calKernel() uint64 {
	var acc uint64
	j := uint32(0)
	mask := uint32(len(calTable) - 1)
	for range calSteps {
		j = (j*1664525 + 1013904223) & mask
		v := calTable[j]
		if v&7 == 0 {
			acc ^= uint64(v) << 3
		} else {
			acc += uint64(v)
		}
	}
	return acc
}

// calibrate times calRuns kernel runs on a locked thread and appends
// their times to ts. The wall clock is read around each run, so a run
// the scheduler preempted reads long; calibrationUS takes the median.
func calibrate(ts []time.Duration) []time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for range calRuns {
		t0 := time.Now()
		calSink += calKernel()
		ts = append(ts, time.Since(t0))
	}
	return ts
}

// calibrationUS returns the median kernel time in microseconds.
func calibrationUS(ts []time.Duration) float64 {
	s := slices.Clone(ts)
	slices.Sort(s)
	return float64(s[len(s)/2]) / float64(time.Microsecond)
}
