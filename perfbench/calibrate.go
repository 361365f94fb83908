package main

import (
	"runtime"
	"slices"
	"time"
)

// The end-to-end times are scaled by a calibration kernel that runs
// between operations. On a shared host the CPU's speed drifts with the
// load of the other guests (turbo frequency, shared caches): CPU time of
// the same code moved by up to a fifth between consecutive runs. The
// kernel is the benchmark's own fixed code, so its CPU time measures only
// the host's speed at that moment, and an operation's CPU time divided by
// the kernel's nearby median measures only the program.

// calRef is the kernel's CPU time on the reference host the scaled times
// are quoted for: a time of x ms reads "x ms where the kernel takes
// calRef".
const calRef = 350 * time.Microsecond

// calSteps is the kernel's length, about calRef on a 2 GHz Xeon.
const calSteps = 1 << 16

// calWindow is how many samples on each side of an operation its scale
// comes from.
const calWindow = 8

// calTable is the kernel's data: 256 KiB, resident in L2 like the
// solve-batch grids.
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
	for i := uint32(0); i < calSteps; i++ {
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

// calibrate runs the kernel once on a locked thread and returns its CPU
// time.
func calibrate() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPUNow()
	calSink += calKernel()
	return threadCPUNow() - t0
}

// calMedian calibrates n times and returns the median.
func calMedian(n int) time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = calibrate()
	}
	slices.Sort(s)
	return s[n/2]
}

// scale returns ts[i] × calRef / the median of cal[i-calWindow..i+calWindow],
// where cal[i] is the kernel's time taken right after operation i.
func scale(ts, cal []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ts))
	win := make([]time.Duration, 0, 2*calWindow+1)
	for i, t := range ts {
		win = append(win[:0], cal[max(i-calWindow, 0):min(i+calWindow+1, len(cal))]...)
		slices.Sort(win)
		out[i] = scaleBy(t, win[len(win)/2])
	}
	return out
}

// scaleBy quotes t, measured while the kernel took cal, for the reference
// host.
func scaleBy(t, cal time.Duration) time.Duration {
	return time.Duration(float64(t) * float64(calRef) / float64(cal))
}
