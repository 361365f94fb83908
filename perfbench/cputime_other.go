//go:build !linux

package main

import "time"

var processStart = time.Now()

// cpuNow falls back to wall time where the process CPU clock is not read.
func cpuNow() time.Duration { return time.Since(processStart) }

// threadCPUNow falls back to wall time too.
func threadCPUNow() time.Duration { return time.Since(processStart) }

// stealTicks is not reported outside Linux.
func stealTicks() int64 { return -1 }
