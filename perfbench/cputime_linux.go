//go:build linux

package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func clockNow(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		// Linux always supports both clocks, so only a bug gets here.
		panic("clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// cpuNow reads the CPU time every thread of this process has used. On a
// guest with paravirtual steal accounting it leaves out the time the
// hypervisor ran other guests, which wall time on a shared host includes.
func cpuNow() time.Duration { return clockNow(clockProcessCPUTime) }

// threadCPUNow reads the CPU time of the calling OS thread.
func threadCPUNow() time.Duration { return clockNow(clockThreadCPUTime) }

// stealTicks reads the host-wide steal time from /proc/stat, in clock
// ticks summed over every CPU; -1 when it is not reported.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}
