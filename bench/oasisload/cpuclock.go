package main

import (
	"syscall"
	"unsafe"
)

// cpuClockNS reads a process's cumulative CPU time in nanoseconds from
// its POSIX CPU-time clock (what clock_getcpuclockid(3) names): one
// system call and nanosecond resolution, where /proc/<pid>/stat costs
// a file read and counts in 10 ms ticks. The clock id of process pid is
// (~pid << 3) | CPUCLOCK_SCHED.
func cpuClockNS(pid int) (int64, error) {
	const cpuclockSched = 2
	clockid := uintptr(int32((^pid)<<3 | cpuclockSched))
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockid, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, errno
	}
	return ts.Nano(), nil
}
