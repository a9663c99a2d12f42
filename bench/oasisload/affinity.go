package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a CPU affinity mask for up to 1024 CPUs, as
// sched_setaffinity(2) takes it.
type cpuSet [16]uint64

func (s *cpuSet) set(cpu int)      { s[cpu/64] |= 1 << (uint(cpu) % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(uint(cpu)%64)) != 0 }

func (s *cpuSet) list() []int {
	var cpus []int
	for cpu := 0; cpu < len(s)*64; cpu++ {
		if s.has(cpu) {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

func getAffinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if errno != 0 {
		return s, errno
	}
	return s, nil
}

func setAffinity(tid int, s *cpuSet) error {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if errno != 0 {
		return errno
	}
	return nil
}

// confineTo restricts every thread of this process to the last n CPUs
// it may run on. Threads and child processes created afterwards
// inherit the restriction, so the daemons are confined with the
// generator.
//
// Why: each client is a closed loop — generator and daemon alternate,
// never overlap — so n clients keep at most n CPUs busy. Left
// unconfined on a small virtual machine, the scheduler spreads the two
// sides over different virtual CPUs and every request pays
// cross-CPU wake-ups that cost more than the request (measured on the
// 2-vCPU host this was written on: introspect p50 52 µs and 52 µs of
// server CPU confined to one CPU, 85 µs and 99 µs unconfined, 145 µs
// and 107 µs with the two sides pinned apart), and which CPU a thread
// lands on changes the result from one second to the next. Confined,
// the benchmark measures the program and not the hypervisor's
// inter-processor interrupts.
func confineTo(n int) ([]int, error) {
	allowed, err := getAffinity(0)
	if err != nil {
		return nil, fmt.Errorf("reading CPU affinity: %w", err)
	}
	cpus := allowed.list()
	if n < len(cpus) {
		cpus = cpus[len(cpus)-n:]
	}
	var want cpuSet
	for _, cpu := range cpus {
		want.set(cpu)
	}
	// Twice over the thread list: a thread started between the listing
	// and the call inherits its creator's mask, which the first pass may
	// not have reached yet.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return nil, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if err := setAffinity(tid, &want); err != nil && err != syscall.ESRCH {
				return nil, fmt.Errorf("confining thread %d to CPUs %v: %w", tid, cpus, err)
			}
		}
	}
	return cpus, nil
}
