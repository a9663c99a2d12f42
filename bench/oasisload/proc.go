package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTicksPerSec is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux port Go supports.
const clockTicksPerSec = 100

// cpuTimes is a process's cumulative CPU time in seconds.
type cpuTimes struct{ user, sys float64 }

func (c cpuTimes) total() float64 { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

// parseProcStat extracts utime and stime (fields 14 and 15) from the
// content of /proc/<pid>/stat. The command name in field 2 may contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseProcStat(data []byte) (cpuTimes, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return cpuTimes{}, fmt.Errorf("proc stat: no command field in %q", data)
	}
	fields := strings.Fields(string(data[i+1:]))
	// fields[0] is field 3 (state), so utime is fields[11], stime fields[12].
	if len(fields) < 13 {
		return cpuTimes{}, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(fields))
	}
	ut, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return cpuTimes{}, fmt.Errorf("proc stat: utime: %w", err)
	}
	st, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return cpuTimes{}, fmt.Errorf("proc stat: stime: %w", err)
	}
	return cpuTimes{float64(ut) / clockTicksPerSec, float64(st) / clockTicksPerSec}, nil
}

// procStatus holds the fields of /proc/<pid>/status the benchmark reads.
type procStatus struct {
	vmHWMkB     uint64 // peak resident set, process-wide
	ctxSwitches uint64 // voluntary + involuntary, of the one thread the file describes
}

// parseProcStatus reads VmHWM and the context-switch counters from the
// content of a status file. VmHWM is absent for kernel threads and
// zombies; the switch counters are always present.
func parseProcStatus(data []byte) (procStatus, error) {
	var ps procStatus
	seen := 0
	for _, line := range strings.Split(string(data), "\n") {
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch key {
		case "VmHWM":
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return ps, fmt.Errorf("proc status: VmHWM %q", rest)
			}
			v, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return ps, fmt.Errorf("proc status: VmHWM: %w", err)
			}
			ps.vmHWMkB = v
		case "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches":
			v, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return ps, fmt.Errorf("proc status: %s: %w", key, err)
			}
			ps.ctxSwitches += v
			seen++
		}
	}
	if seen != 2 {
		return ps, fmt.Errorf("proc status: %d context-switch counters, want 2", seen)
	}
	return ps, nil
}

// parseLoadAvg returns the 1-minute load average from /proc/loadavg.
func parseLoadAvg(data []byte) (float64, error) {
	f := strings.Fields(string(data))
	if len(f) < 1 {
		return 0, fmt.Errorf("proc loadavg: empty")
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0, fmt.Errorf("proc loadavg: %w", err)
	}
	return v, nil
}

// procSample is one reading of a process's counters.
type procSample struct {
	cpu         cpuTimes
	ctxSwitches uint64 // summed over the process's threads
	vmHWMkB     uint64
}

// readProc samples a live process. The context-switch counters in
// /proc/<pid>/status cover only the main thread, so they are summed
// over /proc/<pid>/task/*; a thread that exits between the listing and
// the read is skipped.
func readProc(pid int) (procSample, error) {
	var s procSample
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	data, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	if s.cpu, err = parseProcStat(data); err != nil {
		return s, err
	}
	data, err = os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	main, err := parseProcStatus(data)
	if err != nil {
		return s, err
	}
	s.vmHWMkB = main.vmHWMkB
	tasks, err := os.ReadDir(filepath.Join(dir, "task"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, "task", t.Name(), "status"))
		if err != nil {
			continue
		}
		ts, err := parseProcStatus(data)
		if err != nil {
			return s, err
		}
		s.ctxSwitches += ts.ctxSwitches
	}
	return s, nil
}

// loadAvg reads the host's 1-minute load average.
func loadAvg() (float64, error) {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, err
	}
	return parseLoadAvg(data)
}
