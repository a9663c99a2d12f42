package main

import (
	"os"
	"testing"
)

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and a closing parenthesis, as the
	// kernel prints it: fields are counted from the last ')'.
	line := "4242 (oasis d) x) S 1 4242 4242 0 -1 4194560 1528 0 0 0 731 269 0 0 20 0 9 0 123456 1268000000 3100 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got.user != 7.31 || got.sys != 2.69 || got.total() != 10 {
		t.Errorf("utime/stime = %v/%v s, want 7.31/2.69", got.user, got.sys)
	}
	for _, bad := range []string{"", "1 no-parens S 1", "1 (x) S 1 2 3", "1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 1 0 0"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func TestParseProcStatus(t *testing.T) {
	status := "Name:\toasisd\nVmPeak:\t 1268000 kB\nVmHWM:\t   36480 kB\nVmRSS:\t   30000 kB\nThreads:\t9\nvoluntary_ctxt_switches:\t1200\nnonvoluntary_ctxt_switches:\t34\n"
	got, err := parseProcStatus([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if got.vmHWMkB != 36480 || got.ctxSwitches != 1234 {
		t.Errorf("VmHWM=%d kB ctx=%d, want 36480 and 1234", got.vmHWMkB, got.ctxSwitches)
	}
	// A zombie has the counters but no VmHWM: zero, not an error.
	if got, err := parseProcStatus([]byte("voluntary_ctxt_switches:\t1\nnonvoluntary_ctxt_switches:\t2\n")); err != nil || got.vmHWMkB != 0 || got.ctxSwitches != 3 {
		t.Errorf("status without VmHWM: %+v, %v", got, err)
	}
	for _, bad := range []string{"", "VmHWM:\t12 MB\nvoluntary_ctxt_switches:\t1\nnonvoluntary_ctxt_switches:\t2\n", "voluntary_ctxt_switches:\tx\nnonvoluntary_ctxt_switches:\t2\n", "voluntary_ctxt_switches:\t1\n"} {
		if _, err := parseProcStatus([]byte(bad)); err == nil {
			t.Errorf("parseProcStatus(%q) succeeded", bad)
		}
	}
}

func TestParseLoadAvg(t *testing.T) {
	if got, err := parseLoadAvg([]byte("2.37 1.80 1.92 3/85 7330\n")); err != nil || got != 2.37 {
		t.Errorf("parseLoadAvg = %v, %v; want 2.37", got, err)
	}
	for _, bad := range []string{"", "busy 1 2"} {
		if _, err := parseLoadAvg([]byte(bad)); err == nil {
			t.Errorf("parseLoadAvg(%q) succeeded", bad)
		}
	}
}

// The parsers against the live kernel: this process.
func TestReadProcSelf(t *testing.T) {
	s, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if s.vmHWMkB == 0 {
		t.Error("VmHWM of a live process read as 0")
	}
	ns, err := cpuClockNS(os.Getpid())
	if err != nil || ns <= 0 {
		t.Errorf("cpuClockNS(self) = %d, %v", ns, err)
	}
	if _, err := loadAvg(); err != nil {
		t.Error(err)
	}
}
