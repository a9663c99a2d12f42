package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// The fault plane left the binary with its two flags (PR 21): a
// deployment script still passing them must fail loudly, not run
// without the faults it asked for.
func TestFaultFlagsAreUnknown(t *testing.T) {
	for _, name := range []string{"-fault-schedule", "-fault-seed"} {
		fs := flag.NewFlagSet("oasisd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseFlags(fs, []string{name, "x"})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+name) {
			t.Errorf("%s: err = %v, want an unknown-flag error", name, err)
		}
	}
}

func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("oasisd", flag.ContinueOnError)
	cfg, err := parseFlags(fs, []string{"-name", "Conf", "-remote", "Login=127.0.0.1:7466", "-remote", "Golf=127.0.0.1:7467"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.name != "Conf" || cfg.failsafeMissed != 3 || cfg.syncMode != "batched" ||
		len(cfg.remotes) != 2 || cfg.remotes["Golf"] != "127.0.0.1:7467" {
		t.Errorf("parsed config = %+v", cfg)
	}
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 17 {
		t.Errorf("oasisd declares %d flags, want 17: a new one needs a line in the PR text saying why a default could not do", n)
	}
}
