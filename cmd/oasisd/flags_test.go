package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// The fault plane left the binary with its two flags, the shard ring
// with -shard-ring, and the gateway's shed with -http-pressure: a
// deployment script still passing one must fail loudly, not run
// without the faults, the ring or the shed it asked for.
func TestFaultFlagsAreUnknown(t *testing.T) {
	for _, name := range []string{"-fault-schedule", "-fault-seed", "-shard-ring", "-http-pressure"} {
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
	if n != 15 {
		t.Errorf("oasisd declares %d flags, want 15 (-http-pressure went with the one backlog it could shed on, since a notification send no longer waits on a dial; -shard-ring went with the backlog ring, which nothing deployed filled; -admin-listen stays closed by default, since pprof and per-source state must never sit on a port that opens unasked): a new one needs a stated reason why a default could not do", n)
	}
}
