package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction: positive is a regression.
func worsening(d e2eDecl, a, b float64) float64 {
	if d.name == "failed_share" {
		return b - a // an absolute rise: the baseline is normally zero
	}
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults prints, per workload and end-to-end metric, both
// values, the relative difference and the bound, and reports whether
// every metric stayed within its bound. A metric present in only one
// file is a failure: the two runs did not measure the same thing.
func compareResults(w io.Writer, a, b *resultFile) bool {
	if a.Env.WindowSeconds != b.Env.WindowSeconds || a.Env.Clients != b.Env.Clients || a.Env.NProc != b.Env.NProc {
		fmt.Fprintf(w, "warning: run shapes differ (window %gs/%gs, clients %d/%d, nproc %d/%d)\n",
			a.Env.WindowSeconds, b.Env.WindowSeconds, a.Env.Clients, b.Env.Clients, a.Env.NProc, b.Env.NProc)
	}
	fmt.Fprintf(w, "a: commit %s seed %d   b: commit %s seed %d\n", a.Env.Commit, a.Env.Seed, b.Env.Commit, b.Env.Seed)
	byName := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	ok := true
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%s: missing from b\n", ra.Workload)
			ok = false
			continue
		}
		fmt.Fprintf(w, "== %s\n", ra.Workload)
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "   incorrect run (a correct=%v, b correct=%v)\n", ra.Correct, rb.Correct)
			ok = false
		}
		for _, d := range endToEnd {
			ma, ina := ra.EndToEnd[d.name]
			mb, inb := rb.EndToEnd[d.name]
			if !ina && !inb {
				continue
			}
			if ina != inb {
				fmt.Fprintf(w, "   %-26s present in only one file  FAIL\n", d.name)
				ok = false
				continue
			}
			worse := worsening(d, ma.Value, mb.Value)
			verdict := "ok"
			if worse > d.bound {
				verdict = "FAIL"
				ok = false
			}
			fmt.Fprintf(w, "   %-26s %12.4f %12.4f %-6s %+7.2f%%  bound %5.1f%%  %s\n",
				d.name, ma.Value, mb.Value, ma.Unit, 100*worse, 100*d.bound, verdict)
		}
	}
	return ok
}

// compareFiles is the repeatability gate and the before/after tool:
// exit status 1 when any metric worsened from a to b by more than its
// bound, or failed_share rose.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oasisload: %v\n", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oasisload: %v\n", err)
		return 2
	}
	if compareResults(w, a, b) {
		fmt.Fprintln(w, "PASS: every end-to-end metric within its bound")
		return 0
	}
	fmt.Fprintln(w, "FAIL: at least one end-to-end metric outside its bound")
	return 1
}
