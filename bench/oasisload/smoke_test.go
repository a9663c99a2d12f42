package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// smokeScale shrinks the populations and the probes so that the four
// workloads, traced and untraced, finish in well under a minute.
var smokeScale = scale{hotTokens: 300, keptTokens: 64, peerCerts: 128, stormK: 4, restartSample: 16, probeOps: 40, probeBatch: 500, traceSample: 200}

func smokeConfig() runConfig {
	return runConfig{
		seed: 7, window: time.Second, warmup: 200 * time.Millisecond, clients: 1,
		minSetups: 1, maxSetups: 1, sc: smokeScale, diagnosticOnly: true,
	}
}

func keys(m map[string]wireMetric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s: %d names, want %d\n got  %v\n want %v", what, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: name %d is %q, want %q\n got  %v\n want %v", what, i, got[i], want[i], got, want)
			return
		}
	}
}

// TestSmokeEveryWorkload runs every workload for one second, untraced
// and traced, with every correctness check live, and holds the output
// to the catalogue: each declared metric appears exactly once on every
// workload it applies to, and nothing undeclared reaches the driver.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemons")
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.cleanup()
	tracePath := filepath.Join(h.outDir, "trace.jsonl")
	_ = os.Remove(tracePath) // a stale trace would satisfy the check below

	var gated, declaredLayers []string
	for _, d := range endToEnd {
		if d.gated {
			gated = append(gated, d.name)
		}
	}
	for _, d := range perLayer {
		declaredLayers = append(declaredLayers, d.name)
	}

	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			res, err := runWorkload(h, def, smokeConfig())
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			// Every end-to-end metric of the catalogue that applies: the
			// gated ones and failed_share everywhere, a class's pair
			// where the workload performs the class.
			want := append([]string{"failed_share"}, gated...)
			for _, c := range def.classes {
				want = append(want, opClassNames[c]+"_p50_us", opClassNames[c]+"_p90_us")
			}
			var got []string
			for name, m := range res.EndToEnd {
				got = append(got, name)
				if d, ok := e2eByName(name); !ok {
					t.Errorf("end-to-end metric %s is not in the catalogue", name)
				} else if d.unit != m.Unit {
					t.Errorf("%s: unit %q, the catalogue says %q", name, m.Unit, d.unit)
				}
				if m.Value <= 0 && name != "failed_share" {
					t.Errorf("%s = %v: an end-to-end metric is never zero", name, m.Value)
				}
			}
			sort.Strings(got)
			sameSet(t, "end-to-end metrics", got, want)
			sameSet(t, "driver line, -trace 0", keys(contractMetrics(res, 0)), gated)
			if res.PerLayer["gateway.shed_share"].Value != 0 {
				t.Errorf("gateway shed %v of the requests with the limiter off", res.PerLayer["gateway.shed_share"].Value)
			}

			traced, err := runTraced(h, def, smokeConfig())
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			sameSet(t, "driver line, -trace 1", keys(contractMetrics(traced, 1)), declaredLayers)
			if len(traced.Budget) == 0 {
				t.Error("traced pass printed no budget")
			}
		})
	}

	// The trace holds spans of all four workloads, each naming a parent
	// recorded before it within the same trace.
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]map[uint64]uint64{} // workload -> span -> trace
	layers := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if seen[s.Workload] == nil {
			seen[s.Workload] = map[uint64]uint64{}
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %d of %s ends before it starts", s.Span, s.Workload)
		}
		if s.Parent != 0 {
			if tr, ok := seen[s.Workload][s.Parent]; !ok || tr != s.Trace {
				t.Errorf("span %d of %s names parent %d, which is not an earlier span of trace %d", s.Span, s.Workload, s.Parent, s.Trace)
			}
		}
		seen[s.Workload][s.Span] = s.Trace
		layers[s.Layer] = true
	}
	if len(seen) != len(workloads) {
		t.Errorf("trace covers %d workloads, want %d", len(seen), len(workloads))
	}
	for _, l := range []string{"oasisd", "gateway", "bus", "oasis", "cert", "credrec", "storage", "rdl", "event"} {
		if !layers[l] {
			t.Errorf("no span of layer %s in the trace", l)
		}
	}
}

// A daemon the harness started is gone after cleanup, whatever state
// the run was in.
func TestCleanupKillsDaemons(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real daemon")
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	d, err := h.start("Login")
	if err != nil {
		h.cleanup()
		t.Fatal(err)
	}
	dir, err := h.tmpDir("cleanup")
	if err != nil {
		h.cleanup()
		t.Fatal(err)
	}
	h.cleanup()
	if _, err := readProc(d.pid); err == nil {
		t.Errorf("oasisd pid %d survives cleanup", d.pid)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s survives cleanup", dir)
	}
	if _, err := dialHTTP(d.httpAddr); err == nil {
		t.Errorf("the dead daemon's gateway port %s still accepts", d.httpAddr)
	}
}
