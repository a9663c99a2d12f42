package main

import (
	"bytes"
	"strings"
	"testing"
)

func resultWith(values map[string]float64) *resultFile {
	res := &workloadResult{Workload: "introspect_hot", Correct: true, EndToEnd: map[string]metric{}}
	for name, v := range values {
		d, _ := e2eByName(name)
		res.EndToEnd[name] = metric{Value: v, Unit: d.unit}
	}
	return &resultFile{Workloads: []*workloadResult{res}}
}

func TestWorseningFollowsTheMetricsDirection(t *testing.T) {
	lower, _ := e2eByName("op_p50_us")
	higher, _ := e2eByName("throughput_ops_s")
	failed, _ := e2eByName("failed_share")
	for _, tc := range []struct {
		d    e2eDecl
		a, b float64
		want float64
	}{
		{lower, 100, 110, 0.10},   // slower: worse
		{lower, 100, 90, -0.10},   // faster: better
		{higher, 1000, 900, 0.10}, // fewer ops/s: worse
		{higher, 1000, 1100, -0.10},
		{failed, 0, 0.002, 0.002}, // absolute, and the baseline may be zero
		{lower, 0, 5, 0},
	} {
		if got := worsening(tc.d, tc.a, tc.b); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("worsening(%s, %v -> %v) = %v, want %v", tc.d.name, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareGatesOnTheBound(t *testing.T) {
	p50, _ := e2eByName("op_p50_us")
	base := map[string]float64{"op_p50_us": 100, "throughput_ops_s": 1000, "failed_share": 0}
	within := map[string]float64{"op_p50_us": 100 * (1 + p50.bound*0.9), "throughput_ops_s": 1000, "failed_share": 0}
	beyond := map[string]float64{"op_p50_us": 100 * (1 + p50.bound*1.1), "throughput_ops_s": 1000, "failed_share": 0}
	failing := map[string]float64{"op_p50_us": 100, "throughput_ops_s": 1000, "failed_share": 0.01}

	var out bytes.Buffer
	if !compareResults(&out, resultWith(base), resultWith(within)) {
		t.Errorf("a change inside the bound failed the gate:\n%s", out.String())
	}
	if !compareResults(&out, resultWith(beyond), resultWith(base)) {
		t.Error("an improvement failed the gate")
	}
	out.Reset()
	if compareResults(&out, resultWith(base), resultWith(beyond)) {
		t.Error("a regression beyond the bound passed the gate")
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "op_p50_us") {
		t.Errorf("the report does not name the failing metric:\n%s", out.String())
	}
	if compareResults(&out, resultWith(base), resultWith(failing)) {
		t.Error("a rise in failed_share passed the gate")
	}
}

func TestCompareRefusesMismatchedFiles(t *testing.T) {
	var out bytes.Buffer
	a := resultWith(map[string]float64{"op_p50_us": 100, "issue_p50_us": 50})
	b := resultWith(map[string]float64{"op_p50_us": 100})
	if compareResults(&out, a, b) {
		t.Error("a metric present in only one file passed the gate")
	}
	b.Workloads[0].Workload = "peer_validate"
	if compareResults(&out, a, b) {
		t.Error("a workload missing from the second file passed the gate")
	}
	c := resultWith(map[string]float64{"op_p50_us": 100})
	c.Workloads[0].Correct = false
	if compareResults(&out, c, c) {
		t.Error("an incorrect run passed the gate")
	}
}
