package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{0.50, 5}, {0.90, 9}, {0.99, 10}, {1.0, 10}, {0.05, 1}, {0.10, 1}, {0.11, 2},
	} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{42}, 0.9); got != 42 {
		t.Errorf("percentile of one sample = %v, want 42", got)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{9, 1, 5}, 5}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its argument: %v", in)
	}
}

// fakeUnit builds a closed unit of n requests that took perRequest each,
// every latency of the class equal to lat.
func fakeUnit(n int, perRequest time.Duration, lat float64, cpuNS int64) *unit {
	start := time.Unix(1000, 0)
	u := &unit{start: start, end: start.Add(time.Duration(n) * perRequest), requests: n, allDone: int64(n), cpuNS: cpuNS, attempted: n}
	for i := 0; i < n; i++ {
		u.lat[opIntrospect] = append(u.lat[opIntrospect], lat)
	}
	return u
}

func TestCleanUnitsAreTheFastestShare(t *testing.T) {
	rec := &recorder{cur: &unit{}}
	// Eight units: two fast (50 us per request), six disturbed.
	for i := 0; i < 6; i++ {
		rec.units = append(rec.units, fakeUnit(100, 80*time.Microsecond, 75, 6_000_000))
	}
	rec.units = append(rec.units, fakeUnit(100, 50*time.Microsecond, 45, 4_000_000), fakeUnit(100, 50*time.Microsecond, 47, 4_000_000))
	rec.units[0].failed, rec.units[0].shed, rec.units[0].attempted = 2, 1, 102

	w := mergeRecorders([]*recorder{rec})
	if len(w.all) != 8 || len(w.clean) != 2 {
		t.Fatalf("%d units, %d clean; want 8 and 2 (a quarter)", len(w.all), len(w.clean))
	}
	if w.attempted != 802 || w.failed != 2 || w.shed != 1 {
		t.Errorf("attempted/failed/shed = %d/%d/%d, want 802/2/1", w.attempted, w.failed, w.shed)
	}
	clean := pooled(w.clean, opIntrospect)
	if len(clean) != 200 || percentile(clean, 0.5) != 45 || percentile(clean, 0.9) != 47 {
		t.Errorf("clean pool: n=%d p50=%v p90=%v, want 200, 45, 47", len(clean), percentile(clean, 0.5), percentile(clean, 0.9))
	}
	if got := percentile(pooled(w.all, opIntrospect), 0.5); got != 75 {
		t.Errorf("p50 over all units = %v, want 75", got)
	}
	if got := throughput(w.clean); got < 19999 || got > 20001 {
		t.Errorf("clean throughput = %v, want 20000 requests/s", got)
	}
	if got := cpuPerRequest(w.clean); got != 40 {
		t.Errorf("clean CPU per request = %v us, want 40", got)
	}
	if got := completed(w.all); got != 800 {
		t.Errorf("completed = %d, want 800", got)
	}
}

func TestRecorderDropsWarmupAndOpenUnits(t *testing.T) {
	sh := &shared{}
	rec := newRecorder(time.Now().Add(time.Hour), sh) // the window never opens
	for i := 0; i < unitRequests; i++ {
		rec.observe(opIntrospect, time.Microsecond, 1)
	}
	rec.endRound()
	if len(rec.units) != 0 || rec.cur.requests != 0 {
		t.Errorf("a unit begun before the window was kept or left open: %d units, %d requests in the open one", len(rec.units), rec.cur.requests)
	}
	rec = newRecorder(time.Now().Add(-time.Second), sh)
	for i := 0; i < unitRequests-1; i++ {
		rec.observe(opIntrospect, time.Microsecond, 1)
	}
	rec.endRound()
	if len(rec.units) != 0 {
		t.Errorf("a unit closed with %d of %d requests", unitRequests-1, unitRequests)
	}
	rec.count()
	rec.fail(true)
	rec.endRound()
	if len(rec.units) != 1 {
		t.Fatalf("%d units after %d requests, want 1", len(rec.units), unitRequests)
	}
	u := rec.units[0]
	if u.requests != unitRequests || u.attempted != unitRequests+1 || u.failed != 1 || u.shed != 1 {
		t.Errorf("unit: requests=%d attempted=%d failed=%d shed=%d", u.requests, u.attempted, u.failed, u.shed)
	}
	if got := sh.done.Load(); got != 2*unitRequests {
		t.Errorf("shared completed count = %d, want %d", got, 2*unitRequests)
	}
}
