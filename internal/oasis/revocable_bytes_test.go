//go:build !race

package oasis

import (
	"fmt"
	"runtime"
	"testing"

	"oasis/internal/credrec"
)

// TestRevocableInstanceBytes bounds what a §4.11 role instance costs
// once its certificates are gone. 16 384 storm-shaped instances — a
// login, 16 sessions under its |> Admin clause, the logout, a sweep,
// 1 024 times — may hold at most 200 B of heap each: the instance's row
// in its rolefile's table, its key with it. A not-revoked fact kept per
// instance beside the row measured some 330 B. The race detector's
// shadow memory would distort the figure, so the test is left out of
// race builds.
func TestRevocableInstanceBytes(t *testing.T) {
	const rounds, sessions = 1024, 16
	svc, client := stormLogin(t, credrec.NewStore())
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	c := client("ely")
	before := heap()
	for i := range rounds {
		user := fmt.Sprintf("u%05d", i)
		login := stormLogOn(t, svc, c, user)
		for n := range sessions {
			stormSession(t, svc, c, login, user, n)
		}
		if err := svc.Exit(login, c); err != nil {
			t.Fatal(err)
		}
		svc.SweepTick()
	}
	after := heap()
	runtime.KeepAlive(svc)
	per := float64(int64(after)-int64(before)) / (rounds * sessions)
	t.Logf("%.0f B of heap per instance over %d instances", per, rounds*sessions)
	if per > 200 {
		t.Fatalf("%.0f B of heap per revocable instance, want at most 200", per)
	}
}
