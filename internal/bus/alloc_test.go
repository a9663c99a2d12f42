//go:build !race

package bus

import (
	"testing"

	"oasis/internal/event"
)

// Like the module's other allocation pins, this file is built without
// the race detector, whose instrumentation makes no promise about
// allocation counts.

// nopPeer answers every call with its argument and allocates nothing.
type nopPeer struct{}

func (nopPeer) Call(from, op string, arg any) (any, error) { return arg, nil }
func (nopPeer) Deliver(event.Notification)                 {}

// TestCallCountsWithoutAllocating: a peer call bumps its op's counter
// without building the counter's name, so a local Call costs the
// endpoint's allocations and none of its own, and Count still answers
// to "call:<op>".
func TestCallCountsWithoutAllocating(t *testing.T) {
	n, _ := newNet(t)
	if err := n.Register("b", nopPeer{}); err != nil {
		t.Fatal(err)
	}
	var arg any = "crr:0.1"
	runs := 0
	if allocs := testing.AllocsPerRun(200, func() {
		runs++
		if _, err := n.Call("a", "b", "validate", arg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Call allocates %.0f times, want 0", allocs)
	}
	if got := n.Count("call:validate"); got != runs {
		t.Errorf(`Count("call:validate") = %d, want %d`, got, runs)
	}
	if got := n.Count("validate"); got != 0 {
		t.Errorf(`Count("validate") = %d, want 0: only "call:<op>" names a call counter`, got)
	}
}
