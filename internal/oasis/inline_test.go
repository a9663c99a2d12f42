package oasis

import (
	"expvar"
	"net"
	"testing"

	"oasis/internal/bus"
	"oasis/internal/credrec"
)

// servePeerPort serves the harness's network on a loopback listener and
// returns a second network that reaches it as "Login" over TCP.
func servePeerPort(t testing.TB, h *harness) *bus.Network {
	t.Helper()
	RegisterWireTypes()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	serving := make(chan struct{})
	go func() { defer close(serving); _ = h.net.ServeTCP(ln) }()
	t.Cleanup(func() { ln.Close(); <-serving })
	caller := bus.NewNetwork(h.clk)
	if err := caller.AddRemote("Login", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(caller.CloseRemotes)
	return caller
}

// callCounts reads a network's per-op call counters.
func callCounts(n *bus.Network) map[string]int64 {
	counts := map[string]int64{}
	n.Vars().Get("calls").(*expvar.Map).Do(func(kv expvar.KeyValue) {
		counts[kv.Key] = kv.Value.(*expvar.Int).Value()
	})
	return counts
}

// TestInlineValidateCallsNobody: the peer port answers validate on its
// read loop, where a call out would hold up every call behind it on
// the link, so answering one, watched or not, must make no call of the
// issuer's own: its network counts the served validates and nothing
// else.
func TestInlineValidateCallsNobody(t *testing.T) {
	h := newHarness(t)
	caller := servePeerPort(t, h)
	c := h.client("ely")
	login := h.logOn(t, c, "dm")
	before := callCounts(h.net)
	for _, watch := range []bool{false, true} {
		if !h.login.NeverWaits("validate", ValidateArg{Cert: login, Client: c, Watch: watch}) {
			t.Fatalf("validate (watch %v) on an in-memory store is not declared inline", watch)
		}
		res, err := caller.Call("Peer", "Login", "validate", ValidateArg{Cert: login, Client: c, Watch: watch})
		if err != nil {
			t.Fatal(err)
		}
		if st := res.(ValidateReply).State; st != credrec.True {
			t.Fatalf("validate (watch %v) answered %v", watch, st)
		}
	}
	after := callCounts(h.net)
	after["validate"] -= 2
	for op, n := range after {
		if n != before[op] {
			t.Errorf("the issuer's network counted %d %q calls beyond the two served validates", n-before[op], op)
		}
	}
}

// TestNeverWaitsDeclaresValidateOnly: only validate is declared, and a
// watched one only where marking the record cannot wait for the disk.
func TestNeverWaitsDeclaresValidateOnly(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sync    credrec.SyncPolicy
		journal bool
		watched bool // a watched validate is declared
	}{
		{"in memory", 0, false, true},
		{"-sync batched", credrec.SyncBatched, true, true},
		{"-sync none", credrec.SyncNone, true, true},
		{"-sync always", credrec.SyncAlways, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := credrec.NewStore()
			if tc.journal {
				store.StartJournal(&deadDisk{}, credrec.JournalOptions{Sync: tc.sync})
				defer store.Close()
			}
			h := newHarnessWith(t, Options{Store: store}, Options{})
			for _, a := range []struct {
				op   string
				arg  any
				want bool
			}{
				{"validate", ValidateArg{}, true},
				{"validate", ValidateArg{Watch: true}, tc.watched},
				{"validate", GetTypesArg{}, false},
				{"gettypes", GetTypesArg{}, false},
				{"resync", ResyncArg{}, false},
				{"treeforward", nil, false},
			} {
				if got := h.login.NeverWaits(a.op, a.arg); got != a.want {
					t.Errorf("NeverWaits(%q, %#v) = %v, want %v", a.op, a.arg, got, a.want)
				}
			}
		})
	}
}
