package oasis

import (
	"expvar"
	"net"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/credrec"
	"oasis/internal/ids"
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

// gate holds back the writes of the connections a gatedListener hands
// out while it is shut, and says when a write waits at it.
type gate struct {
	mu      sync.Mutex
	shut    chan struct{} // nil while open; closed by open
	waiting chan struct{} // one slot: a write found the gate shut
}

func (g *gate) close() {
	g.mu.Lock()
	g.shut = make(chan struct{})
	g.mu.Unlock()
}

func (g *gate) open() {
	g.mu.Lock()
	close(g.shut)
	g.shut = nil
	g.mu.Unlock()
}

func (g *gate) pass() {
	g.mu.Lock()
	shut := g.shut
	g.mu.Unlock()
	if shut != nil {
		select {
		case g.waiting <- struct{}{}:
		default:
		}
		<-shut
	}
}

type gatedListener struct {
	net.Listener
	g *gate
}

func (l gatedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	return gatedConn{conn, l.g}, err
}

type gatedConn struct {
	net.Conn
	g *gate
}

func (c gatedConn) Write(b []byte) (int, error) {
	c.g.pass()
	return c.Conn.Write(b)
}

// TestQueuedReplyKeepsItsBlock: a reply the read loop queues behind a
// running flusher takes its call's block with it. The issuer's writer
// is held inside a socket write, flushing a heartbeat to a watcher that
// has stopped reading; a validate answered on the read loop then
// queues its reply, and the next validate on the same connection —
// refused, its client not the certificate's — must not change that
// reply's roles or state before it is encoded.
func TestQueuedReplyKeepsItsBlock(t *testing.T) {
	h := newHarness(t)
	RegisterWireTypes()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	g := &gate{waiting: make(chan struct{}, 1)}
	serving := make(chan struct{})
	go func() { defer close(serving); _ = h.net.ServeTCP(gatedListener{ln, g}) }()
	defer func() { ln.Close(); <-serving }()
	caller := bus.NewNetwork(h.clk)
	if err := caller.AddRemote("Login", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer caller.CloseRemotes()

	c := h.client("ely")
	login := h.logOn(t, c, "dm")
	// A watch makes the caller a watcher of Login's, heartbeats and all.
	if _, err := caller.Call("Peer", "Login", "validate", ValidateArg{Cert: login, Client: c, Watch: true}); err != nil {
		t.Fatal(err)
	}
	g.close()
	h.login.HeartbeatTick()
	<-g.waiting // the flusher is in the socket write

	type answer struct {
		reply ValidateReply
		err   error
	}
	validate := func(client ids.ClientID) chan answer {
		ch := make(chan answer, 1)
		go func() {
			res, err := caller.Call("Peer", "Login", "validate", ValidateArg{Cert: login, Client: client})
			reply, _ := res.(ValidateReply)
			ch <- answer{reply, err}
		}()
		return ch
	}
	// The read loop answers a call it has decoded before it reads on, so
	// the second call is sent once the first is counted: the first had
	// nothing behind it, and its reply queues before the second is read.
	served := callCounts(h.net)["validate"] + 1
	first := validate(c)
	for callCounts(h.net)["validate"] < served {
		time.Sleep(time.Millisecond)
	}
	frauds := h.login.rejected[Fraud].Value() + 1
	second := validate(h.client("ely"))
	for h.login.rejected[Fraud].Value() < frauds {
		time.Sleep(time.Millisecond)
	}
	g.open()
	if a := <-first; a.err != nil || a.reply.State != credrec.True || len(a.reply.Roles) != 1 || a.reply.Roles[0] != "LoggedOn" {
		t.Errorf("queued reply %+v, %v; want state true and roles [LoggedOn]", a.reply, a.err)
	}
	if a := <-second; a.err == nil || !strings.Contains(a.err.Error(), "different client") {
		t.Errorf("second validate answered %+v, %v; want it refused", a.reply, a.err)
	}
}

// TestServedOpsMatchDocs holds docs/PROTOCOLS.md to the op table: its
// table of operations names the table's rows and their payload tags,
// and its table of where each op runs puts an op on the read loop
// exactly when its row declares calls that never wait, and every other
// op on a worker.
func TestServedOpsMatchDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOLS.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(doc)
	section = section[strings.Index(section, "## Inter-service operations"):]
	section = section[:strings.Index(section, "\n### ")]
	tables := strings.SplitN(section, "Where each op runs", 2)
	if len(tables) != 2 {
		t.Fatal(`docs/PROTOCOLS.md has no "Where each op runs" table`)
	}
	opName := regexp.MustCompile("^\\| `([a-z]+)`")
	tag := regexp.MustCompile(`\((\d+)`)
	rows := func(table string) [][]string {
		var out [][]string
		for _, line := range strings.Split(table, "\n") {
			if m := opName.FindStringSubmatch(line); m != nil {
				out = append(out, append([]string{m[1]}, strings.Split(line, "|")[2:]...))
			}
		}
		return out
	}
	h := newHarness(t)
	type shape struct {
		args, reply byte
		inline      bool
	}
	ops := map[string]shape{}
	for _, row := range h.login.Ops() {
		name, a, r, inline := rowShape(row)
		ops[name] = shape{a, r, inline}
	}

	documented := map[string]bool{}
	for _, cells := range rows(tables[0]) {
		op, ok := ops[cells[0]]
		documented[cells[0]] = true
		if !ok {
			t.Errorf("docs list %q, which the op table does not serve", cells[0])
			continue
		}
		for i, want := range []byte{op.args, op.reply} {
			if m := tag.FindStringSubmatch(cells[1+i]); m == nil || m[1] != strconv.Itoa(int(want)) {
				t.Errorf("docs give %q payload tag %v, the table %d", cells[0], m, want)
			}
		}
	}
	onLoop, onWorker := map[string]bool{}, map[string]bool{}
	for _, cells := range rows(tables[1]) {
		switch where := strings.TrimSpace(cells[1]); where {
		case "the read loop":
			onLoop[cells[0]] = true
		case "a worker":
			onWorker[cells[0]] = true
		default:
			t.Errorf("docs serve %q on %q", cells[0], where)
		}
	}
	for name, op := range ops {
		if !documented[name] {
			t.Errorf("the op table serves %q, which the docs do not list", name)
		}
		if onLoop[name] != op.inline {
			t.Errorf("docs put %q on the read loop: %v; its row declares calls that never wait: %v", name, onLoop[name], op.inline)
		}
		if !op.inline && !onWorker[name] {
			t.Errorf("docs do not put %q on a worker", name)
		}
	}
	for name := range onWorker {
		if _, ok := ops[name]; !ok {
			t.Errorf("docs say where %q runs, which the op table does not serve", name)
		}
	}
}
