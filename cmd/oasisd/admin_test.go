package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/gateway"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// syncBuffer is the daemon's log, written by run's goroutines and read
// by the test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var (
	gatewayLogLine = regexp.MustCompile(`federation gateway on (\S+)`)
	adminLogLine   = regexp.MustCompile(`oasisd: admin .* on (\S+)`)
)

// startRun runs the daemon in this process until the returned stop
// (a SIGTERM, as an operator stops it) has it return, and reports its
// log so far once it serves.
func startRun(t *testing.T, cfg config) (logged *syncBuffer, stop func()) {
	t.Helper()
	logged = new(syncBuffer)
	log.SetOutput(logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	serving := make(chan struct{})
	cfg.serving = func(net.Addr, credrec.Recorder) { close(serving) }
	done := make(chan error, 1)
	go func() { done <- run(cfg) }()
	select {
	case <-serving:
	case err := <-done:
		t.Fatalf("run returned before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("run never served")
	}
	return logged, func() {
		t.Helper()
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("stopped run returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not return after SIGTERM")
		}
	}
}

func adminGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return body
}

// TestAdminPort: -admin-listen serves the service's counters beside the
// process's memstats and cmdline, and net/http/pprof; a token issued and
// introspected through the gateway moves "issued" and "validated", and
// the state entries are present. The port closes when run returns, a
// second run in the same process serves its own (no global
// expvar.Publish to collide on), and with no flag no port opens. A
// token entered on a certificate of Up, a service the daemon dials with
// -remote, makes Up a watched source, and its "sources" entry says
// whether a resync of it is in flight and how many notes wait behind it.
func TestAdminPort(t *testing.T) {
	up, upAddr := serveIssuer(t, "Up", "def Badge(u) u: Up.userid\nBadge(u) <-\n")
	rolefile := filepath.Join(t.TempDir(), "login.rdl")
	if err := os.WriteFile(rolefile, []byte(builtinLoginRolefile+"Seat(u) <- Up.Badge(u)*\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{
		name: "Login", rolefilePath: rolefile, scope: "main", listen: "127.0.0.1:0", failsafeMissed: 3, syncMode: "batched",
		httpListen: "127.0.0.1:0", adminListen: "127.0.0.1:0", remotes: remoteFlags{"Up": upAddr},
	}
	for i := range 2 {
		logged, stop := startRun(t, cfg)
		gw, admin := gatewayLogLine.FindStringSubmatch(logged.String()), adminLogLine.FindStringSubmatch(logged.String())
		if gw == nil || admin == nil {
			t.Fatalf("run %d: no gateway or admin address in the log:\n%s", i, logged)
		}
		base, adminBase := "http://"+gw[1], "http://"+admin[1]
		var issued gateway.TokenResponse
		httpPost(t, base+"/v1/token", gateway.TokenRequest{
			Client: ids.NewHostAuthority("ely", time.Now()).NewDomain(), Rolefile: "main", Role: "LoggedOn",
			Args: []value.Value{value.Object("Login.userid", "dm"), value.Object("Login.host", "ely")},
		}, &issued)
		var in gateway.IntrospectResponse
		httpPost(t, base+"/v1/introspect", gateway.IntrospectRequest{Token: issued.Token}, &in)
		if !in.Active {
			t.Fatalf("run %d: issued token introspects inactive", i)
		}

		var all struct {
			Cmdline  []string
			Memstats map[string]any
			Login    map[string]any
		}
		if err := json.Unmarshal(adminGet(t, adminBase+"/debug/vars"), &all); err != nil {
			t.Fatalf("run %d: /debug/vars is not JSON: %v", i, err)
		}
		if len(all.Cmdline) == 0 || all.Memstats["HeapAlloc"] == nil {
			t.Errorf("run %d: /debug/vars without the process's cmdline and memstats", i)
		}
		vars := all.Login
		if vars["issued"] != 1.0 || vars["validated"] != 1.0 {
			t.Errorf("run %d: issued %v, validated %v; want 1 and 1", i, vars["issued"], vars["validated"])
		}
		for _, k := range []string{"bus", "store", "gateway", "sources", "duty", "revocable", "gomaxprocs", "fraud", "held_verified"} {
			if _, ok := vars[k]; !ok {
				t.Errorf("run %d: the service's vars have no %q", i, k)
			}
		}
		client := ids.NewHostAuthority("ely", time.Now()).NewDomain()
		badge, err := up.Enter(oasis.EnterRequest{Client: client, Rolefile: "main", Role: "Badge",
			Args: []value.Value{value.Object("Up.userid", "dm")}})
		if err != nil {
			t.Fatal(err)
		}
		httpPost(t, base+"/v1/token", gateway.TokenRequest{Client: client, Rolefile: "main", Role: "Seat",
			Creds: []*cert.RMC{badge}}, &issued)
		if err := json.Unmarshal(adminGet(t, adminBase+"/debug/vars"), &all); err != nil {
			t.Fatalf("run %d: /debug/vars is not JSON: %v", i, err)
		}
		source, _ := all.Login["sources"].(map[string]any)["Up"].(map[string]any)
		for _, k := range []string{"state", "silent_s", "resyncing", "held"} {
			if _, ok := source[k]; !ok {
				t.Errorf("run %d: the watched source's entry in \"sources\" has no %q: %v", i, k, all.Login["sources"])
			}
		}
		if prof := adminGet(t, adminBase+"/debug/pprof/profile?seconds=1"); len(prof) == 0 {
			t.Errorf("run %d: empty CPU profile", i)
		}
		stop()
		if c, err := net.DialTimeout("tcp", admin[1], time.Second); err == nil {
			c.Close()
			t.Fatalf("run %d: admin port still accepts after run returned", i)
		}
	}

	cfg.adminListen = ""
	logged, stop := startRun(t, cfg)
	stop()
	if adminLogLine.MatchString(logged.String()) {
		t.Fatalf("no -admin-listen, but an admin port opened:\n%s", logged)
	}
}

// serveIssuer runs a service in this process on a network of its own,
// serving its peer port on a loopback address, which it returns.
func serveIssuer(t *testing.T, name, rolefile string) (*oasis.Service, string) {
	t.Helper()
	oasis.RegisterWireTypes()
	network := bus.NewNetwork(clock.Real())
	svc, err := oasis.New(name, clock.Real(), network, oasis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddRolefile("main", rolefile); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = network.ServeTCP(ln) }()
	t.Cleanup(func() { _ = ln.Close() })
	return svc, ln.Addr().String()
}

// TestAdminVarsQuotesNameAsJSON: the service's name keys its counters
// in /debug/vars with JSON's quoting, so a name holding a control byte
// (which Go's %q writes as an invalid \x01 escape) still parses.
func TestAdminVarsQuotesNameAsJSON(t *testing.T) {
	const name = "Lo\x01gin"
	svc, err := oasis.New(name, clock.Real(), bus.NewNetwork(clock.Real()), oasis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serveAdmin(ln, svc).Close()
	var all map[string]json.RawMessage
	if err := json.Unmarshal(adminGet(t, "http://"+ln.Addr().String()+"/debug/vars"), &all); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if all[name] == nil {
		t.Fatalf("no entry keyed %q in /debug/vars", name)
	}
}
