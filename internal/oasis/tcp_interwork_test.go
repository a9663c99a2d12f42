package oasis

import (
	"bufio"
	"expvar"
	"fmt"
	"net"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/event"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// TestCrossProcessInterworkingOverTCP runs the figure 4.8 scenario with
// the two services on *separate* networks joined by a real TCP socket:
// the Conference validates Login certificates remotely, builds an
// external credential record, and receives Modified events over the
// wire when the user logs off. This is the architecture's
// "inherently distributed" claim exercised end to end.
func TestCrossProcessInterworkingOverTCP(t *testing.T) {
	RegisterWireTypes()
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))

	// "Process" 1: the Login service.
	loginNet := bus.NewNetwork(clk)
	login, err := New("Login", clk, loginNet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", `
def LoggedOn(u, h) u: Login.userid h: Login.host
LoggedOn(u, h) <-
`); err != nil {
		t.Fatal(err)
	}
	loginLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = loginNet.ServeTCP(loginLn) }()
	defer loginLn.Close()

	// "Process" 2: the Conference service.
	confNet := bus.NewNetwork(clk)
	conf, err := New("Conf", clk, confNet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	confLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = confNet.ServeTCP(confLn) }()
	defer confLn.Close()

	// Join the two networks: each knows the other by name over TCP.
	if err := confNet.AddRemote("Login", loginLn.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer confNet.CloseRemotes()
	if err := loginNet.AddRemote("Conf", confLn.Addr().String()); err != nil {
		t.Fatal(err)
	}
	defer loginNet.CloseRemotes()

	// Now the Conference can resolve Login's types over the wire.
	if err := conf.AddRolefile("main", `Member(u) <- Login.LoggedOn(u, h)*`); err != nil {
		t.Fatal(err)
	}

	host := ids.NewHostAuthority("ely", clk.Now())
	client := host.NewDomain()
	loggedOn, err := login.Enter(EnterRequest{
		Client: client, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{
			value.Object("Login.userid", "dm"),
			value.Object("Login.host", "ely"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Entry at Conf validates the certificate over TCP and subscribes to
	// Modified events across the socket.
	member, err := conf.Enter(EnterRequest{
		Client: client, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{loggedOn},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := conf.Validate(member, client); err != nil {
		t.Fatal(err)
	}

	// Logout at Login: the Modified event crosses the TCP link and the
	// Conference membership dies.
	if err := login.Exit(loggedOn, client); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for conf.Validate(member, client) == nil {
		if time.Now().After(deadline) {
			t.Fatal("membership still valid: Modified event never crossed the TCP link")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A forged certificate is rejected across the wire too.
	forged := *loggedOn
	forged.Args = []value.Value{
		value.Object("Login.userid", "root"),
		value.Object("Login.host", "ely"),
	}
	if _, err := conf.Enter(EnterRequest{
		Client: client, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{&forged},
	}); err == nil {
		t.Fatal("forged certificate accepted over TCP")
	}
}

// TestStalledWatcherHoldsNoSignaller: a watcher that answers the hello
// and then reads nothing costs the issuer its own link and nothing
// else. Heartbeats fill the link until its writer is blocked in the
// socket, each tick returning within a heartbeat period; the issuer's
// Exit then returns within a period too, and a watcher that reads hears
// of the revocation as promptly as it did before the stall.
func TestStalledWatcherHoldsNoSignaller(t *testing.T) {
	RegisterWireTypes()
	clk := clock.Real()
	loginNet, confNet := bus.NewNetwork(clk), bus.NewNetwork(clk)
	login, err := New("Login", clk, loginNet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	heard := make(chan time.Time, 4)
	if err := confNet.Register("Conf", relay{
		call: func(string, string, any) (any, error) { return nil, fmt.Errorf("Conf answers nothing here") },
		deliver: func(n event.Notification) {
			if n.Event.Name == ModifiedEvent {
				heard <- time.Now()
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	confLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer confLn.Close()
	go func() { _ = confNet.ServeTCP(confLn) }()
	for name, addr := range map[string]string{"Conf": confLn.Addr().String(), "Stall": stalledPeer(t)} {
		if err := loginNet.AddRemote(name, addr); err != nil {
			t.Fatal(err)
		}
	}
	defer loginNet.CloseRemotes()

	client := ids.NewHostAuthority("ely", clk.Now()).NewDomain()
	watched := func(user string, watchers ...string) *cert.RMC {
		rmc, err := login.Enter(EnterRequest{Client: client, Rolefile: "main", Role: "LoggedOn",
			Args: []value.Value{value.Object("Login.userid", user), value.Object("Login.host", "ely")}})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range watchers {
			if _, err := login.Call(w, "validate", ValidateArg{Cert: rmc, Client: client, Watch: true}); err != nil {
				t.Fatal(err)
			}
		}
		return rmc
	}
	// exit logs the user out and returns how long Exit took and how long
	// after its start Conf heard of it.
	period := login.heartbeatPeriod()
	exit := func(rmc *cert.RMC) (took, latency time.Duration) {
		start := time.Now()
		if err := login.Exit(rmc, client); err != nil {
			t.Fatal(err)
		}
		took = time.Since(start)
		select {
		case at := <-heard:
			return took, at.Sub(start)
		case <-time.After(4 * bus.CallDeadline):
			t.Fatal("Conf never heard of the logout")
		}
		return
	}
	_, usual := exit(watched("dm", "Conf"))

	rmc := watched("jmb", "Conf", "Stall")
	pending := func() int {
		return login.Vars().Get("bus").(*expvar.Map).Get("pending_notes").(expvar.Func).Value().(map[string]int)["Stall"]
	}
	// A writer that keeps up leaves a handful queued; 20 000 means it is
	// blocked in the socket.
	deadline := time.Now().Add(30 * time.Second)
	for tick := 1; pending() < 20000; tick++ {
		start := time.Now()
		login.HeartbeatTick()
		if took := time.Since(start); took > period {
			t.Fatalf("heartbeat tick %d took %v with a watcher stalled, want under %v", tick, took, period)
		}
		if time.Now().After(deadline) {
			t.Fatalf("the stalled watcher's link never filled: %d notes queued after %d ticks", pending(), tick)
		}
	}
	took, latency := exit(rmc)
	if took > period {
		t.Fatalf("Exit took %v with a watcher stalled, want under %v", took, period)
	}
	if latency > 2*usual+250*time.Millisecond {
		t.Fatalf("Conf heard of the logout %v after Exit began with a watcher stalled, against %v with none", latency, usual)
	}
}

// stalledPeer listens for one peer connection, answers its hello and
// then reads nothing until the test ends. It returns the address.
func stalledPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback listener available:", err)
	}
	release := make(chan struct{})
	t.Cleanup(func() {
		close(release)
		ln.Close()
	})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Answer the hello line with its own bytes, then read nothing.
		_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
		if hello, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
			_, _ = conn.Write([]byte(hello))
		}
		<-release
	}()
	return ln.Addr().String()
}
