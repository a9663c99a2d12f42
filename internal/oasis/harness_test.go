package oasis

import (
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/fault"
	"oasis/internal/ids"
	"oasis/internal/value"
)

// harness wires the paper's running example: a Login service issuing
// LoggedOn certificates, and a Conference service whose rolefile
// (figure 3.1) references them.
type harness struct {
	clk   *clock.Virtual
	net   *bus.Network
	links *fault.Plane // installed on net: Sever/Restore fail and heal a link
	login *Service
	conf  *Service
	hosts map[string]*ids.HostAuthority
}

const loginRolefile = `
def LoggedOn(u, h) u: Login.userid h: Login.host
LoggedOn(u, h) <-
`

const confRolefile = `
Chair     <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* <|* Chair : (u in staff)*
`

func newHarness(t *testing.T) *harness {
	t.Helper()
	return newHarnessWith(t, Options{}, Options{})
}

// newHarnessWith builds the two-service harness with explicit options
// (the suspicion and resync tests configure heartbeat budgets on Conf).
func newHarnessWith(t *testing.T, loginOpts, confOpts Options) *harness {
	t.Helper()
	clk := clock.NewVirtual(time.Date(1996, 3, 1, 9, 0, 0, 0, time.UTC))
	net := bus.NewNetwork(clk)
	links := fault.New(clk, 1)
	links.Install(net)
	login, err := New("Login", clk, net, loginOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	conf, err := New("Conf", clk, net, confOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := conf.AddRolefile("main", confRolefile); err != nil {
		t.Fatal(err)
	}
	return &harness{
		clk: clk, net: net, links: links, login: login, conf: conf,
		hosts: make(map[string]*ids.HostAuthority),
	}
}

// client creates a protection domain on the named host.
func (h *harness) client(host string) ids.ClientID {
	ha, ok := h.hosts[host]
	if !ok {
		ha = ids.NewHostAuthority(host, h.clk.Now())
		h.hosts[host] = ha
	}
	return ha.NewDomain()
}

// logOn obtains a LoggedOn certificate for a user on a host. The Login
// rolefile accepts the claim (a password check would precede this in the
// full system, §3.4.3).
func (h *harness) logOn(t *testing.T, c ids.ClientID, user string) *cert.RMC {
	t.Helper()
	rmc, err := h.login.Enter(EnterRequest{
		Client:   c,
		Rolefile: "main",
		Role:     "LoggedOn",
		Args: []value.Value{
			value.Object("Login.userid", user),
			value.Object("Login.host", c.Host),
		},
	})
	if err != nil {
		t.Fatalf("logOn(%s): %v", user, err)
	}
	return rmc
}

func uid(u string) value.Value { return value.Object("Login.userid", u) }
