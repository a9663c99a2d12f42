// E30: the end-to-end remote-validation fast path. A certificate issued
// by Login is validated over a real TCP link ("services offer to
// validate certificates for use in other services", §2.10) through the
// binary codec and the pipelined writer. Run with `-cpu 1,4,8`;
// EXPERIMENTS.md E30 records the numbers, and BENCH_5.json the gob and
// locked-writer baselines this path replaced.
package benchmarks

import (
	"net"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// benchRemoteWorld is one TCP link between a caller network and a
// network hosting a Login service with an issued certificate.
type benchRemoteWorld struct {
	client *bus.Network
	rmc    *cert.RMC
	domain ids.ClientID
	close  func()
}

func newBenchRemoteWorld(b *testing.B) *benchRemoteWorld {
	b.Helper()
	oasis.RegisterWireTypes()

	serverClk := clock.NewVirtual(time.Unix(0, 0))
	serverNet := bus.NewNetwork(serverClk)
	login, err := oasis.New("Login", serverClk, serverNet, oasis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := login.AddRolefile("main", `
def LoggedOn(u, h) u: Login.userid h: Login.host
LoggedOn(u, h) <-
`); err != nil {
		b.Fatal(err)
	}
	host := ids.NewHostAuthority("ely", serverClk.Now())
	domain := host.NewDomain()
	rmc, err := login.Enter(oasis.EnterRequest{
		Client: domain, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{
			value.Object("Login.userid", "dm"),
			value.Object("Login.host", "ely"),
		},
	})
	if err != nil {
		b.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = serverNet.ServeTCP(ln) }()

	clientNet := bus.NewNetwork(clock.NewVirtual(time.Unix(0, 0)))
	if err := clientNet.AddRemote("Login", ln.Addr().String()); err != nil {
		b.Fatal(err)
	}
	return &benchRemoteWorld{
		client: clientNet,
		rmc:    rmc,
		domain: domain,
		close: func() {
			clientNet.CloseRemotes()
			ln.Close()
		},
	}
}

// BenchmarkRemoteValidateTCP is the E30 row. The sub-benchmark keeps
// the name it had in the BENCH_5.json matrix so new runs line up with
// the committed one.
func BenchmarkRemoteValidateTCP(b *testing.B) {
	b.Run("binary-pipelined", func(b *testing.B) {
		w := newBenchRemoteWorld(b)
		defer w.close()
		arg := oasis.ValidateArg{Cert: w.rmc, Client: w.domain}
		// One warm call catches misconfiguration before timing.
		if _, err := w.client.Call("Bench", "Login", "validate", arg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		// A service sees many more outstanding requests than cores; 8
		// callers per proc keeps the link busy enough that the writer's
		// one-flush-per-batch coalescing actually shows.
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				res, err := w.client.Call("Bench", "Login", "validate", arg)
				if err != nil {
					b.Error(err)
					return
				}
				if r, ok := res.(oasis.ValidateReply); !ok || len(r.Roles) == 0 {
					b.Errorf("bad reply %#v", res)
					return
				}
			}
		})
	})
}
