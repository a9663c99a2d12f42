// Package benchmarks is the Go-bench suite: the rows bench/oasisload
// (BENCHMARK.json, `bash bench/run.sh`) cannot express. oasisload drives
// real oasisd processes and attributes every request to the program's
// layers, so it answers for any single-point timing of a layer the
// daemon runs. A row belongs in this file only if it is
//
//	(a) a comparison the paper makes against something the program does
//	    not contain (chained capabilities, lease refresh, the stacked
//	    VAC path), or a timing of a paper subsystem no oasisload
//	    workload touches (ACLs, composite events), or
//	(b) a sweep whose shape is the result — a path's cost along -cpu or
//	    along shard count — which one per-layer number has no room for;
//	    each such path is kept once, at the most composed level that
//	    shows the shape.
//
// A single-point timing of a layer in BENCHMARK.json's per_layer
// catalogue does not belong here, and neither does a timing of code
// oasisd does not run. Argue the next row against (a) and (b);
// EXPERIMENTS.md E39 is the inventory of what left and where each
// number lives now. `make bench` runs the file once at -cpu 1,4,8;
// `make bench-smoke` runs every row for one iteration in ci.
package benchmarks

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/baseline"
	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/composite"
	"oasis/internal/credrec"
	"oasis/internal/event"
	"oasis/internal/ids"
	"oasis/internal/mssa"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// ---- (a) E2/E11: signature length and the rolling secret table ----

func benchRMC(sig cert.Signer) *cert.RMC {
	c := &cert.RMC{
		Service:  "Conf",
		Rolefile: "main",
		Roles:    cert.RoleSet(1),
		Args:     []value.Value{value.Object("Login.userid", "dm")},
		Client:   ids.ClientID{Host: "ely", ID: 1, BootTime: time.Unix(0, 0)},
		CRR:      credrec.Ref{Index: 1, Magic: 1},
	}
	c.Sign(sig)
	return c
}

// BenchmarkSignatureCheck times the signer itself on a certificate's
// signed bytes, along the two axes the paper leaves to the service:
// signature length (§4.2) and the depth of the rolling secret table a
// certificate is matched against (§5.5.1; the certificate here was
// signed under the oldest of four retained secrets). The signed bytes
// are built once, outside the loop: RMC.Verify would add their
// serialisation to every row, and Service.Validate would show neither
// axis — a repeat check is a cert.VerifyCache hit whatever the signer.
func BenchmarkSignatureCheck(b *testing.B) {
	rolling := cert.NewRollingSigner([]byte("gen0"), 16, 4)
	oldest := benchRMC(rolling)
	for _, gen := range []string{"gen1", "gen2", "gen3"} {
		rolling.Roll([]byte(gen))
	}
	short := cert.NewHMACSigner([]byte("secret"), 4)
	long := cert.NewHMACSigner([]byte("secret"), 32)
	for _, tc := range []struct {
		name string
		s    cert.Signer
		c    *cert.RMC
	}{
		{"hmac/sig=4B", short, benchRMC(short)},
		{"hmac/sig=32B", long, benchRMC(long)},
		{"rolling/oldest-of-4", rolling, oldest},
	} {
		b.Run(tc.name, func(b *testing.B) {
			data := tc.c.SignedBytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !tc.s.Verify(data, tc.c.Sig) {
					b.Fatal("verify failed")
				}
			}
		})
	}
}

// ---- (a) E3: capability chaining vs credential records ----

func BenchmarkChainedCapabilityValidate(b *testing.B) {
	for _, depth := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			s := baseline.NewChainService([]byte("k"))
			c := s.Issue("rw")
			for i := 1; i < depth; i++ {
				c = s.Delegate(c, "rw")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Validate(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCredRecValidate(b *testing.B) {
	// The OASIS check is one record lookup regardless of how deep the
	// delegation graph is (§4.6).
	for _, depth := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			st := credrec.NewStore()
			ref := st.NewFact(credrec.True)
			for i := 1; i < depth; i++ {
				ref = st.NewDerived(credrec.OpAnd, credrec.Of(ref))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !st.Valid(ref) {
					b.Fatal("invalid")
				}
			}
		})
	}
}

func BenchmarkRevokeCascade(b *testing.B) {
	// Revocation cost grows with the number of dependants actually
	// severed (selective revocation, figure 4.5). Roots are built with
	// the timer stopped, some 4 096 records at a time: stopping it per
	// root costs more than a narrow cascade does, and ran this row alone
	// past go test's ten-minute limit.
	for _, width := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("dependants=%d", width), func(b *testing.B) {
			chunk := 4096 / (width + 1)
			roots := make([]credrec.Ref, chunk)
			b.ReportAllocs()
			for done := 0; done < b.N; done += len(roots) {
				b.StopTimer()
				st := credrec.NewStore()
				roots = roots[:min(chunk, b.N-done)]
				for r := range roots {
					roots[r] = st.NewFact(credrec.True)
					for j := 0; j < width; j++ {
						st.NewDerived(credrec.OpAnd, credrec.Of(roots[r]))
					}
				}
				b.StartTimer()
				for _, root := range roots {
					if err := st.Invalidate(root); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ---- (a) E6: background traffic, event-driven vs refresh ----

func BenchmarkBackgroundTrafficRefresh(b *testing.B) {
	// Lease-based validity: one refresh per credential per period even
	// when nothing changes.
	clk := clock.NewVirtual(time.Unix(0, 0))
	svc := baseline.NewLeaseService(clk, 10*time.Second)
	const creds = 100
	leases := make([]*baseline.Lease, creds)
	for i := range leases {
		leases[i] = svc.Issue()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(8 * time.Second)
		for _, l := range leases {
			if err := svc.Refresh(l); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(svc.Refreshes)/float64(b.N), "msgs/period")
}

func BenchmarkBackgroundTrafficOasis(b *testing.B) {
	// Event-driven validity: with no revocations the steady state costs
	// only the heartbeat, independent of credential count (§4.14).
	clk := clock.NewVirtual(time.Unix(0, 0))
	broker := event.NewBroker("Login", clk, event.BrokerOptions{})
	n := 0
	sink := event.SinkFunc(func(event.Notification) { n++ })
	sess, err := broker.OpenSession(sink, nil)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := broker.Register(sess, event.NewTemplate("Oasis.Modified",
			event.Lit(value.Str(fmt.Sprintf("%x", i))), event.Wildcard(), event.Wildcard())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(8 * time.Second)
		broker.Heartbeat()
	}
	b.ReportMetric(float64(n)/float64(b.N), "msgs/period")
}

// ---- (a) E9: ACL evaluation ----

func BenchmarkACLEvaluate(b *testing.B) {
	acl := mssa.MustParseACL("rjh21=rwx group:staff=rx -group:students=w *=r")
	groups := func(u, g string) bool { return g == "staff" && u == "ann" }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := acl.Evaluate("ann", groups); got.Members() == "" {
			b.Fatal("no rights")
		}
	}
}

// ---- (a) E10: VAC access paths ----

type benchWorld struct {
	clk   *clock.Virtual
	net   *bus.Network
	login *oasis.Service
	conf  *oasis.Service
	host  *ids.HostAuthority
}

func newBenchWorld(b *testing.B) *benchWorld {
	b.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	net := bus.NewNetwork(clk)
	login, err := oasis.New("Login", clk, net, oasis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := login.AddRolefile("main", `
def LoggedOn(u, h) u: Login.userid h: Login.host
LoggedOn(u, h) <-
`); err != nil {
		b.Fatal(err)
	}
	conf, err := oasis.New("Conf", clk, net, oasis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := conf.AddRolefile("main", `
Chair     <- Login.LoggedOn("jmb", h)
Member(u) <- Login.LoggedOn(u, h)* : (u in staff)*
`); err != nil {
		b.Fatal(err)
	}
	conf.Groups().AddMember("dm", "staff")
	return &benchWorld{clk: clk, net: net, login: login, conf: conf,
		host: ids.NewHostAuthority("ely", clk.Now())}
}

func (w *benchWorld) logOn(b *testing.B, user string) (ids.ClientID, *cert.RMC) {
	b.Helper()
	c := w.host.NewDomain()
	rmc, err := w.login.Enter(oasis.EnterRequest{
		Client: c, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{
			value.Object("Login.userid", user),
			value.Object("Login.host", "ely"),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return c, rmc
}

type vacBench struct {
	ffc     *mssa.Custode
	vac     *mssa.VAC
	client  ids.ClientID
	useVAC  *cert.RMC
	vacFile mssa.FileID
	lower   mssa.FileID
}

func newVACBench(b *testing.B) *vacBench {
	b.Helper()
	w := newBenchWorld(b)
	ffc, err := mssa.NewCustode("FFC", w.clk, w.net)
	if err != nil {
		b.Fatal(err)
	}
	lowerACL, err := ffc.CreateACL(mssa.MustParseACL("iffc=rwxd"), mssa.FileID{})
	if err != nil {
		b.Fatal(err)
	}
	vacSelf, vacLogin := w.logOn(b, "iffc")
	lowerCert, err := ffc.EnterUseAcl(vacSelf, vacLogin, lowerACL)
	if err != nil {
		b.Fatal(err)
	}
	vac, err := mssa.NewVAC("IFFC", w.clk, w.net, ffc, vacSelf, lowerCert, lowerACL)
	if err != nil {
		b.Fatal(err)
	}
	vacACL, err := vac.CreateACL(mssa.MustParseACL("alice=rw"), mssa.FileID{})
	if err != nil {
		b.Fatal(err)
	}
	vacFile, err := vac.CreateIndexed([]byte("benchmark data payload"), vacACL)
	if err != nil {
		b.Fatal(err)
	}
	if err := vac.EnableBypass(vacFile, vacACL); err != nil {
		b.Fatal(err)
	}
	client, clientLogin := w.logOn(b, "alice")
	useVAC, err := vac.EnterUseAcl(client, clientLogin, vacACL)
	if err != nil {
		b.Fatal(err)
	}
	lower, _ := vac.Backing(vacFile)
	return &vacBench{ffc: ffc, vac: vac, client: client,
		useVAC: useVAC, vacFile: vacFile, lower: lower}
}

func BenchmarkVACStacked(b *testing.B) {
	v := newVACBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.vac.Read(v.client, v.vacFile, v.useVAC); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVACBypassCached(b *testing.B) {
	v := newVACBench(b)
	// Prime the cache: the single callback of figure 5.8b.
	if _, err := v.ffc.ReadBypassed(v.client, v.lower, v.useVAC); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.ffc.ReadBypassed(v.client, v.lower, v.useVAC); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- (a) E16: composite event detection ----

func BenchmarkBeadMachine(b *testing.B) {
	for _, badges := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("badges=%d", badges), func(b *testing.B) {
			n := composite.MustParse(`$Seen(B, R2); Seen(B, R) - Seen(B, R2)`, composite.ParseOptions{})
			m := composite.NewMachine(n, func(composite.Occurrence) {}, composite.MachineOptions{})
			t0 := time.Unix(0, 0)
			m.Start(t0, value.Env{})
			rooms := []string{"T14", "T15", "T16"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Process(event.Event{
					Name:   "Seen",
					Source: "s",
					Args: []value.Value{
						value.Str(fmt.Sprintf("b%d", i%badges)),
						value.Str(rooms[i%len(rooms)]),
					},
					Time: t0.Add(time.Duration(i+1) * time.Millisecond),
				})
			}
		})
	}
}

func BenchmarkCompositeParse(b *testing.B) {
	src := `$serve(s); (((floor | wall | hit(i)) - front) | ($hit(i); (floor | hit(j)) - front))`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := composite.Parse(src, composite.ParseOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- (b) E27/E30: Service.Validate along -cpu ----

// BenchmarkValidateRMCParallel is the paper's "one credential-record
// lookup" (§4.6) with the signature check in front of it, on every
// core at once. "cached" validates the same certificate object every
// time; "cold" rebuilds the struct each iteration, the shape a
// certificate just decoded off the wire has. Both are hits in the
// engine's cert.VerifyCache — a certificate carries no state of its
// own — so the gap between them is the struct the loop allocates. The
// cache stores a verdict on a certificate's second sight, so the
// certificate is validated twice before either row starts. The
// single-thread point is oasis.validate_ns; the curve over -cpu is what
// is kept here.
func BenchmarkValidateRMCParallel(b *testing.B) {
	w := newBenchWorld(b)
	c, login := w.logOn(b, "dm")
	member, err := w.conf.Enter(oasis.EnterRequest{
		Client: c, Rolefile: "main", Role: "Member",
		Creds: []*cert.RMC{login},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.conf.Validate(member, c); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := w.conf.Validate(member, c); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				fresh := &cert.RMC{
					Service:  member.Service,
					Rolefile: member.Rolefile,
					Roles:    member.Roles,
					Args:     member.Args,
					Client:   member.Client,
					CRR:      member.CRR,
					Expiry:   member.Expiry,
					Sig:      member.Sig,
				}
				if err := w.conf.Validate(fresh, c); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// ---- (b) E27: mixed validate/revoke churn along -cpu ----

func churnArgs(i int) []value.Value {
	return []value.Value{
		value.Object("Login.userid", fmt.Sprintf("u%d", i)),
		value.Object("Login.host", "ely"),
	}
}

// BenchmarkValidateChurnParallel mixes validations with revoke+reissue
// at the stated write percentage (1% = the paper's revocation-is-rare
// regime, §4.14; 10% = heavy churn) over 256 certificates issued by the
// §4.12 direct path, each on a leaf record of its own. A validation
// that races a revocation may legitimately fail with class Revoked;
// anything else is an error.
func BenchmarkValidateChurnParallel(b *testing.B) {
	for _, writePct := range []int{1, 10} {
		b.Run(fmt.Sprintf("writes=%d%%", writePct), func(b *testing.B) {
			const slots = 256
			w := newBenchWorld(b)
			clients := make([]ids.ClientID, slots)
			certs := make([]atomic.Pointer[cert.RMC], slots)
			for i := range certs {
				clients[i] = w.host.NewDomain()
				rmc, err := w.login.IssueDirect(clients[i], "main", "LoggedOn", churnArgs(i))
				if err != nil {
					b.Fatal(err)
				}
				certs[i].Store(rmc)
			}
			var seed atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(int64(seed.Add(1))))
				for pb.Next() {
					i := rng.Intn(slots)
					c := certs[i].Load()
					if rng.Intn(100) < writePct {
						_ = w.login.RevokeDirect(c)
						nc, err := w.login.IssueDirect(clients[i], "main", "LoggedOn", churnArgs(i))
						if err != nil {
							b.Error(err)
							return
						}
						certs[i].Store(nc)
					} else if err := w.login.Validate(c, clients[i]); err != nil {
						var ve *oasis.ValidationError
						if !errors.As(err, &ve) || ve.Class != oasis.Revoked {
							b.Error(err)
							return
						}
					}
				}
			})
		})
	}
}

// ---- (b) E27: revocation under concurrent readers along -cpu ----

// BenchmarkRevokeUnderReaders measures the write path's cost while the
// read path hammers an unrelated record: with a single store-wide lock
// every revocation stalls behind the readers, with striping it only
// contends on the shards the cascade touches.
func BenchmarkRevokeUnderReaders(b *testing.B) {
	st := credrec.NewStore()
	hot := st.NewFact(credrec.True)
	stop := make(chan struct{})
	defer close(stop)
	for g := 0; g < 4; g++ {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					st.Valid(hot)
				}
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root := st.NewFact(credrec.True)
		for j := 0; j < 16; j++ {
			st.NewDerived(credrec.OpAnd, credrec.Of(root))
		}
		if err := st.Invalidate(root); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- (b) E32: group commit along -cpu ----

// countingSink wraps a sink, counting Writes and Syncs so the row
// reports write amplification alongside latency.
type countingSink struct {
	dst    credrec.JournalSink
	writes atomic.Int64
	syncs  atomic.Int64
}

func (s *countingSink) Write(p []byte) (int, error) {
	s.writes.Add(1)
	return s.dst.Write(p)
}

func (s *countingSink) Sync() error {
	s.syncs.Add(1)
	return s.dst.Sync()
}

// appendWorkload is one mutator iteration: derive a credential on a
// shared root and revoke it — two journaled operations, through the
// interface the engine mutates its store through.
func appendWorkload(r credrec.Recorder, root credrec.Ref) {
	c := r.NewDerived(credrec.OpAnd, credrec.Of(root))
	_ = r.Invalidate(c)
}

// BenchmarkPersistAppend journals onto a real O_APPEND file, so a Write
// is a syscall and a Sync an fsync — the costs group commit amortises.
// The shape is syncs/op falling as mutators are added
// (storage.append_us is the one-mutator, batched point).
func BenchmarkPersistAppend(b *testing.B) {
	for _, policy := range []credrec.SyncPolicy{credrec.SyncBatched, credrec.SyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			f, err := os.OpenFile(filepath.Join(b.TempDir(), "journal.seg"),
				os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			sink := &countingSink{dst: f}
			st := credrec.NewStore()
			st.StartJournal(sink, credrec.JournalOptions{Sync: policy})
			defer st.Close()
			root := st.NewFact(credrec.True)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					appendWorkload(st, root)
				}
			})
			if err := st.Sync(); err != nil { // drain inside the timer: the committer's work counts
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(sink.writes.Load())/float64(b.N), "writes/op")
			b.ReportMetric(float64(sink.syncs.Load())/float64(b.N), "syncs/op")
		})
	}
}

// ---- (b) E34: cascade throughput along shard count ----

// BenchmarkShardCascade flaps facts of a graph partitioned over 1/2/4/8
// shards: 1024 groups of one fact feeding a depth-8 chain. Derived
// records sit on their first parent's shard, so each chain cascades
// inside one shard and the sharded store runs one writer per shard
// where a monolith funnels every cascade through one lock. The win
// needs real cores: on a single-CPU host the rows measure the routing
// layer's overhead instead and should be flat.
func BenchmarkShardCascade(b *testing.B) {
	const groups, depth = 1024, 8
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			names := make([]string, shards)
			for i := range names {
				names[i] = fmt.Sprintf("s%02d", i)
			}
			ss, err := credrec.NewShardedStore(names, 0)
			if err != nil {
				b.Fatal(err)
			}
			facts := make([]credrec.Ref, groups)
			for g := range facts {
				facts[g] = ss.NewFact(credrec.True)
				parent := facts[g]
				for d := 0; d < depth; d++ {
					parent = ss.NewDerived(credrec.OpAnd, credrec.Of(parent))
				}
			}
			var next atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					g := facts[next.Add(1)%groups]
					// One full down-up flap: 2 cascades of `depth` transitions.
					if err := ss.SetState(g, credrec.False); err != nil {
						b.Error(err)
						return
					}
					if err := ss.SetState(g, credrec.True); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
