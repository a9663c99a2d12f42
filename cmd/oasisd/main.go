// oasisd serves one OASIS service over TCP with a newline-delimited
// JSON protocol: clients enter roles, validate certificates, and exit
// memberships remotely. It is the standalone deployment path for a
// bootstrap service (§4.12) such as Login; richer multi-service
// deployments use the in-process bus plus this front.
//
// Usage:
//
//	oasisd -name Login -rolefile login.rdl -listen :7465 -peer-listen :7466
//	oasisd -name Conf -rolefile conf.rdl -listen :7475 -peer-listen :7476 \
//	       -remote Login=127.0.0.1:7466
//
// -peer-listen serves the inter-service protocol so other oasisd
// processes can validate this service's certificates and receive its
// Modified events; -remote joins another process's peer port under its
// service name, letting rolefiles here reference its roles.
//
// -store-dir persists the credential-record store: every mutation is
// group-committed to a binary journal and the store snapshots and
// compacts itself every -snapshot-every operations, so a restart
// recovers certificates and revocations from the newest snapshot plus
// the journal tail (docs/STORAGE.md). -sync selects the durability
// policy (always / batched / none).
//
// -http-listen opens the federation gateway (internal/gateway): role
// entry as token issuance, live token introspection, and RFC 7009
// revocation over HTTP/JSON for clients outside the trusted-peer
// protocol (docs/GATEWAY.md). -http-rate shapes the per-client token
// bucket, -http-max-conns caps concurrent connections, and
// -http-pressure is the notification-plane backlog at which the
// gateway sheds mutating requests with 503 + Retry-After.
//
// -shards partitions this process's credential-record store across N
// consistent-hash shards (internal/credrec.ShardedStore): records are
// placed by ring ownership, cascades route by the shard id sealed into
// each ref, and cross-shard dependency edges run over bridge
// surrogates (docs/SHARDING.md). -shard-ring names the cluster's
// members (comma-separated, must include -name); joined members
// disseminate revocations down a fanout -shard-fanout tree instead of
// point-to-point fan-out, and each member's gateway sheds on the
// cluster-wide backlog aggregated from tree heartbeats. -shards is
// incompatible with -store-dir: the journaling engine persists one
// store image per process, and per-shard journals are future work.
//
// -fault-schedule arms a deterministic fault plane on the in-process
// bus (drops, duplicates, delays, partitions — the format is documented
// at internal/fault.ParseSchedule); -fault-seed makes the run
// reproducible. Watched sources degrade through suspect/failed after
// -failsafe-missed silent heartbeat periods, recover by automatic
// resync, and every transition is logged.
//
// Protocol (one JSON object per line):
//
//	{"op":"enter","enter":{...}}          -> {"ok":true,"cert":{...}}
//	{"op":"validate","cert":{...},"client":{...}} -> {"ok":true}
//	{"op":"exit","cert":{...},"client":{...}}     -> {"ok":true}
//	{"op":"roles","cert":{...}}           -> {"ok":true,"roles":[...]}
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/credrec/storage"
	"oasis/internal/fault"
	"oasis/internal/oasis"
)

// remoteFlags collects -remote name=addr pairs.
type remoteFlags map[string]string

func (r remoteFlags) String() string { return fmt.Sprint(map[string]string(r)) }

// Set implements flag.Value.
func (r remoteFlags) Set(s string) error {
	name, addr, ok := strings.Cut(s, "=")
	if !ok || name == "" || addr == "" {
		return fmt.Errorf("expected name=addr, got %q", s)
	}
	r[name] = addr
	return nil
}

func main() {
	var (
		name        = flag.String("name", "Login", "service instance name")
		rolefile    = flag.String("rolefile", "", "rolefile path (default: built-in Login rolefile)")
		scope       = flag.String("scope", "main", "rolefile scope id")
		listen      = flag.String("listen", "127.0.0.1:7465", "client (JSON) listen address")
		peerListen  = flag.String("peer-listen", "", "inter-service listen address; empty disables")
		faultSched  = flag.String("fault-schedule", "", "fault schedule file for the in-process bus (see internal/fault.ParseSchedule); empty disables")
		faultSeed   = flag.Int64("fault-seed", 1, "PRNG seed for the fault plane; a run is reproducible from (seed, schedule)")
		missedHB    = flag.Int("failsafe-missed", 3, "heartbeat periods of silence before a watched source's records fail safe to False")
		httpListen  = flag.String("http-listen", "", "federation gateway (HTTP/JSON token issuance/introspection/revocation) listen address; empty disables")
		httpRate    = flag.Float64("http-rate", 50, "gateway per-client request budget in requests/second (0 disables rate limiting)")
		httpConns   = flag.Int("http-max-conns", 1024, "gateway concurrent-connection cap (0 = unlimited)")
		httpPress   = flag.Int("http-pressure", 4096, "notification-plane backlog at which the gateway sheds mutating requests with 503 (0 disables backpressure)")
		shards      = flag.Int("shards", 0, "partition the credential-record store across this many consistent-hash shards (0/1 keeps the monolithic store); incompatible with -store-dir")
		shardRing   = flag.String("shard-ring", "", "comma-separated shard-cluster member names (must include -name); members disseminate revocations over a tree instead of flat fan-out")
		shardFanout = flag.Int("shard-fanout", 0, "dissemination-tree fanout for -shard-ring (0 = default)")
		storeDir    = flag.String("store-dir", "", "persist the credential-record store in this directory (journal + snapshots); empty keeps it in memory")
		snapEvery   = flag.Int("snapshot-every", 4096, "journal operations between automatic snapshots/compactions (0 disables the trigger)")
		syncMode    = flag.String("sync", "batched", "journal durability: always (fsync before a mutation returns), batched (one fsync per group commit), none")
		remotes     = remoteFlags{}
	)
	flag.Var(remotes, "remote", "peer service name=addr (repeatable)")
	flag.Parse()
	if err := run(config{
		name: *name, rolefilePath: *rolefile, scope: *scope,
		listen: *listen, peerListen: *peerListen,
		faultSchedule: *faultSched, faultSeed: *faultSeed,
		failsafeMissed: *missedHB, remotes: remotes,
		shards: *shards, shardRing: *shardRing, shardFanout: *shardFanout,
		storeDir: *storeDir, snapshotEvery: *snapEvery, syncMode: *syncMode,
		httpListen: *httpListen, httpRate: *httpRate,
		httpMaxConns: *httpConns, httpPressure: *httpPress,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type config struct {
	name, rolefilePath, scope string
	listen, peerListen        string
	faultSchedule             string
	faultSeed                 int64
	failsafeMissed            int
	remotes                   map[string]string
	shards                    int
	shardRing                 string
	shardFanout               int
	storeDir                  string
	snapshotEvery             int
	syncMode                  string
	httpListen                string
	httpRate                  float64
	httpMaxConns              int
	httpPressure              int
}

const builtinLoginRolefile = `
def LoggedOn(u, h) u: Login.userid h: Login.host
LoggedOn(u, h) <-
`

func run(cfg config) error {
	name := cfg.name
	src := builtinLoginRolefile
	if cfg.rolefilePath != "" {
		data, err := os.ReadFile(cfg.rolefilePath)
		if err != nil {
			return err
		}
		src = string(data)
	}
	oasis.RegisterWireTypes()
	clk := clock.Real()
	network := bus.NewNetwork(clk)
	if cfg.faultSchedule != "" {
		data, err := os.ReadFile(cfg.faultSchedule)
		if err != nil {
			return err
		}
		steps, err := fault.ParseSchedule(string(data))
		if err != nil {
			return err
		}
		plane := fault.New(clk, cfg.faultSeed)
		plane.Install(network)
		plane.SetSchedule(steps)
		log.Printf("oasisd: fault plane armed: %d step(s), seed %d", len(steps), cfg.faultSeed)
		go func() {
			for {
				<-clk.After(time.Second)
				plane.Tick()
			}
		}()
	}
	opts := oasis.Options{
		FailsafeMissed: cfg.failsafeMissed,
		AutoResync:     true,
		OnSourceState: func(source string, from, to oasis.SourceState) {
			log.Printf("oasisd: source %q %s -> %s", source, from, to)
		},
	}
	if cfg.shards > 1 {
		if cfg.storeDir != "" {
			return fmt.Errorf("-shards is incompatible with -store-dir: the journaling engine persists one store image per process")
		}
		shardNames := make([]string, cfg.shards)
		for i := range shardNames {
			shardNames[i] = fmt.Sprintf("s%02d", i)
		}
		ss, err := credrec.NewShardedStore(shardNames, 0)
		if err != nil {
			return fmt.Errorf("building sharded store: %w", err)
		}
		opts.Store = ss
		log.Printf("oasisd: credential-record store partitioned across %d shard(s)", cfg.shards)
	}
	if cfg.storeDir != "" {
		policy, err := credrec.ParseSyncPolicy(cfg.syncMode)
		if err != nil {
			return err
		}
		be, err := storage.OpenDir(cfg.storeDir)
		if err != nil {
			return fmt.Errorf("opening store dir: %w", err)
		}
		eng, err := storage.Open(be, storage.Options{
			Sync:                policy,
			SnapshotEveryOps:    cfg.snapshotEvery,
			SweepBeforeSnapshot: true,
			OnSnapshotError: func(err error) {
				log.Printf("oasisd: snapshot failed (will retry): %v", err)
			},
		})
		if err != nil {
			return fmt.Errorf("recovering store from %s: %w", cfg.storeDir, err)
		}
		defer func() {
			// The close flushes the final group commit; a failure here
			// means the tail of the journal may not be durable.
			if err := eng.Close(); err != nil {
				log.Printf("oasisd: closing store: %v", err)
			}
		}()
		snap, segs, recs, torn := eng.Recovered()
		log.Printf("oasisd: store %s recovered: snapshot %d, %d tail segment(s), %d record(s) replayed, torn tail: %v",
			cfg.storeDir, snap, segs, recs, torn)
		opts.Store = eng.Store()
	}
	svc, err := oasis.New(name, clk, network, opts)
	if err != nil {
		return err
	}
	for peer, addr := range cfg.remotes {
		if err := network.AddRemote(peer, addr); err != nil {
			return fmt.Errorf("join %s at %s: %w", peer, addr, err)
		}
		log.Printf("oasisd: joined peer %q at %s", peer, addr)
	}
	if err := svc.AddRolefile(cfg.scope, src); err != nil {
		return err
	}
	if cfg.shardRing != "" {
		members := strings.Split(cfg.shardRing, ",")
		for i := range members {
			members[i] = strings.TrimSpace(members[i])
		}
		if err := svc.JoinShardRing(members, cfg.shardFanout); err != nil {
			return fmt.Errorf("joining shard ring: %w", err)
		}
		fanout := "default"
		if cfg.shardFanout > 0 {
			fanout = fmt.Sprint(cfg.shardFanout)
		}
		log.Printf("oasisd: joined shard ring %v (tree fanout %s)", svc.ShardRingMembers(), fanout)
	}
	if cfg.peerListen != "" {
		peerLn, err := net.Listen("tcp", cfg.peerListen)
		if err != nil {
			return err
		}
		defer peerLn.Close()
		go func() {
			if err := network.ServeTCP(peerLn); err != nil {
				log.Printf("oasisd: peer listener: %v", err)
			}
		}()
		log.Printf("oasisd: inter-service protocol on %s", peerLn.Addr())
	}
	stopHB := svc.StartHeartbeats()
	defer stopHB()
	stopSusp := svc.StartSuspicion()
	defer stopSusp()
	if cfg.httpListen != "" {
		httpLn, err := net.Listen("tcp", cfg.httpListen)
		if err != nil {
			return err
		}
		defer httpLn.Close()
		gw := newGateway(svc, network, cfg)
		go func() {
			if err := gw.Serve(httpLn); err != nil {
				log.Printf("oasisd: gateway listener: %v", err)
			}
		}()
		log.Printf("oasisd: federation gateway on %s (rate %.0f/s, max-conns %d, pressure %d)",
			httpLn.Addr(), cfg.httpRate, cfg.httpMaxConns, cfg.httpPressure)
	}
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	log.Printf("oasisd: service %q serving rolefile %q on %s", name, cfg.scope, ln.Addr())
	srv := NewServer(svc)
	return srv.Serve(ln)
}
