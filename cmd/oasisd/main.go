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
// policy (always / batched / none). Under always and batched the
// daemon runs one P more than the runtime chose (GOMAXPROCS + 1):
// a committer or snapshot blocked in fsync holds a thread and its P,
// and the spare P keeps requests served meanwhile; in memory and under
// -sync none the runtime's count stands. SIGTERM and SIGINT stop the
// listeners and flush and close the store before the process exits.
//
// -http-listen opens the federation gateway (internal/gateway): role
// entry as token issuance, live token introspection, and RFC 7009
// revocation over HTTP/JSON for clients outside the trusted-peer
// protocol (docs/GATEWAY.md). -http-rate shapes the per-client token
// bucket and -http-max-conns caps concurrent connections.
//
// -shards partitions this process's credential-record store across N
// shards (internal/credrec.ShardedStore): a leaf record goes to the
// shard a hash of the allocation count names, a derived record to its
// first parent's, cascades route by the shard id sealed into each ref,
// and cross-shard dependency edges run over bridge surrogates
// (docs/SHARDING.md). With -store-dir each shard journals to a
// directory of its own (<dir>/s00, <dir>/s01, …) with its own group
// commit and snapshot trigger; a directory written under one shape
// (monolithic, or N shards) refuses to open under another.
//
// A certificate crosses between daemons as between any two services,
// over the watch a relying daemon holds at its issuer (-remote).
//
// -admin-listen opens the administration port: /debug/vars, the
// service's counters (oasis.Service.Vars: the audit counters of §4.13,
// the bus's, the store's, the gateway's, each journal's recovery
// figures, each watched source's suspicion state, whether a resync of
// it is in flight and how many of its notes wait behind it, the duty
// loop's timings and GOMAXPROCS) with the process's memstats and cmdline, and
// net/http/pprof's profiles under /debug/pprof/. It is empty, and so
// closed, by default, and must never be exposed beyond the operator's
// own host: profiles and per-source state are for administration only,
// and the port has no authentication.
//
// Every heartbeat period the service runs its duties
// (oasis.Service.StartDuties): heartbeats to its watchers, failure
// suspicion, delegation expiry, record sweep (§4.8: revoked records are
// deleted, so memory does not grow with every logout). None of them
// waits on a peer. Watched sources degrade through suspect/failed after
// -failsafe-missed silent periods, recover by an automatic resync,
// started on a goroutine of its own when the source is heard again, and
// every transition is logged.
//
// Protocol (one JSON object per line):
//
//	{"op":"enter","enter":{...}}          -> {"ok":true,"cert":{...}}
//	{"op":"validate","cert":{...},"client":{...}} -> {"ok":true}
//	{"op":"exit","cert":{...},"client":{...}}     -> {"ok":true}
//	{"op":"roles","cert":{...}}           -> {"ok":true,"roles":[...]}
package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"oasis/internal/bus"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/credrec/storage"
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
	cfg, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err == nil {
		err = run(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseFlags declares the daemon's flags on fs and parses args.
func parseFlags(fs *flag.FlagSet, args []string) (config, error) {
	cfg := config{remotes: remoteFlags{}}
	fs.StringVar(&cfg.name, "name", "Login", "service instance name")
	fs.StringVar(&cfg.rolefilePath, "rolefile", "", "rolefile path (default: built-in Login rolefile)")
	fs.StringVar(&cfg.scope, "scope", "main", "rolefile scope id")
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:7465", "client (JSON) listen address")
	fs.StringVar(&cfg.peerListen, "peer-listen", "", "inter-service listen address; empty disables")
	fs.StringVar(&cfg.adminListen, "admin-listen", "", "administration listen address (/debug/vars, /debug/pprof/); empty disables; never expose it")
	fs.IntVar(&cfg.failsafeMissed, "failsafe-missed", 3, "heartbeat periods of silence before a watched source's records fail safe to False")
	fs.StringVar(&cfg.httpListen, "http-listen", "", "federation gateway (HTTP/JSON token issuance/introspection/revocation) listen address; empty disables")
	fs.Float64Var(&cfg.httpRate, "http-rate", 50, "gateway per-client request budget in requests/second (0 disables rate limiting)")
	fs.IntVar(&cfg.httpMaxConns, "http-max-conns", 1024, "gateway concurrent-connection cap (0 = unlimited)")
	fs.IntVar(&cfg.shards, "shards", 0, "partition the credential-record store across this many shards (0/1 keeps the monolithic store); with -store-dir each shard journals to <dir>/sNN")
	fs.StringVar(&cfg.storeDir, "store-dir", "", "persist the credential-record store in this directory (journal + snapshots); empty keeps it in memory")
	fs.IntVar(&cfg.snapshotEvery, "snapshot-every", 4096, "journal operations between automatic snapshots/compactions (0 disables the trigger)")
	fs.StringVar(&cfg.syncMode, "sync", "batched", "journal durability: always (fsync before a mutation returns), batched (one fsync per group commit), none")
	fs.Var(cfg.remotes, "remote", "peer service name=addr (repeatable)")
	return cfg, fs.Parse(args)
}

type config struct {
	name, rolefilePath, scope string
	listen, peerListen        string
	adminListen               string
	failsafeMissed            int
	remotes                   remoteFlags
	shards                    int
	storeDir                  string
	snapshotEvery             int
	syncMode                  string
	httpListen                string
	httpRate                  float64
	httpMaxConns              int

	// serving, if set, is told the client listener's address and the
	// store once run is serving (tests).
	serving func(addr net.Addr, store credrec.Recorder)
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
	opts := oasis.Options{
		FailsafeMissed: cfg.failsafeMissed,
		AutoResync:     true,
		OnSourceState: func(source string, from, to oasis.SourceState) {
			log.Printf("oasisd: source %q %s -> %s", source, from, to)
		},
	}
	if fsyncs(cfg) {
		// Set before the store opens and restored after it closes, so
		// every fsync of this run has the spare P beside it.
		procs := runtime.GOMAXPROCS(0)
		runtime.GOMAXPROCS(procs + 1)
		defer runtime.GOMAXPROCS(procs)
		log.Printf("oasisd: journaling to %s: GOMAXPROCS %d (%d CPU + 1 for the disk)", cfg.storeDir, procs+1, procs)
	}
	store, engines, err := openStore(cfg)
	if err != nil {
		return err
	}
	opts.Store = store
	defer func() {
		// The close flushes the final group commit; a failure here
		// means the tail of the journal may not be durable.
		for _, eng := range engines {
			if err := eng.Close(); err != nil {
				log.Printf("oasisd: closing store: %v", err)
			}
		}
	}()
	svc, err := oasis.New(name, clk, network, opts)
	if err != nil {
		return err
	}
	svc.Vars().Set("gomaxprocs", expvar.Func(func() any { return runtime.GOMAXPROCS(0) }))
	for i, eng := range engines {
		svc.Vars().Set(fmt.Sprintf("recovery.%d", i), eng.Vars())
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
	if cfg.peerListen != "" {
		peerLn, err := net.Listen("tcp", cfg.peerListen)
		if err != nil {
			return err
		}
		defer peerLn.Close()
		go func() {
			if err := network.ServeTCP(peerLn); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("oasisd: peer listener: %v", err)
			}
		}()
		log.Printf("oasisd: inter-service protocol on %s", peerLn.Addr())
	}
	if cfg.adminListen != "" {
		adminLn, err := net.Listen("tcp", cfg.adminListen)
		if err != nil {
			return err
		}
		defer serveAdmin(adminLn, svc).Close()
		log.Printf("oasisd: admin (/debug/vars, /debug/pprof/) on %s", adminLn.Addr())
	}
	stopDuties := svc.StartDuties()
	defer stopDuties()
	if cfg.httpListen != "" {
		httpLn, err := net.Listen("tcp", cfg.httpListen)
		if err != nil {
			return err
		}
		gw := newGateway(svc, cfg)
		gwDone := make(chan struct{})
		// Serve returns once its listener closes, even with every
		// connection slot held.
		defer func() { _ = httpLn.Close(); <-gwDone }()
		go func() {
			defer close(gwDone)
			if err := gw.Serve(httpLn); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("oasisd: gateway listener: %v", err)
			}
		}()
		log.Printf("oasisd: federation gateway on %s (rate %.0f/s, max-conns %d)",
			httpLn.Addr(), cfg.httpRate, cfg.httpMaxConns)
	}
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	log.Printf("oasisd: service %q serving rolefile %q on %s", name, cfg.scope, ln.Addr())
	served := make(chan error, 1)
	go func() { served <- NewServer(svc).Serve(ln) }()
	if cfg.serving != nil {
		cfg.serving(ln.Addr(), svc.Store())
	}
	select {
	case err := <-served:
		return err
	case sig := <-stop:
		// Returning runs the defers: listeners closed, heartbeats
		// stopped, then every engine flushed and closed.
		log.Printf("oasisd: %v: closing listeners and flushing the store", sig)
		return nil
	}
}

// serveAdmin serves -admin-listen on ln until the returned server is
// closed: /debug/vars is expvar's process-wide "cmdline" and "memstats"
// beside the service's Vars under its name, and /debug/pprof/ is
// net/http/pprof's five handlers. The mux is the port's own: the two
// packages also register on net/http's default mux when imported, and
// nothing here serves that.
func serveAdmin(ln net.Listener, svc *oasis.Service) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		name, _ := json.Marshal(svc.Name()) // JSON's quoting, not Go's %q
		fmt.Fprintf(w, "{\"cmdline\": %s, \"memstats\": %s, %s: %s}\n", expvar.Get("cmdline"), expvar.Get("memstats"), name, svc.Vars())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			log.Printf("oasisd: admin listener: %v", err)
		}
	}()
	return srv
}

// fsyncs reports whether the store cfg asks for waits on fsync: a
// journal under -sync always or batched. A goroutine in fsync keeps
// its P until the runtime's monitor hands the P to another thread,
// 20 µs to 10 ms later, so run gives such a daemon one P for the disk.
func fsyncs(cfg config) bool {
	policy, err := credrec.ParseSyncPolicy(cfg.syncMode)
	return cfg.storeDir != "" && err == nil && policy != credrec.SyncNone
}

// shardName is the name of shard i and of its directory under
// -store-dir.
func shardName(i int) string { return fmt.Sprintf("s%02d", i) }

// openStore builds the credential-record store cfg asks for:
// monolithic or partitioned (-shards), in memory or recovered from
// -store-dir by one storage.Engine on the directory itself or one per
// shard on <dir>/sNN. A nil store leaves oasis.New its in-memory
// default. The caller closes the engines.
func openStore(cfg config) (credrec.Recorder, []*storage.Engine, error) {
	shards := cfg.shards
	if shards <= 1 {
		shards = 0
	}
	names := make([]string, shards)
	for i := range names {
		names[i] = shardName(i)
	}
	if cfg.storeDir == "" {
		if shards == 0 {
			return nil, nil, nil
		}
		ss, err := credrec.NewShardedStore(names, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("building sharded store: %w", err)
		}
		log.Printf("oasisd: credential-record store partitioned across %d shard(s)", shards)
		return ss, nil, nil
	}
	policy, err := credrec.ParseSyncPolicy(cfg.syncMode)
	if err != nil {
		return nil, nil, err
	}
	if err := checkStoreShape(cfg.storeDir, shards); err != nil {
		return nil, nil, err
	}
	dirs := []string{cfg.storeDir}
	if shards > 0 {
		dirs = dirs[:0]
		for _, n := range names {
			dirs = append(dirs, filepath.Join(cfg.storeDir, n))
		}
	}
	// Every directory is made before any engine writes to one, so the
	// shape on disk is whole from the first boot on.
	backends := make([]*storage.Dir, len(dirs))
	for i, dir := range dirs {
		if backends[i], err = storage.OpenDir(dir); err != nil {
			return nil, nil, fmt.Errorf("opening store dir: %w", err)
		}
	}
	var engines []*storage.Engine
	var stores []*credrec.Store
	fail := func(err error) (credrec.Recorder, []*storage.Engine, error) {
		for _, eng := range engines {
			_ = eng.Close() // nothing was written through it
		}
		return nil, nil, err
	}
	for i, dir := range dirs {
		eng, err := storage.Open(backends[i], storage.Options{
			Sync:                policy,
			SnapshotEveryOps:    cfg.snapshotEvery,
			SweepBeforeSnapshot: true,
			OnSnapshotError: func(err error) {
				log.Printf("oasisd: snapshot of %s failed (will retry): %v", dir, err)
			},
		})
		if err != nil {
			return fail(fmt.Errorf("recovering store from %s: %w", dir, err))
		}
		engines = append(engines, eng)
		stores = append(stores, eng.Store())
		log.Printf("oasisd: store %s recovered: %s", dir, eng.Vars())
	}
	if shards == 0 {
		return stores[0], engines, nil
	}
	ss, err := credrec.OpenShardedStore(names, stores)
	if err != nil {
		return fail(fmt.Errorf("opening sharded store in %s: %w", cfg.storeDir, err))
	}
	log.Printf("oasisd: credential-record store partitioned across %d durable shard(s)", shards)
	return ss, engines, nil
}

// checkStoreShape refuses a -store-dir an earlier run wrote under
// another shape than shards asks for (0: monolithic). References seal
// the id of the shard that owns them, so a monolithic store opened as
// shard directories would boot empty, and N shards opened as M would
// misroute or orphan what the certificates in the field refer to.
func checkStoreShape(dir string, shards int) error {
	be, err := storage.OpenDir(dir)
	if err != nil {
		return fmt.Errorf("opening store dir: %w", err)
	}
	segs, err := be.ListSegments()
	if err != nil {
		return fmt.Errorf("opening store dir: %w", err)
	}
	held := 0 // shard directories present
	for i := 0; i < credrec.MaxStoreShards; i++ {
		if fi, err := os.Stat(filepath.Join(dir, shardName(i))); err == nil && fi.IsDir() {
			held++
		}
	}
	if len(segs) == 0 && held == 0 {
		return nil // nothing written yet
	}
	written := held // the -shards value the directory was written under
	if len(segs) > 0 {
		written = 0 // journal segments in dir itself: a monolithic store
	}
	if written == shards {
		return nil
	}
	describe := func(n int) string {
		if n == 0 {
			return "-shards 0 (one monolithic store)"
		}
		return fmt.Sprintf("-shards %d (one store per directory %s…%s)", n, shardName(0), shardName(n-1))
	}
	return fmt.Errorf("store directory %s was written under %s and cannot be opened under %s: references seal the shard that owns them",
		dir, describe(written), describe(shards))
}
