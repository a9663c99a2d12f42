package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/credrec/storage"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// persistentServer is an oasisd whose store came from openStore — the
// wiring run() deploys — serving the line protocol.
type persistentServer struct {
	addr    string
	store   credrec.Recorder
	engines []*storage.Engine
	// stop closes only the listener, leaving the engines exactly as a
	// crash would.
	stop func()
}

// startPersistentServer opens cfg's store under -sync always and serves
// rolefile over it.
func startPersistentServer(t *testing.T, cfg config, rolefile string) *persistentServer {
	t.Helper()
	cfg.syncMode = "always"
	store, engines, err := openStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := oasis.New("Login", clock.Real(), nil, oasis.Options{Store: store})
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
	srv := NewServer(svc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	return &persistentServer{addr: ln.Addr().String(), store: store, engines: engines, stop: func() {
		_ = ln.Close()
		<-done
	}}
}

// closeEngines is the orderly end of a test's last server.
func (p *persistentServer) closeEngines(t *testing.T) {
	t.Helper()
	p.stop()
	for _, eng := range p.engines {
		if err := eng.Close(); err != nil {
			t.Error(err)
		}
	}
}

func enterLogin(t *testing.T, c *Client, client ids.ClientID, user string) *cert.RMC {
	t.Helper()
	rmc, err := c.Enter(oasis.EnterRequest{
		Client: client, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{
			value.Object("Login.userid", user),
			value.Object("Login.host", "ely"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rmc
}

// The acceptance test for the persistence engine: kill an oasisd whose
// store lives in -store-dir, restart it on the same directory, and the
// recovered store is identical to the pre-crash image — certificates
// issued before the crash still validate, certificates revoked before
// the crash stay revoked.
func TestPersistentStoreSurvivesRestart(t *testing.T) {
	cfg := config{storeDir: t.TempDir()}
	srv := startPersistentServer(t, cfg, builtinLoginRolefile)

	c, err := Dial(srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	host := ids.NewHostAuthority("ely", time.Now())
	alice, bob := host.NewDomain(), host.NewDomain()
	aliceCert := enterLogin(t, c, alice, "alice")
	bobCert := enterLogin(t, c, bob, "bob")
	// Bob logs off before the crash: his certificate must stay dead.
	if err := c.Exit(bobCert, bob); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(aliceCert, alice); err != nil {
		t.Fatal(err)
	}

	// Capture the pre-crash image at a quiet point, then crash: the
	// listener dies, the engine is abandoned un-Closed (SyncAlways means
	// everything already reached the files).
	preCrash := srv.store.Image()
	c.Close()
	srv.stop()

	srv2 := startPersistentServer(t, cfg, builtinLoginRolefile)
	defer srv2.closeEngines(t)
	if !bytes.Equal(srv2.store.Image(), preCrash) {
		t.Fatalf("recovered store differs from pre-crash image:\n-- pre-crash --\n%s\n-- recovered --\n%s",
			preCrash, srv2.store.Image())
	}

	c2, err := Dial(srv2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Validate(aliceCert, alice); err != nil {
		t.Fatalf("pre-crash certificate rejected after restart: %v", err)
	}
	if err := c2.Validate(bobCert, bob); err == nil {
		t.Fatal("pre-crash revocation forgotten after restart")
	}
	// The restarted daemon keeps working: new entries, new revocations.
	carol := host.NewDomain()
	carolCert := enterLogin(t, c2, carol, "carol")
	if err := c2.Validate(carolCert, carol); err != nil {
		t.Fatal(err)
	}
	if err := c2.Exit(aliceCert, alice); err != nil {
		t.Fatal(err)
	}
	if err := c2.Validate(aliceCert, alice); err == nil {
		t.Fatal("post-restart revocation did not take")
	}
}

// A second restart after more activity — snapshot in between — proves
// recovery composes: snapshot, tail, crash, recover, repeat.
func TestPersistentStoreSnapshotThenRestart(t *testing.T) {
	cfg := config{storeDir: t.TempDir()}
	srv := startPersistentServer(t, cfg, builtinLoginRolefile)
	c, err := Dial(srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	host := ids.NewHostAuthority("ely", time.Now())
	alice := host.NewDomain()
	aliceCert := enterLogin(t, c, alice, "alice")
	if err := srv.engines[0].Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot tail: bob enters and alice leaves.
	bob := host.NewDomain()
	bobCert := enterLogin(t, c, bob, "bob")
	if err := c.Exit(aliceCert, alice); err != nil {
		t.Fatal(err)
	}
	preCrash := srv.store.Image()
	c.Close()
	srv.stop()

	srv2 := startPersistentServer(t, cfg, builtinLoginRolefile)
	defer srv2.closeEngines(t)
	if srv2.engines[0].Vars().Get("snapshot").String() == "0" {
		t.Fatal("restart did not use the snapshot")
	}
	if !bytes.Equal(srv2.store.Image(), preCrash) {
		t.Fatal("snapshot+tail recovery differs from pre-crash image")
	}
	c2, err := Dial(srv2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Validate(bobCert, bob); err != nil {
		t.Fatalf("tail-journaled certificate rejected after restart: %v", err)
	}
	if err := c2.Validate(aliceCert, alice); err == nil {
		t.Fatal("tail-journaled revocation forgotten after restart")
	}
}

// sessionRolefile makes a Session depend on two certificates of the
// same service: its credential record is the conjunction of the login
// record and the badge record, placed on the login record's shard, so
// wherever placement put the badge on another shard the dependency
// crosses shards over a bridge.
const sessionRolefile = `
def LoggedOn(u, h) u: Login.userid h: Login.host
def Badge(u) u: Login.userid
def Session(u) u: Login.userid
LoggedOn(u, h) <-
Badge(u) <-
Session(u) <- LoggedOn(u, h)* & Badge(u)*
`

// sessionUser is one principal holding a Session whose badge lives on
// another shard than the session's record.
type sessionUser struct {
	client                ids.ClientID
	login, badge, session *cert.RMC
}

// enterCrossShardSession logs users in until one's badge and session
// land on different shards.
func enterCrossShardSession(t *testing.T, c *Client, ss *credrec.ShardedStore, host *ids.HostAuthority, name string) sessionUser {
	t.Helper()
	for try := 0; try < 64; try++ {
		u := sessionUser{client: host.NewDomain()}
		user := fmt.Sprintf("%s%d", name, try)
		u.login = enterLogin(t, c, u.client, user)
		var err error
		u.badge, err = c.Enter(oasis.EnterRequest{Client: u.client, Rolefile: "main", Role: "Badge",
			Args: []value.Value{value.Object("Login.userid", user)}})
		if err != nil {
			t.Fatal(err)
		}
		u.session, err = c.Enter(oasis.EnterRequest{Client: u.client, Rolefile: "main", Role: "Session",
			Creds: []*cert.RMC{u.login, u.badge}})
		if err != nil {
			t.Fatal(err)
		}
		if ss.ShardOf(u.badge.CRR) != ss.ShardOf(u.session.CRR) {
			return u
		}
	}
	t.Fatal("no session crossed shards in 64 tries")
	return sessionUser{}
}

// The -shards 4 -store-dir twin of TestPersistentStoreSurvivesRestart:
// every shard journals to a directory of its own, the daemon is killed
// with the engines abandoned, and the restart recovers the pre-crash
// image — certificates issued before the crash validate, a session
// revoked across shards before the crash stays dead, and a cascade
// across shards works on the recovered store, which it can only do if
// the edges were rebuilt from what the shards persisted.
func TestShardedPersistentStoreSurvivesRestart(t *testing.T) {
	cfg := config{storeDir: t.TempDir(), shards: 4}
	srv := startPersistentServer(t, cfg, sessionRolefile)
	ss, ok := srv.store.(*credrec.ShardedStore)
	if !ok || len(srv.engines) != 4 {
		t.Fatalf("openStore built %T over %d engine(s), want a sharded store over 4", srv.store, len(srv.engines))
	}
	c, err := Dial(srv.addr)
	if err != nil {
		t.Fatal(err)
	}
	host := ids.NewHostAuthority("ely", time.Now())
	alice := enterCrossShardSession(t, c, ss, host, "alice")
	bob := enterCrossShardSession(t, c, ss, host, "bob")
	carol := enterCrossShardSession(t, c, ss, host, "carol")
	// Bob hands his badge back before the crash: the revocation crosses
	// shards, and his session must stay dead.
	if err := c.Exit(bob.badge, bob.client); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(bob.session, bob.client); err == nil {
		t.Fatal("setup: revoking the badge did not cross to the session's shard")
	}
	for _, u := range []sessionUser{alice, carol} {
		if err := c.Validate(u.session, u.client); err != nil {
			t.Fatal(err)
		}
	}
	preCrash := srv.store.Image()
	c.Close()
	srv.stop() // the four engines are abandoned un-Closed

	srv2 := startPersistentServer(t, cfg, sessionRolefile)
	defer srv2.closeEngines(t)
	if !bytes.Equal(srv2.store.Image(), preCrash) {
		t.Fatalf("recovered store differs from pre-crash image:\n-- pre-crash --\n%s\n-- recovered --\n%s",
			preCrash, srv2.store.Image())
	}
	c2, err := Dial(srv2.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for _, u := range []sessionUser{alice, carol} {
		if err := c2.Validate(u.session, u.client); err != nil {
			t.Fatalf("pre-crash session rejected after restart: %v", err)
		}
	}
	if err := c2.Validate(bob.session, bob.client); err == nil {
		t.Fatal("pre-crash cross-shard revocation forgotten after restart")
	}
	// A cross-shard cascade on the recovered store.
	if err := c2.Exit(alice.badge, alice.client); err != nil {
		t.Fatal(err)
	}
	if err := c2.Validate(alice.session, alice.client); err == nil {
		t.Fatal("post-restart revocation did not cross shards: the edge table was not rebuilt")
	}
	if err := c2.Validate(carol.session, carol.client); err != nil {
		t.Fatalf("an unrelated session died with alice's: %v", err)
	}
	// And the restarted daemon keeps working.
	dave := enterCrossShardSession(t, c2, srv2.store.(*credrec.ShardedStore), host, "dave")
	if err := c2.Validate(dave.session, dave.client); err != nil {
		t.Fatal(err)
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// testdata/monolith_pr18 is a -store-dir the commit before the journal
// moved into credrec.Store wrote (a snapshot, a journal tail, no clean
// close) with, in image.txt, the image its live store had. It must
// recover to exactly that.
func TestMonolithDirFromParentCommitRecovers(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "monolith_pr18"), dir)
	want, err := os.ReadFile(filepath.Join(dir, "image.txt"))
	if err != nil {
		t.Fatal(err)
	}
	store, engines, err := openStore(config{storeDir: dir, syncMode: "batched"})
	if err != nil {
		t.Fatal(err)
	}
	defer engines[0].Close()
	if got := engines[0].Vars(); got.Get("snapshot").String() != "1" || got.Get("segments").String() != "1" ||
		got.Get("records").String() == "0" {
		t.Fatalf("recovered %s; want snapshot 1 and its tail", got)
	}
	if got := store.Image(); !bytes.Equal(got, want) {
		t.Fatalf("recovered image differs from the one its writer had:\n-- recovered --\n%s-- want --\n%s", got, want)
	}
}

// References seal the shard that owns them, so a directory written
// under one shape must refuse to open under another rather than boot an
// empty or misrouted store.
func TestStoreShapeGuard(t *testing.T) {
	open := func(dir string, shards int) error {
		_, engines, err := openStore(config{storeDir: dir, shards: shards, syncMode: "batched"})
		for _, eng := range engines {
			if cerr := eng.Close(); cerr != nil {
				t.Error(cerr)
			}
		}
		return err
	}
	mono, sharded := t.TempDir(), t.TempDir()
	copyDir(t, filepath.Join("testdata", "monolith_pr18"), mono)
	if err := open(sharded, 4); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		dir    string
		shards int
		want   []string // both shapes, named in the refusal
	}{
		{"monolith as 4 shards", mono, 4, []string{"written under -shards 0 (one monolithic store)", "opened under -shards 4 (one store per directory s00…s03)"}},
		{"4 shards as monolith", sharded, 0, []string{"written under -shards 4 (", "opened under -shards 0 ("}},
		{"4 shards as 1", sharded, 1, []string{"written under -shards 4 (", "opened under -shards 0 ("}},
		{"4 shards as 8", sharded, 8, []string{"written under -shards 4 (", "opened under -shards 8 (one store per directory s00…s07)"}},
		{"4 shards as 2", sharded, 2, []string{"written under -shards 4 (", "opened under -shards 2 ("}},
	} {
		err := open(tc.dir, tc.shards)
		if err == nil {
			t.Errorf("%s: opened", tc.name)
			continue
		}
		for _, shape := range tc.want {
			if !strings.Contains(err.Error(), shape) {
				t.Errorf("%s: refusal %q does not name %q", tc.name, err, shape)
			}
		}
	}
	// The refusals left both directories as they were.
	if err := open(mono, 0); err != nil {
		t.Errorf("monolithic directory no longer opens as itself: %v", err)
	}
	if err := open(sharded, 4); err != nil {
		t.Errorf("4-shard directory no longer opens as itself: %v", err)
	}
	if entries, err := os.ReadDir(mono); err != nil || len(entries) == 0 {
		t.Fatal(err)
	} else {
		for _, e := range entries {
			if e.IsDir() {
				t.Errorf("refused open left %s in the monolithic directory", e.Name())
			}
		}
	}
}

// SIGTERM must not skip the deferred close: run returns nil through its
// defers, every engine is flushed and closed, and the directories
// reopen with no torn tail to the image the store had when it stopped —
// under -sync batched, where an abandoned engine may lose its last
// batch. While it serves, a daemon whose journal fsyncs runs one P
// above the count it started with, and every daemon is back at that
// count once run returns; in memory and under -sync none the count
// never moves.
func TestSignalStopsAndFlushes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		storeDir  string
		syncMode  string
		spareProc int
	}{
		{"batched", t.TempDir(), "batched", 1},
		{"none", t.TempDir(), "none", 0},
		{"in memory", "", "batched", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config{
				name: "Login", scope: "main", listen: "127.0.0.1:0",
				storeDir: tc.storeDir, shards: 4, syncMode: tc.syncMode, snapshotEvery: 4096,
				failsafeMissed: 3,
			}
			signalStopsAndFlushes(t, cfg, tc.spareProc)
		})
	}
}

func signalStopsAndFlushes(t *testing.T, cfg config, spareProc int) {
	type live struct {
		addr  net.Addr
		store credrec.Recorder
		procs int
	}
	before := runtime.GOMAXPROCS(0)
	serving := make(chan live, 1)
	cfg.serving = func(addr net.Addr, store credrec.Recorder) {
		serving <- live{addr, store, runtime.GOMAXPROCS(0)}
	}
	done := make(chan error, 1)
	go func() { done <- run(cfg) }()
	var l live
	select {
	case l = <-serving:
	case err := <-done:
		t.Fatalf("run returned before serving: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("run never served")
	}
	if want := before + spareProc; l.procs != want {
		t.Errorf("GOMAXPROCS while serving = %d, want %d (%d before run)", l.procs, want, before)
	}
	c, err := Dial(l.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	host := ids.NewHostAuthority("ely", time.Now())
	var last *cert.RMC
	var lastClient ids.ClientID
	for i := 0; i < 40; i++ {
		lastClient = host.NewDomain()
		last = enterLogin(t, c, lastClient, fmt.Sprintf("user%d", i))
		if i%3 == 1 { // not the last
			if err := c.Exit(last, lastClient); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Close()
	preStop := l.store.Image()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stopped run returned %v, want nil (exit status 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	if got := runtime.GOMAXPROCS(0); got != before {
		t.Errorf("GOMAXPROCS after run = %d, want %d, the count before it", got, before)
	}
	if cfg.storeDir == "" {
		return
	}

	cfg.serving = nil
	store, engines, err := openStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		if eng.Vars().Get("torn").String() != "0" {
			t.Errorf("shard %d reopened with a torn tail", i)
		}
		defer eng.Close()
	}
	if got := store.Image(); !bytes.Equal(got, preStop) {
		t.Fatalf("reopened image differs from the one the store stopped with:\n-- stopped --\n%s-- reopened --\n%s", preStop, got)
	}
	if !store.Valid(last.CRR) {
		t.Fatal("the last certificate issued before the stop did not survive it")
	}
}
