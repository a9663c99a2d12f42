package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/credrec/storage"
	"oasis/internal/gateway"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// In-process replicas of what the daemons deploy, built with the
// constructor calls cmd/oasisd's run() makes. The traced pass and the
// layer probes time calls into them from here, so no file under
// internal/ or cmd/ carries a span, counter, flag or switch for the
// benchmark's sake.

// serviceOptions are the oasis.Options run() deploys.
func serviceOptions(store credrec.Recorder) oasis.Options {
	return oasis.Options{FailsafeMissed: 3, AutoResync: true, Store: store}
}

// gatewayOptions are the gateway.Options run() deploys under the
// benchmark's flags (-http-rate 0, default connection cap and pressure
// limit).
func gatewayOptions(svc *oasis.Service) gateway.Options {
	return gateway.Options{
		RatePerSec:    0,
		MaxConns:      1024,
		PressureLimit: 4096,
		Pressure:      svc.ClusterPendingNotifications,
	}
}

// replicaKind selects the store a replica runs on, as the workload's
// daemon flags do.
type replicaKind int

const (
	plainStore   replicaKind = iota // in-memory monolithic store
	shardedStore                    // -shards 4
	durableStore                    // -store-dir, -sync batched, -snapshot-every 4096
)

// replica is one service behind its gateway handler, in this process.
type replica struct {
	svc *oasis.Service
	gw  http.Handler
	eng *storage.Engine // durable replicas only
	id  ids.ClientID
}

func newReplica(kind replicaKind, dir string) (*replica, error) {
	r := &replica{id: benchClient(7)}
	var store credrec.Recorder
	switch kind {
	case shardedStore:
		ss, err := credrec.NewShardedStore([]string{"s00", "s01", "s02", "s03"}, 0)
		if err != nil {
			return nil, err
		}
		store = ss
	case durableStore:
		be, err := storage.OpenDir(dir)
		if err != nil {
			return nil, err
		}
		r.eng, err = storage.Open(be, storage.Options{
			Sync: credrec.SyncBatched, SnapshotEveryOps: 4096, SweepBeforeSnapshot: true,
		})
		if err != nil {
			return nil, err
		}
		store = r.eng.Store()
	}
	var err error
	if r.svc, err = oasis.New("Login", clock.Real(), bus.NewNetwork(clock.Real()), serviceOptions(store)); err != nil {
		return nil, err
	}
	if err := r.svc.AddRolefile("main", loginRolefile); err != nil {
		return nil, err
	}
	r.gw = gateway.New(r.svc, gatewayOptions(r.svc)).Handler()
	return r, nil
}

func (r *replica) close() {
	if r.eng != nil {
		_ = r.eng.Close() // a scratch store: nothing reads it again
	}
}

// memResponse is the ResponseWriter the replica's handler writes to.
type memResponse struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header         { return m.hdr }
func (m *memResponse) WriteHeader(status int)      { m.status = status }
func (m *memResponse) Write(p []byte) (int, error) { return m.body.Write(p) }

// post feeds one request body to the gateway handler, exactly what the
// daemon's net/http server does after it has read the request off the
// socket.
func (r *replica) post(path string, body []byte) (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // a constant method and path always form a request
	}
	req.RemoteAddr = "127.0.0.1:1"
	resp := &memResponse{hdr: http.Header{}, status: http.StatusOK}
	r.gw.ServeHTTP(resp, req)
	return resp.status, resp.body.Bytes()
}

func (r *replica) loggedOnRequest(user string) oasis.EnterRequest {
	return oasis.EnterRequest{
		Client: r.id, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{value.Object("Login.userid", user), value.Object("Login.host", "bench")},
	}
}

// issueToken issues LoggedOn(user) through the handler and returns the
// token with its certificate.
func (r *replica) issueToken(user string) (string, *cert.RMC, error) {
	status, body := r.post("/v1/token", tokenBody(r.id, "LoggedOn", loggedOnArgs(user), nil))
	if status != http.StatusOK {
		return "", nil, fmt.Errorf("replica: issuing LoggedOn(%s): status %d: %s", user, status, body)
	}
	var resp gateway.TokenResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", nil, err
	}
	return resp.Token, resp.Cert, nil
}

func tokenJSON(token string) []byte { return []byte(`{"token":"` + token + `"}`) }

// peerWorld is a Login service served over loopback TCP in this
// process, and a caller network joined to it: peer_validate with the
// daemon's process boundary removed.
type peerWorld struct {
	svc    *oasis.Service
	ln     net.Listener
	caller *bus.Network
}

func newPeerWorld() (*peerWorld, error) {
	oasis.RegisterWireTypes()
	w := &peerWorld{}
	served := bus.NewNetwork(clock.Real())
	var err error
	if w.svc, err = oasis.New("Login", clock.Real(), served, serviceOptions(nil)); err != nil {
		return nil, err
	}
	if err := w.svc.AddRolefile("main", loginRolefile); err != nil {
		return nil, err
	}
	if w.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() { _ = served.ServeTCP(w.ln) }() // returns when close() closes the listener
	if w.caller, err = dialPeer(w.ln.Addr().String()); err != nil {
		_ = w.ln.Close()
		return nil, err
	}
	return w, nil
}

func (w *peerWorld) close() {
	w.caller.CloseRemotes()
	_ = w.ln.Close()
}

// stormWorld is the storm's three services in this process. With tcp
// set, each has its own bus network and the Confs join Login over
// loopback TCP, as the daemons do; without, all three share one
// network and no byte is encoded.
type stormWorld struct {
	login *oasis.Service
	confs [2]*oasis.Service
	k     int
	id    ids.ClientID
	ln    net.Listener
	nets  []*bus.Network
	ref   *reference // what awaitFlip blocks on between looks
}

func newStormWorld(tcp bool, k int) (*stormWorld, error) {
	oasis.RegisterWireTypes()
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	w := &stormWorld{k: k, id: benchClient(9), ref: ref}
	loginNet := bus.NewNetwork(clock.Real())
	w.nets = append(w.nets, loginNet)
	if w.login, err = oasis.New("Login", clock.Real(), loginNet, serviceOptions(nil)); err != nil {
		w.close()
		return nil, err
	}
	if err := w.login.AddRolefile("main", stormLoginRolefile); err != nil {
		w.close()
		return nil, err
	}
	if tcp {
		if w.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			w.close()
			return nil, err
		}
		go func() { _ = loginNet.ServeTCP(w.ln) }() // returns when close() closes the listener
	}
	for i := range w.confs {
		confNet := loginNet
		if tcp {
			confNet = bus.NewNetwork(clock.Real())
			w.nets = append(w.nets, confNet)
		}
		if w.confs[i], err = oasis.New(fmt.Sprintf("Conf%d", i), clock.Real(), confNet, serviceOptions(nil)); err != nil {
			w.close()
			return nil, err
		}
		if tcp {
			if err := confNet.AddRemote("Login", w.ln.Addr().String()); err != nil {
				w.close()
				return nil, err
			}
		}
		if err := w.confs[i].AddRolefile("main", stormConfRolefile); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *stormWorld) close() {
	for _, n := range w.nets {
		n.CloseRemotes()
	}
	if w.ln != nil {
		_ = w.ln.Close()
	}
	w.ref.close()
}

// stormRound is one login with its K sessions entered at both Confs.
type stormRound struct {
	login    *cert.RMC
	sessions []*cert.RMC
	r        [2][]*cert.RMC
}

// enterRound issues LoggedOn, K Sessions and R for each session at
// both Confs: the state one storm round revokes.
func (w *stormWorld) enterRound(user string) (*stormRound, error) {
	uid := value.Object("Login.userid", user)
	rd := &stormRound{}
	var err error
	rd.login, err = w.login.Enter(oasis.EnterRequest{
		Client: w.id, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{uid, value.Object("Login.host", "bench")},
	})
	if err != nil {
		return nil, err
	}
	for n := 0; n < w.k; n++ {
		s, err := w.login.Enter(oasis.EnterRequest{
			Client: w.id, Rolefile: "main", Role: "Session",
			Args: []value.Value{uid, value.Int(int64(n))}, Creds: []*cert.RMC{rd.login},
		})
		if err != nil {
			return nil, err
		}
		rd.sessions = append(rd.sessions, s)
		for i, conf := range w.confs {
			r, err := conf.Enter(oasis.EnterRequest{Client: w.id, Rolefile: "main", Role: "R", Creds: []*cert.RMC{s}})
			if err != nil {
				return nil, err
			}
			rd.r[i] = append(rd.r[i], r)
		}
	}
	return rd, nil
}

// awaitFlip waits until the sentinel's R is invalid at both Confs.
// Between looks it makes a reference ping: blocking on the network is
// what lets the goroutines that carry the notification run. (A loop
// that only yields the processor never lets the runtime poll the
// network, and the notification would wait for the 10 ms background
// poll.)
func (w *stormWorld) awaitFlip(rd *stormRound, sentinel int, deadline time.Time) error {
	for i, conf := range w.confs {
		for conf.Store().Valid(rd.r[i][sentinel].CRR) {
			if time.Now().After(deadline) {
				return fmt.Errorf("storm replica: R still valid at Conf%d after the budget", i)
			}
			if _, err := w.ref.ping(); err != nil {
				return err
			}
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
