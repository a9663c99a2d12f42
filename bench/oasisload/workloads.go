package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// scale sizes the workloads. The benchmark always runs fullScale; the
// smoke test shrinks the populations so four workloads fit in seconds.
type scale struct {
	hotTokens     int // live tokens introspect_hot draws from
	keptTokens    int // set-up tokens token_lifecycle_durable never revokes
	peerCerts     int // certificates peer_validate draws from
	stormK        int // sessions per LoggedOn in revoke_storm
	restartSample int // certs of each kind validated after the restart
	probeOps      int // calls per layer probe timed one by one
	probeBatch    int // calls per round of a layer probe timed in batches
	traceSample   int // requests the traced replay makes at each depth
}

// fullScale: 10 000 tokens make the gateway's token table and the
// sharded store larger than any per-request cache line set without
// making set-up dominate a run; 4 096 certificates fit the 16 384-entry
// cert.VerifyCache, so peer_validate measures the cached path (the
// cold path is the layer metric cert.verify_cold_ns); K = 16 sessions
// per login gives one revocation 16 local and 32 remote records to
// cascade through.
var fullScale = scale{
	hotTokens: 10000, keptTokens: 1024, peerCerts: 4096, stormK: 16, restartSample: 256,
	probeOps: 400, probeBatch: 20000, traceSample: 2000,
}

// workloadDef describes one workload: what it deploys and why it
// exists. The order here is the order of every report.
type workloadDef struct {
	name string
	why  string
	// headline is the operation class op_p50_us / op_p90_us report.
	headline opClass
	// classes are the operation classes reported by name.
	classes []opClass
	deploy  func(h *harness, seed int64, sc scale, rec *recorder) (deployment, error)
}

var workloads = []workloadDef{
	{
		name:     "introspect_hot",
		why:      "read path relying parties hammer: gateway + net/http do the work, the sharded store does a lock-free lookup; rdl, storage, bus, event idle",
		headline: opIntrospect,
		classes:  []opClass{opIntrospect},
		deploy:   deployHot,
	},
	{
		name:     "token_lifecycle_durable",
		why:      "issue, introspect x2, revoke, introspect on the journaled store: rdl entry, cert signing, credrec insert/invalidate and group commit carry the cost; SIGKILL + restart check",
		headline: opRound,
		classes:  []opClass{opIssue, opIntrospect, opRevoke},
		deploy:   deployLifecycle,
	},
	{
		name:     "peer_validate",
		why:      "certificate validation over the peer TCP port: bus codec + transport and oasis.Call do the work, HTTP/JSON is bypassed, so gateway changes predict no change here",
		headline: opPeerValidate,
		classes:  []opClass{opPeerValidate},
		deploy:   deployPeer,
	},
	{
		name:     "revoke_storm",
		why:      "the paper's claim: one logout cascades through 16 local and 32 remote records on two watching services; credrec cascade, event signal and bus notify set revoke-to-visible latency",
		headline: opRevokeVisible,
		classes:  []opClass{opRevokeVisible, opRevoke, opIssue},
		deploy:   deployStorm,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// deployment is one workload's running system under test.
type deployment interface {
	// daemons lists the processes whose CPU and memory are the
	// server's.
	daemons() []*daemon
	// newClient opens one closed-loop client. Every input the client
	// generates comes from rng.
	newClient(rng *rand.Rand) (client, error)
	// finish runs the checks that follow the timed window.
	finish(h *harness) error
}

// client is one closed-loop caller: round performs the workload's loop
// body once, each request sent only after the previous answer arrived,
// because the callers modelled are relying services that block on the
// answer before serving their own request.
type client interface {
	round(rec *recorder) error
	close()
}

// violation is a broken safety property. It fails the run outright
// instead of being counted: the system answered "valid" for a
// credential whose revocation it had acknowledged.
type violation struct{ msg string }

func (v *violation) Error() string { return "SAFETY VIOLATION: " + v.msg }

// loginRolefile is the Login policy of the three single-daemon
// workloads: an unchecked claim, so entry cost is rule evaluation,
// record insert and signing with no premise to validate.
const loginRolefile = `def LoggedOn(u, h) u: Login.userid h: Login.host
LoggedOn(u, h) <-
`

// The storm's policies. Session carries a role-based-revocation clause
// (|> Admin) so that every session gets a credential record of its own
// (a conjunction of the login record and a per-instance fact). Without
// it §4.7's single-parent optimisation makes every Session — and every
// R derived from it — share the LoggedOn record, and a logout would
// cascade through one record, not K.
const stormLoginRolefile = `def LoggedOn(u, h) u: Login.userid h: Login.host
def Session(u, n) u: Login.userid n: integer
Admin <-
LoggedOn(u, h) <-
Session(u, n) <- LoggedOn(u, h)* |> Admin
`

const stormConfRolefile = `def R(u, n) u: Login.userid n: integer
R(u, n) <- Login.Session(u, n)*
`

// gatewayConn is a keep-alive connection to one daemon's gateway that
// times each exchange and classifies its outcome.
type gatewayConn struct {
	addr string
	hc   *httpConn
}

func dialGateway(addr string) (*gatewayConn, error) {
	hc, err := dialHTTP(addr)
	if err != nil {
		return nil, err
	}
	return &gatewayConn{addr: addr, hc: hc}, nil
}

func (g *gatewayConn) close() { g.hc.close() }

// exchange sends one request and returns the answer with its latency:
// the clock starts as the request is written and stops when the whole
// response has been read. ok is false for a counted failure (refused
// with 429/503, another non-200 status, or a transport error after
// which the connection was re-dialled); err is set only when the
// gateway cannot be reached at all.
func (g *gatewayConn) exchange(req []byte, rec *recorder) (body []byte, d time.Duration, ok bool, err error) {
	start := time.Now()
	status, body, xerr := g.hc.do(req)
	d = time.Since(start)
	if xerr != nil {
		rec.fail(false)
		hc, derr := dialHTTP(g.addr)
		if derr != nil {
			return nil, d, false, fmt.Errorf("request failed (%v) and the gateway is gone: %w", xerr, derr)
		}
		g.hc = hc
		return nil, d, false, nil
	}
	if status != http.StatusOK {
		rec.fail(status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable)
		return body, d, false, nil
	}
	return body, d, true, nil
}

// isActive checks an introspection answer for a live token of the
// role.
func isActive(body []byte, roles []byte) bool {
	return bytes.HasPrefix(body, activePrefix) && bytes.Contains(body, roles)
}

// The roles member of an answer about a token of each role.
var (
	rolesLoggedOn = []byte(`"roles":["LoggedOn"]`)
	rolesSession  = []byte(`"roles":["Session"]`)
	rolesR        = []byte(`"roles":["R"]`)
)

func isInactive(body []byte) bool {
	return bytes.Equal(bytes.TrimSpace(body), inactiveBody)
}

// benchClient is the identity every generated request is made under.
func benchClient(n uint64) ids.ClientID {
	return ids.ClientID{Host: "bench", ID: n, BootTime: time.Unix(852076800, 0).UTC()}
}

// tokenBody renders a /v1/token request. args and creds are JSON
// fragments: a comma-separated argument list and one raw certificate.
func tokenBody(c ids.ClientID, role string, args string, creds []byte) []byte {
	cj, err := json.Marshal(c)
	if err != nil {
		panic(err) // a struct of string, uint64 and time.Time always marshals
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"client":%s,"rolefile":"main","role":%q`, cj, role)
	if args != "" {
		fmt.Fprintf(&b, `,"args":[%s]`, args)
	}
	if creds != nil {
		fmt.Fprintf(&b, `,"creds":[%s]`, creds)
	}
	b.WriteByte('}')
	return b.Bytes()
}

func valueArg(v value.Value) string {
	j, err := json.Marshal(v)
	if err != nil {
		panic(err) // a struct of strings and integers always marshals
	}
	return string(j)
}

func objectArg(typ, id string) string { return valueArg(value.Object(typ, id)) }

func intArg(n int) string { return valueArg(value.Int(int64(n))) }

func userName(n int) string { return fmt.Sprintf("u%08d", n) }

func loggedOnArgs(user string) string {
	return objectArg("Login.userid", user) + "," + objectArg("Login.host", "bench")
}

// issue performs one POST /v1/token and returns the token and the raw
// certificate. The answer must be a token for exactly wantRoles.
func issue(g *gatewayConn, host string, body []byte, wantRoles []byte, rec *recorder) (token string, rawCert []byte, d time.Duration, ok bool, err error) {
	resp, d, ok, err := g.exchange(buildPost(host, "/v1/token", body), rec)
	if err != nil || !ok {
		return "", nil, d, false, err
	}
	token, terr := extractToken(resp)
	rawCert, cerr := extractCert(resp)
	if terr != nil || cerr != nil || !bytes.Contains(resp, wantRoles) {
		rec.fail(false)
		return "", nil, d, false, nil
	}
	return token, rawCert, d, true, nil
}

// populate issues n LoggedOn tokens over one connection during set-up
// and returns the tokens and, when keepCerts is set, the certificates.
func populate(addr string, n int, keepCerts bool, rec *recorder) (tokens []string, certs [][]byte, err error) {
	g, err := dialGateway(addr)
	if err != nil {
		return nil, nil, err
	}
	defer g.close()
	c := benchClient(1)
	tokens = make([]string, 0, n)
	for i := 0; i < n; i++ {
		body := tokenBody(c, "LoggedOn", loggedOnArgs(userName(i)), nil)
		tok, raw, _, ok, err := issue(g, addr, body, rolesLoggedOn, rec)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return nil, nil, fmt.Errorf("set-up: issuing LoggedOn(%s) failed", userName(i))
		}
		rec.count()
		rec.endRound()
		tokens = append(tokens, tok)
		if keepCerts {
			certs = append(certs, append([]byte(nil), raw...))
		}
	}
	return tokens, certs, nil
}

// ---- introspect_hot ----

type hotDeployment struct {
	d      *daemon
	tokens []string
}

func deployHot(h *harness, seed int64, sc scale, rec *recorder) (deployment, error) {
	d, err := h.start("Login", "-shards", "4")
	if err != nil {
		return nil, err
	}
	tokens, _, err := populate(d.httpAddr, sc.hotTokens, false, rec)
	if err != nil {
		return nil, err
	}
	return &hotDeployment{d: d, tokens: tokens}, nil
}

func (p *hotDeployment) daemons() []*daemon      { return []*daemon{p.d} }
func (p *hotDeployment) finish(h *harness) error { return nil }

func (p *hotDeployment) newClient(rng *rand.Rand) (client, error) {
	g, err := dialGateway(p.d.httpAddr)
	if err != nil {
		return nil, err
	}
	return &hotClient{p: p, g: g, rng: rng, req: newTokenRequest(p.d.httpAddr, "/v1/introspect")}, nil
}

type hotClient struct {
	p   *hotDeployment
	g   *gatewayConn
	rng *rand.Rand
	req *tokenRequest
}

func (c *hotClient) close() { c.g.close() }

func (c *hotClient) round(rec *recorder) error {
	tok := c.p.tokens[c.rng.Intn(len(c.p.tokens))]
	body, d, ok, err := c.g.exchange(c.req.with(tok), rec)
	if err != nil || !ok {
		return err
	}
	if !isActive(body, rolesLoggedOn) {
		rec.fail(false)
		return nil
	}
	rec.observe(opIntrospect, d, 1)
	return nil
}

// ---- token_lifecycle_durable ----

type lifecycleDeployment struct {
	d        *daemon
	dir      string
	sc       scale
	seed     int64
	kept     [][]byte // raw certs of set-up tokens, never revoked
	clients  []*lifecycleClient
	nextUser int
}

// lifecycleFlags are the durable daemon's flags, shared by the first
// start and the restart after SIGKILL.
func lifecycleFlags(dir string) []string {
	return []string{"-store-dir", dir, "-sync", "batched", "-snapshot-every", "4096", "-peer-listen", "127.0.0.1:0"}
}

func deployLifecycle(h *harness, seed int64, sc scale, rec *recorder) (deployment, error) {
	dir, err := h.tmpDir("store")
	if err != nil {
		return nil, err
	}
	d, err := h.start("Login", lifecycleFlags(dir)...)
	if err != nil {
		return nil, err
	}
	_, certs, err := populate(d.httpAddr, sc.keptTokens, true, rec)
	if err != nil {
		return nil, err
	}
	return &lifecycleDeployment{d: d, dir: dir, sc: sc, seed: seed, kept: certs, nextUser: sc.keptTokens}, nil
}

func (p *lifecycleDeployment) daemons() []*daemon { return []*daemon{p.d} }

func (p *lifecycleDeployment) newClient(rng *rand.Rand) (client, error) {
	g, err := dialGateway(p.d.httpAddr)
	if err != nil {
		return nil, err
	}
	c := &lifecycleClient{
		p: p, g: g, rng: rng,
		id:         benchClient(uint64(2 + len(p.clients))),
		introspect: newTokenRequest(p.d.httpAddr, "/v1/introspect"),
		revoke:     newTokenRequest(p.d.httpAddr, "/v1/revoke"),
	}
	p.clients = append(p.clients, c)
	return c, nil
}

type lifecycleClient struct {
	p                  *lifecycleDeployment
	g                  *gatewayConn
	rng                *rand.Rand
	id                 ids.ClientID
	introspect, revoke *tokenRequest

	revoked     [][]byte // reservoir sample of revoked certs for the restart check
	revokedSeen int
}

func (c *lifecycleClient) close() { c.g.close() }

func (c *lifecycleClient) round(rec *recorder) error {
	host := c.p.d.httpAddr
	user := userName(c.rng.Intn(100000000))
	tok, raw, dIssue, ok, err := issue(c.g, host, tokenBody(c.id, "LoggedOn", loggedOnArgs(user), nil), rolesLoggedOn, rec)
	if err != nil || !ok {
		return err
	}
	rec.observe(opIssue, dIssue, 1)
	total := dIssue
	for i := 0; i < 2; i++ {
		body, d, ok, err := c.g.exchange(c.introspect.with(tok), rec)
		if err != nil || !ok {
			return err
		}
		if !isActive(body, rolesLoggedOn) {
			rec.fail(false)
			return nil
		}
		rec.observe(opIntrospect, d, 1)
		total += d
	}
	body, d, ok, err := c.g.exchange(c.revoke.with(tok), rec)
	if err != nil || !ok {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(body), revokeOKBody) {
		rec.fail(false)
		return nil
	}
	rec.observe(opRevoke, d, 1)
	total += d
	c.remember(raw)

	body, d, ok, err = c.g.exchange(c.introspect.with(tok), rec)
	if err != nil || !ok {
		return err
	}
	if !isInactive(body) {
		return &violation{fmt.Sprintf("token for %s introspects %s after its revocation was acknowledged", user, bytes.TrimSpace(body))}
	}
	rec.observe(opIntrospect, d, 1)
	total += d
	rec.observe(opRound, total, 0)
	return nil
}

// remember keeps a uniform reservoir sample of the certificates this
// client has revoked.
func (c *lifecycleClient) remember(raw []byte) {
	c.revokedSeen++
	n := c.p.sc.restartSample
	if len(c.revoked) < n {
		c.revoked = append(c.revoked, append([]byte(nil), raw...))
		return
	}
	if j := c.rng.Intn(c.revokedSeen); j < n {
		c.revoked[j] = append(c.revoked[j][:0], raw...)
	}
}

// finish is the durability check: let the batched journal commit, kill
// -9 the daemon, restart it on the same directory and ask it over the
// peer port about certificates from before the crash. Revoked ones
// must stay refused; set-up ones must still validate.
func (p *lifecycleDeployment) finish(h *harness) error {
	time.Sleep(time.Second) // quiesce: the last group commit reaches the journal
	h.stop(p.d)
	d, err := h.start("Login", lifecycleFlags(p.dir)...)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	p.d = d
	nw, err := dialPeer(d.peerAddr)
	if err != nil {
		return err
	}
	defer nw.CloseRemotes()

	rng := rand.New(rand.NewSource(p.seed ^ 0x5eed))
	var revoked [][]byte
	for _, c := range p.clients {
		revoked = append(revoked, c.revoked...)
	}
	rng.Shuffle(len(revoked), func(i, j int) { revoked[i], revoked[j] = revoked[j], revoked[i] })
	if len(revoked) > p.sc.restartSample {
		revoked = revoked[:p.sc.restartSample]
	}
	if len(revoked) == 0 {
		return fmt.Errorf("restart check: no revoked certificate to test")
	}
	for _, raw := range revoked {
		state, _, err := peerValidate(nw, raw)
		if err == nil && state == credrec.True {
			return &violation{fmt.Sprintf("certificate %s validates after SIGKILL + restart although its revocation was acknowledged", raw)}
		}
	}
	for i := 0; i < p.sc.restartSample && i < len(p.kept); i++ {
		raw := p.kept[rng.Intn(len(p.kept))]
		state, roles, err := peerValidate(nw, raw)
		if err != nil || state != credrec.True || !hasRole(roles, "LoggedOn") {
			return fmt.Errorf("restart check: live certificate %s no longer validates (state %v, roles %v, err %v)", raw, state, roles, err)
		}
	}
	return nil
}

// ---- peer port ----

// peerCaller is the name the generator's bus network calls under.
const peerCaller = "Bench"

// dialPeer joins a daemon's peer port as bus peer "Login" over one
// pipelined binary-codec link.
func dialPeer(addr string) (*bus.Network, error) {
	oasis.RegisterWireTypes()
	nw := bus.NewNetwork(clock.Real())
	if err := nw.AddRemote("Login", addr); err != nil {
		return nil, fmt.Errorf("joining peer port %s: %w", addr, err)
	}
	if got := nw.RemoteWireFormat("Login"); got != bus.WireBinary {
		return nil, fmt.Errorf("peer link negotiated %q, want %q", got, bus.WireBinary)
	}
	return nw, nil
}

func decodeCert(raw []byte) (*cert.RMC, error) {
	c := new(cert.RMC)
	if err := json.Unmarshal(raw, c); err != nil {
		return nil, fmt.Errorf("decoding certificate: %w", err)
	}
	return c, nil
}

func validateCall(nw *bus.Network, c *cert.RMC) (oasis.ValidateReply, error) {
	res, err := nw.Call(peerCaller, "Login", "validate", oasis.ValidateArg{Cert: c, Client: c.Client})
	if err != nil {
		return oasis.ValidateReply{}, err
	}
	reply, ok := res.(oasis.ValidateReply)
	if !ok {
		return oasis.ValidateReply{}, fmt.Errorf("validate answered %T", res)
	}
	return reply, nil
}

func peerValidate(nw *bus.Network, raw []byte) (credrec.State, []string, error) {
	c, err := decodeCert(raw)
	if err != nil {
		return credrec.False, nil, err
	}
	reply, err := validateCall(nw, c)
	return reply.State, reply.Roles, err
}

func hasRole(roles []string, want string) bool {
	for _, r := range roles {
		if r == want {
			return true
		}
	}
	return false
}

// ---- peer_validate ----

type peerDeployment struct {
	d     *daemon
	nw    *bus.Network
	certs []*cert.RMC
}

func deployPeer(h *harness, seed int64, sc scale, rec *recorder) (deployment, error) {
	d, err := h.start("Login", "-peer-listen", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	_, raws, err := populate(d.httpAddr, sc.peerCerts, true, rec)
	if err != nil {
		return nil, err
	}
	certs := make([]*cert.RMC, len(raws))
	for i, raw := range raws {
		if certs[i], err = decodeCert(raw); err != nil {
			return nil, err
		}
	}
	nw, err := dialPeer(d.peerAddr)
	if err != nil {
		return nil, err
	}
	return &peerDeployment{d: d, nw: nw, certs: certs}, nil
}

func (p *peerDeployment) daemons() []*daemon { return []*daemon{p.d} }

func (p *peerDeployment) finish(h *harness) error { return nil }
func (p *peerDeployment) close()                  { p.nw.CloseRemotes() }

// Every client shares the one link: the bus multiplexes concurrent
// calls over a single pipelined connection per peer, which is how one
// service reaches another in a deployment.
func (p *peerDeployment) newClient(rng *rand.Rand) (client, error) {
	return &peerClient{p: p, rng: rng}, nil
}

type peerClient struct {
	p   *peerDeployment
	rng *rand.Rand
}

func (c *peerClient) close() {}

func (c *peerClient) round(rec *recorder) error {
	crt := c.p.certs[c.rng.Intn(len(c.p.certs))]
	start := time.Now()
	reply, err := validateCall(c.p.nw, crt)
	d := time.Since(start)
	if err != nil || reply.State != credrec.True || !hasRole(reply.Roles, "LoggedOn") {
		rec.fail(false)
		return nil
	}
	rec.observe(opPeerValidate, d, 1)
	return nil
}

// ---- revoke_storm ----

// lateBudget is how long a revoked dependent may keep answering
// active before the round fails: the storm's fail-safe budget.
const lateBudget = time.Second

type stormDeployment struct {
	login   *daemon
	confs   [2]*daemon
	k       int
	clients int
}

func deployStorm(h *harness, seed int64, sc scale, rec *recorder) (deployment, error) {
	dir, err := h.tmpDir("rolefiles")
	if err != nil {
		return nil, err
	}
	loginRF := filepath.Join(dir, "login.rdl")
	confRF := filepath.Join(dir, "conf.rdl")
	if err := os.WriteFile(loginRF, []byte(stormLoginRolefile), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(confRF, []byte(stormConfRolefile), 0o644); err != nil {
		return nil, err
	}
	p := &stormDeployment{k: sc.stormK}
	p.login, err = h.start("Login", "-rolefile", loginRF, "-peer-listen", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := range p.confs {
		p.confs[i], err = h.start(fmt.Sprintf("Conf%d", i), "-rolefile", confRF, "-remote", "Login="+p.login.peerAddr)
		if err != nil {
			return nil, err
		}
	}
	// One verified round is part of set-up: it proves the three
	// daemons are wired before anything is timed.
	c, err := p.newClient(rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	defer c.close()
	if err := c.round(rec); err != nil {
		return nil, fmt.Errorf("set-up round: %w", err)
	}
	if u := rec.cur; u.failed > 0 || len(u.lat[opRevokeVisible]) != 1 {
		return nil, fmt.Errorf("set-up round failed (%d of %d requests)", u.failed, u.attempted)
	}
	// This set-up makes too few requests for the interleaved pings to
	// say how fast the host is running; a burst of them does.
	for i := 0; rec.ref != nil && i < 32; i++ {
		rec.ping()
	}
	return p, nil
}

func (p *stormDeployment) daemons() []*daemon {
	return []*daemon{p.login, p.confs[0], p.confs[1]}
}
func (p *stormDeployment) finish(h *harness) error { return nil }

func (p *stormDeployment) newClient(rng *rand.Rand) (client, error) {
	p.clients++
	c := &stormClient{p: p, rng: rng, id: benchClient(uint64(100 + p.clients))}
	var err error
	if c.login, err = dialGateway(p.login.httpAddr); err != nil {
		return nil, err
	}
	c.revoke = newTokenRequest(p.login.httpAddr, "/v1/revoke")
	for i, d := range p.confs {
		if c.conf[i], err = dialGateway(d.httpAddr); err != nil {
			return nil, err
		}
		if c.poll[i], err = dialGateway(d.httpAddr); err != nil {
			return nil, err
		}
		c.sweepReq[i] = newTokenRequest(d.httpAddr, "/v1/introspect")
		c.pollReq[i] = newTokenRequest(d.httpAddr, "/v1/introspect")
	}
	c.tokens[0] = make([]string, p.k)
	c.tokens[1] = make([]string, p.k)
	return c, nil
}

type stormClient struct {
	p   *stormDeployment
	rng *rand.Rand
	id  ids.ClientID

	login    *gatewayConn
	revoke   *tokenRequest
	conf     [2]*gatewayConn // issue and sweep
	poll     [2]*gatewayConn // the poller's own connections
	sweepReq [2]*tokenRequest
	pollReq  [2]*tokenRequest
	tokens   [2][]string // R tokens per Conf, per session
}

func (c *stormClient) close() {
	c.login.close()
	for i := range c.conf {
		c.conf[i].close()
		c.poll[i].close()
	}
}

// pollResult is what the poller saw for one revocation.
type pollResult struct {
	lastFlip time.Time // when the last member first answered inactive
	late     bool      // a member still answered active after lateBudget
	err      error
	rec      *recorder // the poller's own failure counts
}

// pollSentinels introspects the sentinel token at both Confs in turn.
// It closes armed once both have answered active (the revocation must
// not be sent before the watchers are known to see the credential),
// then keeps polling until each has answered inactive. Only members
// that have not flipped are polled, so the reported instant is the
// last member's first inactive answer. It runs beside the client's
// own goroutine, so it counts failures in a recorder of its own.
func (c *stormClient) pollSentinels(sentinel int, armed chan<- struct{}, out chan<- pollResult) {
	res := pollResult{rec: scratchRecorder()}
	defer func() { out <- res }()
	for i := range c.poll {
		body, _, ok, err := c.poll[i].exchange(c.pollReq[i].with(c.tokens[i][sentinel]), res.rec)
		if err == nil && ok && !isActive(body, rolesR) {
			res.rec.fail(false)
			ok = false
		}
		if err != nil || !ok {
			res.err, res.late = err, true
			close(armed)
			return
		}
	}
	close(armed)
	flipped := [2]bool{}
	deadline := time.Now().Add(lateBudget)
	for !(flipped[0] && flipped[1]) {
		for i := range c.poll {
			if flipped[i] {
				continue
			}
			body, _, ok, err := c.poll[i].exchange(c.pollReq[i].with(c.tokens[i][sentinel]), res.rec)
			if err != nil || !ok {
				res.err, res.late = err, true
				return
			}
			if now := time.Now(); isInactive(body) {
				flipped[i] = true
				res.lastFlip = now
			} else if now.After(deadline) {
				res.late = true
				return
			}
		}
	}
}

func (c *stormClient) round(rec *recorder) error {
	k := c.p.k
	loginHost := c.p.login.httpAddr
	user := userName(c.rng.Intn(100000000))
	sentinel := c.rng.Intn(k)

	loginTok, loginCert, _, ok, err := issue(c.login, loginHost, tokenBody(c.id, "LoggedOn", loggedOnArgs(user), nil), rolesLoggedOn, rec)
	if err != nil || !ok {
		return err
	}
	rec.count()
	loginCert = append([]byte(nil), loginCert...)
	for n := 0; n < k; n++ {
		args := objectArg("Login.userid", user) + "," + intArg(n)
		_, sessCert, _, ok, err := issue(c.login, loginHost, tokenBody(c.id, "Session", args, loginCert), rolesSession, rec)
		if err != nil || !ok {
			return err
		}
		rec.count()
		sessCert = append([]byte(nil), sessCert...)
		// Cross-service entry: the Conf validates the Session
		// certificate at Login over the peer link and registers a watch
		// on its record.
		for i, g := range c.conf {
			tok, _, d, ok, err := issue(g, c.p.confs[i].httpAddr, tokenBody(c.id, "R", "", sessCert), rolesR, rec)
			if err != nil || !ok {
				return err
			}
			rec.observe(opIssue, d, 1)
			c.tokens[i][n] = tok
		}
	}

	armed := make(chan struct{})
	polled := make(chan pollResult, 1) // the poller's one send never blocks
	go c.pollSentinels(sentinel, armed, polled)
	<-armed
	t0 := time.Now() // the revoke request is written at the origin
	body, d, ok, err := c.login.exchange(c.revoke.with(loginTok), rec)
	res := <-polled
	rec.absorbFailures(res.rec)
	if err != nil || res.err != nil {
		if err == nil {
			err = res.err
		}
		return err
	}
	if !ok {
		return nil
	}
	if !bytes.Equal(bytes.TrimSpace(body), revokeOKBody) {
		rec.fail(false)
		return nil
	}
	rec.observe(opRevoke, d, 1)
	if res.late {
		rec.fail(false)
	} else {
		rec.observe(opRevokeVisible, res.lastFlip.Sub(t0), 0)
	}

	// Sweep every dependent once. Each must already be inactive; one
	// that is not is re-polled within the storm's budget (which
	// stretches the round) and is a violation after it.
	budget := t0.Add(lateBudget)
	for i, g := range c.conf {
		for n := 0; n < k; n++ {
			for {
				body, _, ok, err := g.exchange(c.sweepReq[i].with(c.tokens[i][n]), rec)
				if err != nil || !ok {
					return err
				}
				if isInactive(body) {
					rec.count()
					break
				}
				if now := time.Now(); now.After(budget) {
					return &violation{fmt.Sprintf("R(%s,%d) at Conf%d still introspects active %v after LoggedOn was revoked", user, n, i, now.Sub(t0))}
				}
			}
		}
	}
	return nil
}
