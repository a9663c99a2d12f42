package gateway_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/gateway"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// seqReader is a deterministic token-entropy source, so tests (and the
// golden vectors) mint predictable ids.
type seqReader struct{ ctr byte }

func (r *seqReader) Read(p []byte) (int, error) {
	for i := range p {
		r.ctr++
		p[i] = r.ctr
	}
	return len(p), nil
}

const loginRolefile = `
def LoggedOn(u, h) u: Login.userid h: Login.host
LoggedOn(u, h) <-
`

// confRolefile exercises every issuance path the gateway fronts:
// plain entry, constrained entry, role-based revocation (|>*) and
// entry by election (<|*).
const confRolefile = `
Chair        <- Login.LoggedOn("jmb", h)*
Candidate(u) <- Login.LoggedOn(u, h)* : u in staff
Member(u)    <- Candidate(u)* |>* Chair
Deleg(u)     <- Login.LoggedOn(u, h)* <|* Chair
`

// world is a Login+Conf deployment with a gateway over Conf.
type world struct {
	t     *testing.T
	clk   *clock.Virtual
	net   *bus.Network
	login *oasis.Service
	conf  *oasis.Service
	gw    *gateway.Gateway
	hosts map[string]*ids.HostAuthority
}

func newWorld(t *testing.T, opts gateway.Options) *world {
	t.Helper()
	clk := clock.NewVirtual(time.Date(1997, 6, 1, 9, 0, 0, 0, time.UTC))
	n := bus.NewNetwork(clk)
	login, err := oasis.New("Login", clk, n, oasis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	conf, err := oasis.New("Conf", clk, n, oasis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := conf.AddRolefile("main", confRolefile); err != nil {
		t.Fatal(err)
	}
	conf.Groups().AddMember("dm", "staff")
	if opts.Rand == nil {
		opts.Rand = &seqReader{}
	}
	return &world{
		t: t, clk: clk, net: n, login: login, conf: conf,
		gw:    gateway.New(conf, opts),
		hosts: make(map[string]*ids.HostAuthority),
	}
}

func (w *world) client(host string) ids.ClientID {
	ha, ok := w.hosts[host]
	if !ok {
		ha = ids.NewHostAuthority(host, w.clk.Now())
		w.hosts[host] = ha
	}
	return ha.NewDomain()
}

func (w *world) logOn(c ids.ClientID, user string) *cert.RMC {
	w.t.Helper()
	rmc, err := w.login.Enter(oasis.EnterRequest{
		Client: c, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{
			value.Object("Login.userid", user),
			value.Object("Login.host", c.Host),
		},
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return rmc
}

func uid(u string) value.Value { return value.Object("Login.userid", u) }

// post performs one request against the handler and decodes the JSON
// body into out (if non-nil), returning the recorder for header and
// status checks.
func post(t *testing.T, h http.Handler, path string, body, out any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s: undecodable response %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec
}

func (w *world) issueMember(user string) (gateway.TokenResponse, *cert.RMC, ids.ClientID) {
	w.t.Helper()
	c := w.client("cam")
	loginCert := w.logOn(c, user)
	var res gateway.TokenResponse
	rec := post(w.t, w.gw.Handler(), "/v1/token", gateway.TokenRequest{
		Client: c, Rolefile: "main", Role: "Member",
		Args:  []value.Value{uid(user)},
		Creds: []*cert.RMC{loginCert},
	}, &res)
	if rec.Code != http.StatusOK {
		w.t.Fatalf("issue: status %d body %s", rec.Code, rec.Body.String())
	}
	return res, loginCert, c
}

func introspect(t *testing.T, h http.Handler, token string) gateway.IntrospectResponse {
	t.Helper()
	var res gateway.IntrospectResponse
	rec := post(t, h, "/v1/introspect", gateway.IntrospectRequest{Token: token}, &res)
	if rec.Code != http.StatusOK {
		t.Fatalf("introspect: status %d body %s", rec.Code, rec.Body.String())
	}
	return res
}

func TestTokenLifecycle(t *testing.T) {
	w := newWorld(t, gateway.Options{})
	res, _, _ := w.issueMember("dm")
	if res.Token == "" || res.TokenType != "oasis" {
		t.Fatalf("bad token response: %+v", res)
	}
	if res.Issuer != "Conf" || len(res.Roles) == 0 {
		t.Fatalf("bad issuer/roles: %+v", res)
	}

	in := introspect(t, w.gw.Handler(), res.Token)
	if !in.Active {
		t.Fatalf("fresh token inactive: %+v", in)
	}
	if in.Issuer != "Conf" || in.Rolefile != "main" {
		t.Fatalf("introspection misreports issuer/rolefile: %+v", in)
	}
	found := false
	for _, r := range in.Roles {
		if r == "Member" {
			found = true
		}
	}
	if !found {
		t.Fatalf("introspection misses the Member role: %+v", in)
	}
	if len(in.Args) != 1 || !in.Args[0].Equal(uid("dm")) {
		t.Fatalf("introspection misreports args: %+v", in)
	}

	// Revoke, then introspection flips — live from the store.
	var rres gateway.RevokeResponse
	rec := post(t, w.gw.Handler(), "/v1/revoke", gateway.RevokeRequest{Token: res.Token}, &rres)
	if rec.Code != http.StatusOK || !rres.OK {
		t.Fatalf("revoke: status %d body %s", rec.Code, rec.Body.String())
	}
	if in := introspect(t, w.gw.Handler(), res.Token); in.Active {
		t.Fatal("revoked token still active")
	}
	// RFC 7009: revoking again (and revoking garbage) is 200.
	rec = post(t, w.gw.Handler(), "/v1/revoke", gateway.RevokeRequest{Token: res.Token}, &rres)
	if rec.Code != http.StatusOK {
		t.Fatalf("second revoke: status %d", rec.Code)
	}
	rec = post(t, w.gw.Handler(), "/v1/revoke", gateway.RevokeRequest{Token: "no-such-token"}, &rres)
	if rec.Code != http.StatusOK {
		t.Fatalf("unknown-token revoke: status %d", rec.Code)
	}
}

// TestRevocationCascadeVisible is the federation point: the login that
// justified a Conf membership is revoked at Login, the Modified event
// cascades across the bus, and the very next introspection reports
// inactive — the gateway keeps no validity state to go stale.
func TestRevocationCascadeVisible(t *testing.T) {
	w := newWorld(t, gateway.Options{})
	res, loginCert, c := w.issueMember("dm")
	if in := introspect(t, w.gw.Handler(), res.Token); !in.Active {
		t.Fatal("fresh token inactive")
	}
	if err := w.login.Exit(loginCert, c); err != nil {
		t.Fatal(err)
	}
	if in := introspect(t, w.gw.Handler(), res.Token); in.Active {
		t.Fatal("token survived upstream login revocation")
	}
}

func TestTokenExpiryFromRMC(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1000, 0))
	login, err := oasis.New("Login", clk, nil, oasis.Options{CertTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	gw := gateway.New(login, gateway.Options{Rand: &seqReader{}})
	c := ids.NewHostAuthority("ely", clk.Now()).NewDomain()
	var res gateway.TokenResponse
	rec := post(t, gw.Handler(), "/v1/token", gateway.TokenRequest{
		Client: c, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{uid("dm"), value.Object("Login.host", "ely")},
	}, &res)
	if rec.Code != http.StatusOK {
		t.Fatalf("issue: status %d body %s", rec.Code, rec.Body.String())
	}
	if res.ExpiresIn != 3600 {
		t.Fatalf("expires_in = %d, want 3600 (derived from the RMC)", res.ExpiresIn)
	}
	in := introspect(t, gw.Handler(), res.Token)
	if !in.Active || in.Exp == 0 {
		t.Fatalf("fresh token: %+v", in)
	}
	if in.Exp-in.Iat != 3600 {
		t.Fatalf("exp-iat = %d, want 3600", in.Exp-in.Iat)
	}
	clk.Advance(2 * time.Hour)
	if in := introspect(t, gw.Handler(), res.Token); in.Active {
		t.Fatal("expired token still active")
	}
	if n := gw.TokenCount(); n != 0 {
		t.Fatalf("expired token not dropped from the store: %d live", n)
	}
}

func TestDelegationEntry(t *testing.T) {
	w := newWorld(t, gateway.Options{})
	chairC := w.client("ely")
	chairLogin := w.logOn(chairC, "jmb")
	chair, err := w.conf.Enter(oasis.EnterRequest{
		Client: chairC, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{chairLogin},
	})
	if err != nil {
		t.Fatal(err)
	}
	deleg, _, err := w.conf.Delegate(oasis.DelegateRequest{
		Client: chairC, Rolefile: "main", Role: "Deleg",
		Args:        []value.Value{uid("dm")},
		ElectorCert: chair,
	})
	if err != nil {
		t.Fatal(err)
	}
	dmC := w.client("cam")
	dmLogin := w.logOn(dmC, "dm")
	var res gateway.TokenResponse
	rec := post(t, w.gw.Handler(), "/v1/token", gateway.TokenRequest{
		Client: dmC, Rolefile: "main", Role: "Deleg",
		Creds:      []*cert.RMC{dmLogin},
		Delegation: deleg,
	}, &res)
	if rec.Code != http.StatusOK {
		t.Fatalf("delegated issue: status %d body %s", rec.Code, rec.Body.String())
	}
	if in := introspect(t, w.gw.Handler(), res.Token); !in.Active {
		t.Fatal("delegated token inactive")
	}
}

func TestRevokeByRoleAndByCertificate(t *testing.T) {
	w := newWorld(t, gateway.Options{})
	// Chair enters through the gateway too — their token is the
	// revoker credential.
	chairC := w.client("ely")
	chairLogin := w.logOn(chairC, "jmb")
	var chairRes gateway.TokenResponse
	rec := post(t, w.gw.Handler(), "/v1/token", gateway.TokenRequest{
		Client: chairC, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{chairLogin},
	}, &chairRes)
	if rec.Code != http.StatusOK {
		t.Fatalf("chair issue: status %d body %s", rec.Code, rec.Body.String())
	}

	memberRes, _, _ := w.issueMember("dm")
	if in := introspect(t, w.gw.Handler(), memberRes.Token); !in.Active {
		t.Fatal("member inactive before revocation")
	}

	// Role-based revocation: the chair names the instance parameters.
	var rres gateway.RevokeResponse
	rec = post(t, w.gw.Handler(), "/v1/revoke", gateway.RevokeRequest{
		RevokerToken: chairRes.Token, Rolefile: "main",
		Role: "Member", Args: []value.Value{uid("dm")},
	}, &rres)
	if rec.Code != http.StatusOK || !rres.OK {
		t.Fatalf("role-based revoke: status %d body %s", rec.Code, rec.Body.String())
	}
	if in := introspect(t, w.gw.Handler(), memberRes.Token); in.Active {
		t.Fatal("member survived role-based revocation")
	}
	// Idempotent: naming the same instance again is 200.
	rec = post(t, w.gw.Handler(), "/v1/revoke", gateway.RevokeRequest{
		RevokerToken: chairRes.Token, Rolefile: "main",
		Role: "Member", Args: []value.Value{uid("dm")},
	}, &rres)
	if rec.Code != http.StatusOK {
		t.Fatalf("repeat role-based revoke: status %d body %s", rec.Code, rec.Body.String())
	}
	// A non-revoker cannot eject anyone.
	rec = post(t, w.gw.Handler(), "/v1/revoke", gateway.RevokeRequest{
		RevokerToken: memberRes.Token, Rolefile: "main",
		Role: "Chair", Args: nil,
	}, nil)
	if rec.Code == http.StatusOK {
		t.Fatal("revocation accepted from a non-revoker")
	}

	// Revocation-certificate path: chair delegates, then revokes the
	// delegation through the gateway.
	chair, err := w.conf.Enter(oasis.EnterRequest{
		Client: chairC, Rolefile: "main", Role: "Chair",
		Creds: []*cert.RMC{chairLogin},
	})
	if err != nil {
		t.Fatal(err)
	}
	deleg, revCert, err := w.conf.Delegate(oasis.DelegateRequest{
		Client: chairC, Rolefile: "main", Role: "Deleg",
		Args:        []value.Value{uid("alice")},
		ElectorCert: chair,
	})
	if err != nil {
		t.Fatal(err)
	}
	aliceC := w.client("cam")
	aliceLogin := w.logOn(aliceC, "alice")
	var aliceRes gateway.TokenResponse
	rec = post(t, w.gw.Handler(), "/v1/token", gateway.TokenRequest{
		Client: aliceC, Rolefile: "main", Role: "Deleg",
		Creds: []*cert.RMC{aliceLogin}, Delegation: deleg,
	}, &aliceRes)
	if rec.Code != http.StatusOK {
		t.Fatalf("delegated issue: status %d body %s", rec.Code, rec.Body.String())
	}
	rec = post(t, w.gw.Handler(), "/v1/revoke", gateway.RevokeRequest{Revocation: revCert}, &rres)
	if rec.Code != http.StatusOK || !rres.OK {
		t.Fatalf("certificate revoke: status %d body %s", rec.Code, rec.Body.String())
	}
	if in := introspect(t, w.gw.Handler(), aliceRes.Token); in.Active {
		t.Fatal("delegated membership survived revocation certificate")
	}
	// Idempotent replay of the same revocation certificate.
	rec = post(t, w.gw.Handler(), "/v1/revoke", gateway.RevokeRequest{Revocation: revCert}, &rres)
	if rec.Code != http.StatusOK {
		t.Fatalf("replayed certificate revoke: status %d body %s", rec.Code, rec.Body.String())
	}
}

func TestMalformedRequests(t *testing.T) {
	w := newWorld(t, gateway.Options{})
	h := w.gw.Handler()

	// Not JSON.
	req := httptest.NewRequest(http.MethodPost, "/v1/token", bytes.NewReader([]byte("{nope")))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d", rec.Code)
	}
	var e gateway.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Err != "invalid_request" {
		t.Fatalf("garbage body: %s", rec.Body.String())
	}

	// Missing role / missing client.
	if rec := post(t, h, "/v1/token", gateway.TokenRequest{Client: w.client("ely")}, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing role: status %d", rec.Code)
	}
	if rec := post(t, h, "/v1/token", gateway.TokenRequest{Role: "Member"}, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing client: status %d", rec.Code)
	}
	// Introspect and revoke with nothing in them.
	if rec := post(t, h, "/v1/introspect", gateway.IntrospectRequest{}, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty introspect: status %d", rec.Code)
	}
	if rec := post(t, h, "/v1/revoke", gateway.RevokeRequest{}, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("empty revoke: status %d", rec.Code)
	}
	// Entry the policy refuses.
	c := w.client("ely")
	login := w.logOn(c, "intruder")
	rec2 := post(t, h, "/v1/token", gateway.TokenRequest{
		Client: c, Rolefile: "main", Role: "Member",
		Args: []value.Value{uid("intruder")}, Creds: []*cert.RMC{login},
	}, &e)
	if rec2.Code != http.StatusBadRequest || e.Err != "invalid_grant" {
		t.Fatalf("refused entry: status %d body %s", rec2.Code, rec2.Body.String())
	}
	// Wrong method.
	req = httptest.NewRequest(http.MethodGet, "/v1/token", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d", rec.Code)
	}
	// Introspecting a guessed token reveals nothing but inactive.
	in := introspect(t, h, "0123456789abcdef0123456789abcdef")
	if in.Active || in.Issuer != "" || in.Roles != nil {
		t.Fatalf("guessed token leaked state: %+v", in)
	}
}

func TestRateLimitRetryAfter(t *testing.T) {
	w := newWorld(t, gateway.Options{RatePerSec: 1, Burst: 2})
	h := w.gw.Handler()
	// Burst of 2 is admitted; the third is refused with Retry-After.
	for i := 0; i < 2; i++ {
		if rec := post(t, h, "/v1/introspect", gateway.IntrospectRequest{Token: "x"}, nil); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	rec := post(t, h, "/v1/introspect", gateway.IntrospectRequest{Token: "x"}, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over budget: status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 without a usable Retry-After: %q", ra)
	}
	// The clock refills the bucket.
	w.clk.Advance(3 * time.Second)
	if rec := post(t, h, "/v1/introspect", gateway.IntrospectRequest{Token: "x"}, nil); rec.Code != http.StatusOK {
		t.Fatalf("after refill: status %d", rec.Code)
	}
}

func TestBackpressureShedsMutations(t *testing.T) {
	pending := 0
	w := newWorld(t, gateway.Options{
		Pressure:      func() int { return pending },
		PressureLimit: 10,
	})
	h := w.gw.Handler()
	res, _, _ := w.issueMember("dm")

	pending = 10 // saturation
	c := w.client("cam")
	login := w.logOn(c, "dm")
	rec := post(t, h, "/v1/token", gateway.TokenRequest{
		Client: c, Rolefile: "main", Role: "Member",
		Args: []value.Value{uid("dm")}, Creds: []*cert.RMC{login},
	}, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("issue under saturation: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	rec = post(t, h, "/v1/revoke", gateway.RevokeRequest{Token: res.Token}, nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("revoke under saturation: status %d, want 503", rec.Code)
	}
	// Introspection — the read path clients use to honour revocations —
	// stays available.
	if in := introspect(t, h, res.Token); !in.Active {
		t.Fatal("introspection unavailable or wrong under saturation")
	}
	// Pressure clears; the shed requests succeed on retry.
	pending = 0
	rec = post(t, h, "/v1/revoke", gateway.RevokeRequest{Token: res.Token}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("revoke after pressure cleared: status %d", rec.Code)
	}
}

// TestConnectionLimit proves Serve's listener cap: with MaxConns 1,
// a second connection is not accepted until the first closes.
func TestConnectionLimit(t *testing.T) {
	w := newWorld(t, gateway.Options{MaxConns: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.gw.Serve(ln)
	}()
	defer func() { _ = ln.Close(); <-done }()

	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	roundTrip := func(conn net.Conn, deadline time.Duration) error {
		if err := conn.SetDeadline(time.Now().Add(deadline)); err != nil {
			return err
		}
		if _, err := io.WriteString(conn, "POST /v1/healthz HTTP/1.1\r\nHost: gw\r\nContent-Length: 0\r\n\r\n"); err != nil {
			return err
		}
		buf := make([]byte, 1)
		_, err := conn.Read(buf)
		return err
	}

	first := dial()
	if err := roundTrip(first, 5*time.Second); err != nil {
		t.Fatalf("first connection: %v", err)
	}
	// The slot is held (keep-alive); a second connection can connect
	// (kernel backlog) but gets no service.
	second := dial()
	if err := roundTrip(second, 300*time.Millisecond); err == nil {
		t.Fatal("second connection served while the cap was held")
	}
	// Releasing the first slot lets the second proceed.
	_ = first.Close()
	if err := roundTrip(second, 5*time.Second); err != nil {
		t.Fatalf("second connection after release: %v", err)
	}
	_ = second.Close()
}

// TestExpiredTokensSwept proves the amortised sweep: minting past the
// sweep threshold reclaims expired records without a background timer.
func TestExpiredTokensSwept(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	login, err := oasis.New("Login", clk, nil, oasis.Options{CertTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	gw := gateway.New(login, gateway.Options{Rand: &seqReader{}})
	h := gw.Handler()
	c := ids.NewHostAuthority("ely", clk.Now()).NewDomain()
	issue := func() {
		rec := post(t, h, "/v1/token", gateway.TokenRequest{
			Client: c, Rolefile: "main", Role: "LoggedOn",
			Args: []value.Value{uid("u"), value.Object("Login.host", "ely")},
		}, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("issue: status %d", rec.Code)
		}
	}
	const dead = 512
	for i := 0; i < dead; i++ {
		issue()
	}
	clk.Advance(time.Hour) // everything so far is now expired
	before := gw.TokenCount()
	// Enough fresh mints to cross every shard's sweep threshold.
	for i := 0; i < 16*256; i++ {
		issue()
	}
	after := gw.TokenCount()
	if after >= before+16*256 {
		t.Fatalf("expired tokens never swept: %d -> %d", before, after)
	}
}

// TestDeadCascadeTokenRemoved: a token whose membership a cascade has
// revoked for good leaves the table on the introspection that finds it
// so, as an expired one does; a fail-safe demotion — False, but not
// permanently — must keep it, because resync makes the same token
// active again (TestChaosGatewayPartition walks that whole road).
func TestDeadCascadeTokenRemoved(t *testing.T) {
	w := newWorld(t, gateway.Options{})
	h := w.gw.Handler()
	res, loginCert, c := w.issueMember("dm")

	w.conf.Store().MarkSourceFailsafe("Login")
	if in := introspect(t, h, res.Token); in.Active {
		t.Fatal("token active with its issuer presumed failed")
	}
	if n := w.gw.TokenCount(); n != 1 {
		t.Fatalf("fail-safe demotion dropped the token: %d live", n)
	}

	if err := w.login.Exit(loginCert, c); err != nil {
		t.Fatal(err)
	}
	if in := introspect(t, h, res.Token); in.Active {
		t.Fatal("token survived upstream login revocation")
	}
	if n := w.gw.TokenCount(); n != 0 {
		t.Fatalf("token revoked by a cascade still in the table: %d live", n)
	}
}

// countingSigner counts full signature checks, so a test can tell a
// verify-cache hit (none) from a miss (one).
type countingSigner struct {
	cert.Signer
	verifies atomic.Int64
}

func (s *countingSigner) Verify(data, sig []byte) bool {
	s.verifies.Add(1)
	return s.Signer.Verify(data, sig)
}

// TestOneShotVerdictsAreNotKept is revoke_storm in one process: a Conf
// issues R tokens on one login's sessions, the login is logged out, and
// each R is introspected once, after the cascade. Those one-shot checks
// must leave next to nothing in the Conf's verify cache, while a token
// introspected again and again is a hit from its third introspection.
func TestOneShotVerdictsAreNotKept(t *testing.T) {
	const n = 512
	clk := clock.NewVirtual(time.Unix(1000, 0))
	net := bus.NewNetwork(clk)
	login, err := oasis.New("Login", clk, net, oasis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", `def LoggedOn(u, h) u: Login.userid h: Login.host
def Session(u, n) u: Login.userid n: integer
Admin <-
LoggedOn(u, h) <-
Session(u, n) <- LoggedOn(u, h)* |> Admin
`); err != nil {
		t.Fatal(err)
	}
	signer := &countingSigner{Signer: cert.NewHMACSigner([]byte("conf"), 16)}
	conf, err := oasis.New("Conf", clk, net, oasis.Options{Signer: signer})
	if err != nil {
		t.Fatal(err)
	}
	if err := conf.AddRolefile("main", `def R(u, n) u: Login.userid n: integer
R(u, n) <- Login.Session(u, n)*
`); err != nil {
		t.Fatal(err)
	}
	// crypto/rand's token ids: seqReader's repeat every 16 tokens.
	gw := gateway.New(conf, gateway.Options{})
	h := gw.Handler()
	c := ids.NewHostAuthority("cam", clk.Now()).NewDomain()
	logOn := func(user string) *cert.RMC {
		rmc, err := login.Enter(oasis.EnterRequest{
			Client: c, Rolefile: "main", Role: "LoggedOn",
			Args: []value.Value{uid(user), value.Object("Login.host", "cam")},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rmc
	}
	issueR := func(loginCert *cert.RMC, user string, i int) string {
		t.Helper()
		sess, err := login.Enter(oasis.EnterRequest{
			Client: c, Rolefile: "main", Role: "Session",
			Args:  []value.Value{uid(user), value.Int(int64(i))},
			Creds: []*cert.RMC{loginCert},
		})
		if err != nil {
			t.Fatal(err)
		}
		var res gateway.TokenResponse
		rec := post(t, h, "/v1/token", gateway.TokenRequest{
			Client: c, Rolefile: "main", Role: "R", Creds: []*cert.RMC{sess},
		}, &res)
		if rec.Code != http.StatusOK {
			t.Fatalf("issue R: status %d body %s", rec.Code, rec.Body.String())
		}
		return res.Token
	}

	hot := issueR(logOn("hot"), "hot", 0)
	for i, want := range []int64{1, 1, 0, 0} {
		before := signer.verifies.Load()
		if in := introspect(t, h, hot); !in.Active {
			t.Fatalf("introspection %d of the hot token: inactive", i+1)
		}
		if got := signer.verifies.Load() - before; got != want {
			t.Fatalf("introspection %d of the hot token made %d full checks, want %d", i+1, got, want)
		}
	}

	loginCert := logOn("storm")
	tokens := make([]string, n)
	for i := range tokens {
		tokens[i] = issueR(loginCert, "storm", i)
	}
	if err := login.Exit(loginCert, c); err != nil {
		t.Fatal(err)
	}
	for i, tok := range tokens {
		if in := introspect(t, h, tok); in.Active {
			t.Fatalf("R %d active after its login was logged out", i)
		}
	}
	if n := gw.TokenCount(); n != 1 {
		t.Fatalf("%d tokens live, want the hot one", n)
	}
	if got := gateway.VerifiedCount(conf); got > 1+4 {
		t.Fatalf("Conf keeps %d verdicts after %d one-shot introspections, want the hot token's and at most 4 more", got, n)
	}
	before := signer.verifies.Load()
	if in := introspect(t, h, hot); !in.Active || signer.verifies.Load() != before {
		t.Fatal("the hot token is no longer an active verify-cache hit")
	}
}

// TestConcurrentIntrospectOwnAnswer shares the pooled request/response
// buffers between eight goroutines, each introspecting its own token
// and checking that the answer is its own. Run under -race -count=10
// (make race).
func TestConcurrentIntrospectOwnAnswer(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1000, 0))
	login, err := oasis.New("Login", clk, nil, oasis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	h := gateway.New(login, gateway.Options{Rand: &seqReader{}}).Handler()
	c := ids.NewHostAuthority("ely", clk.Now()).NewDomain()

	const workers = 8
	users := make([]string, workers)
	bodies := make([][]byte, workers)
	for i := range users {
		// Different lengths, so a buffer handed over dirty shows.
		users[i] = "user-" + strings.Repeat("x", i*7) + string(rune('a'+i))
		var res gateway.TokenResponse
		rec := post(t, h, "/v1/token", gateway.TokenRequest{
			Client: c, Rolefile: "main", Role: "LoggedOn",
			Args: []value.Value{uid(users[i]), value.Object("Login.host", "ely")},
		}, &res)
		if rec.Code != http.StatusOK {
			t.Fatalf("issue: status %d body %s", rec.Code, rec.Body.String())
		}
		if bodies[i], err = json.Marshal(gateway.IntrospectRequest{Token: res.Token}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/introspect", bytes.NewReader(bodies[i])))
				var in gateway.IntrospectResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &in); err != nil {
					t.Errorf("worker %d: undecodable answer %q: %v", i, rec.Body.String(), err)
					return
				}
				if !in.Active || len(in.Args) != 2 || in.Args[0].S != users[i] {
					t.Errorf("worker %d: got someone else's answer: %s", i, rec.Body.String())
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestConcurrentMutationsOwnAnswer: issue and revoke run on the caller's
// goroutine and share the pooled buffers with introspection. Eight
// goroutines each issue a token for their own user and revoke it, 200
// times over, checking that both answers are their own. Run under -race
// -count=10 (make race).
func TestConcurrentMutationsOwnAnswer(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1000, 0))
	login, err := oasis.New("Login", clk, nil, oasis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	gw := gateway.New(login, gateway.Options{}) // crypto/rand: seqReader is not for sharing
	h := gw.Handler()
	c := ids.NewHostAuthority("ely", clk.Now()).NewDomain()

	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Different lengths, so a buffer handed over dirty shows.
			user := "user-" + strings.Repeat("x", i*7) + string(rune('a'+i))
			issue, err := json.Marshal(gateway.TokenRequest{
				Client: c, Rolefile: "main", Role: "LoggedOn",
				Args: []value.Value{uid(user), value.Object("Login.host", "ely")},
			})
			if err != nil {
				t.Error(err)
				return
			}
			seen := make(map[string]bool)
			for round := 0; round < 200; round++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/token", bytes.NewReader(issue)))
				var res gateway.TokenResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != http.StatusOK {
					t.Errorf("worker %d: issue answered %d %q (%v)", i, rec.Code, rec.Body.String(), err)
					return
				}
				if res.Token == "" || seen[res.Token] || len(res.Args) != 2 || res.Args[0].S != user ||
					res.Cert == nil || len(res.Cert.Args) != 2 || res.Cert.Args[0].S != user {
					t.Errorf("worker %d: not its own token: %s", i, rec.Body.String())
					return
				}
				seen[res.Token] = true
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/revoke",
					strings.NewReader(`{"token":"`+res.Token+`"}`)))
				if rec.Code != http.StatusOK || rec.Body.String() != "{\"ok\":true}\n" {
					t.Errorf("worker %d: revoke answered %d %q", i, rec.Code, rec.Body.String())
					return
				}
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/introspect",
					strings.NewReader(`{"token":"`+res.Token+`"}`)))
				if rec.Code != http.StatusOK || rec.Body.String() != "{\"active\":false}\n" {
					t.Errorf("worker %d: revoked token introspects as %d %q", i, rec.Code, rec.Body.String())
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if n := gw.TokenCount(); n != 0 {
		t.Fatalf("%d tokens left after every one was revoked", n)
	}
}

// TestSweepUnderChurnOwnAnswer: the daemon's duty loop sweeps the record
// table while the gateway issues, introspects and revokes on it. Eight
// goroutines issue → introspect → revoke → introspect their own user's
// token 200 times beside a goroutine calling SweepTick in a loop. On two
// rounds in three the membership is first revoked behind the gateway's
// back, as a cascade would, and the worker waits for the sweeper to
// delete its record: the gateway then meets a dangling reference, in
// /v1/revoke or in an introspection. Every answer is the worker's own
// and none is a 5xx. Run under -race -count=10 (make race).
func TestSweepUnderChurnOwnAnswer(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1000, 0))
	login, err := oasis.New("Login", clk, nil, oasis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	gw := gateway.New(login, gateway.Options{}) // crypto/rand: seqReader is not for sharing
	h := gw.Handler()
	c := ids.NewHostAuthority("ely", clk.Now()).NewDomain()

	stopSweeping := make(chan struct{})
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-stopSweeping:
				return
			default:
				login.SweepTick()
				runtime.Gosched()
			}
		}
	}()

	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := "user-" + strings.Repeat("x", i*7) + string(rune('a'+i))
			issue, err := json.Marshal(gateway.TokenRequest{
				Client: c, Rolefile: "main", Role: "LoggedOn",
				Args: []value.Value{uid(user), value.Object("Login.host", "ely")},
			})
			if err != nil {
				t.Error(err)
				return
			}
			serve := func(path, body string) (int, string) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
				return rec.Code, rec.Body.String()
			}
			for round := 0; round < 200; round++ {
				code, body := serve("/v1/token", string(issue))
				var res gateway.TokenResponse
				if err := json.Unmarshal([]byte(body), &res); err != nil || code != http.StatusOK {
					t.Errorf("worker %d: issue answered %d %q (%v)", i, code, body, err)
					return
				}
				if res.Cert == nil || len(res.Args) != 2 || res.Args[0].S != user {
					t.Errorf("worker %d: not its own token: %s", i, body)
					return
				}
				tok := `{"token":"` + res.Token + `"}`
				code, body = serve("/v1/introspect", tok)
				var in gateway.IntrospectResponse
				if err := json.Unmarshal([]byte(body), &in); err != nil || code != http.StatusOK ||
					!in.Active || len(in.Args) != 2 || in.Args[0].S != user {
					t.Errorf("worker %d: live token introspects as %d %q", i, code, body)
					return
				}
				inactive := func(when string) bool {
					if code, body := serve("/v1/introspect", tok); code != http.StatusOK || body != "{\"active\":false}\n" {
						t.Errorf("worker %d: token %s introspects as %d %q", i, when, code, body)
						return false
					}
					return true
				}
				if round%3 != 0 {
					if err := login.RevokeDirect(res.Cert); err != nil {
						t.Errorf("worker %d: upstream revoke: %v", i, err)
						return
					}
					for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
						if _, _, err := login.Store().Resolve(res.Cert.CRR); err != nil {
							break
						}
						if time.Now().After(deadline) {
							t.Errorf("worker %d: revoked record never swept", i)
							return
						}
					}
					if round%3 == 2 && !inactive("swept") {
						return
					}
				}
				if code, body := serve("/v1/revoke", tok); code != http.StatusOK || body != "{\"ok\":true}\n" {
					t.Errorf("worker %d: revoke answered %d %q", i, code, body)
					return
				}
				if !inactive("revoked") {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stopSweeping)
	<-swept
	if n := gw.TokenCount(); n != 0 {
		t.Fatalf("%d tokens left after every one was revoked", n)
	}
}

// serveGateway runs the gateway on a loopback listener until the test
// ends and returns its base URL.
func serveGateway(t *testing.T, gw *gateway.Gateway) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = gw.Serve(ln)
	}()
	t.Cleanup(func() { _ = ln.Close(); <-done })
	return "http://" + ln.Addr().String()
}

// TestExplicitFraming: every response carries its own Content-Length.
// net/http infers one only while the body fits its 2 KiB buffer, so a
// token response carrying a certificate with a 3 KiB argument used to
// go out chunked.
func TestExplicitFraming(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(1000, 0))
	svc, err := oasis.New("Notes", clk, nil, oasis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddRolefile("main", "def Note(s) s: string\nNote(s) <-\n"); err != nil {
		t.Fatal(err)
	}
	url := serveGateway(t, gateway.New(svc, gateway.Options{Rand: &seqReader{}}))
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	roundTrip := func(path string, body any) []byte {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(url+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d body %s", path, resp.StatusCode, got)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(got)) {
			t.Fatalf("%s: %d-byte body framed with Content-Length %d, Transfer-Encoding %v",
				path, len(got), resp.ContentLength, resp.TransferEncoding)
		}
		return got
	}
	long := strings.Repeat("n", 3<<10)
	var issued gateway.TokenResponse
	if err := json.Unmarshal(roundTrip("/v1/token", gateway.TokenRequest{
		Client: ids.NewHostAuthority("ely", clk.Now()).NewDomain(), Rolefile: "main", Role: "Note",
		Args: []value.Value{value.Str(long)},
	}), &issued); err != nil {
		t.Fatal(err)
	}
	var in gateway.IntrospectResponse
	if err := json.Unmarshal(roundTrip("/v1/introspect", gateway.IntrospectRequest{Token: issued.Token}), &in); err != nil {
		t.Fatal(err)
	}
	if !in.Active || len(in.Args) != 1 || in.Args[0].S != long {
		t.Fatalf("introspection lost the long argument: active %v, %d args", in.Active, len(in.Args))
	}
	roundTrip("/v1/revoke", gateway.RevokeRequest{Token: issued.Token})
}

// stalledIssuer is served on Login's peer port under Login's name: it
// answers everything the real service does except validate, which never
// returns while the test runs — the peer an issuance would wait on.
type stalledIssuer struct {
	*oasis.Service
	release chan struct{}
}

func (p stalledIssuer) Call(from, op string, arg any) (any, error) {
	if op == "validate" {
		<-p.release
	}
	return p.Service.Call(from, op, arg)
}

// TestRequestDeadline: no route runs under a deadline wrapper, and none
// needs one. Issuance that has to ask an unresponsive issuer about a
// foreign credential — in the deployed shape: the issuer behind its
// peer port, this service joined to it by AddRemote — is given up by
// the bus once the call has been outstanding bus.CallDeadline on the
// home clock, and answered with the 503 timeout envelope; introspection
// answers all the while. The method and path checks of the route switch
// answer as the mux did.
//
// (An endpoint registered on the caller's own Network that never
// returns is not this case: Network.Call to a local endpoint is a plain
// function call, unbounded by design — that is a deadlock in our own
// process, not a slow peer.)
func TestRequestDeadline(t *testing.T) {
	oasis.RegisterWireTypes()
	login, err := oasis.New("Login", clock.Real(), nil, oasis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := login.AddRolefile("main", loginRolefile); err != nil {
		t.Fatal(err)
	}
	loginNet := bus.NewNetwork(clock.Real())
	release := make(chan struct{})
	if err := loginNet.Register("Login", stalledIssuer{login, release}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); _ = loginNet.ServeTCP(ln) }()

	clk := clock.NewVirtual(time.Date(1997, 6, 1, 9, 0, 0, 0, time.UTC))
	confNet := bus.NewNetwork(clk)
	if err := confNet.AddRemote("Login", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	// Unwinds in order: the stalled handler returns, the link closes (so
	// the served connection ends), the listener closes, ServeTCP returns.
	defer func() { close(release); confNet.CloseRemotes(); ln.Close(); <-served }()
	conf, err := oasis.New("Conf", clk, confNet, oasis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const rolefile = "def Guest(n) n: integer\nGuest(n) <-\nChair <- Login.LoggedOn(\"jmb\", h)*\n"
	if err := conf.AddRolefile("main", rolefile); err != nil {
		t.Fatal(err)
	}
	h := gateway.New(conf, gateway.Options{}).Handler()

	c := ids.NewHostAuthority("ely", clk.Now()).NewDomain()
	var guest gateway.TokenResponse
	if rec := post(t, h, "/v1/token", gateway.TokenRequest{
		Client: c, Rolefile: "main", Role: "Guest", Args: []value.Value{value.Int(1)},
	}, &guest); rec.Code != http.StatusOK {
		t.Fatalf("local issue: status %d body %s", rec.Code, rec.Body.String())
	}
	loginCert, err := login.Enter(oasis.EnterRequest{
		Client: c, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{uid("jmb"), value.Object("Login.host", "ely")},
	})
	if err != nil {
		t.Fatal(err)
	}

	hung := make(chan *httptest.ResponseRecorder)
	go func() {
		hung <- post(t, h, "/v1/token", gateway.TokenRequest{
			Client: c, Rolefile: "main", Role: "Chair", Creds: []*cert.RMC{loginCert},
		}, nil)
	}()
	// Introspections keep answering for as long as the issuance hangs,
	// which is until the home clock has passed the call's deadline.
	var rec *httptest.ResponseRecorder
	for rec == nil {
		if in := introspect(t, h, guest.Token); !in.Active {
			t.Fatal("introspection wrong while an issuance hangs")
		}
		select {
		case rec = <-hung:
		case <-time.After(time.Millisecond):
			clk.Advance(bus.CallDeadline / 4)
		}
	}
	var e gateway.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusServiceUnavailable || e.Err != "timeout" {
		t.Fatalf("hung issuance: status %d body %q (%v), want the 503 timeout envelope", rec.Code, rec.Body.String(), err)
	}

	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/introspect", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/revoke", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/nope", http.StatusNotFound},
		{http.MethodPost, "/v1/introspect/", http.StatusNotFound},
		{http.MethodPost, "/", http.StatusNotFound},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.want)
		}
		if tc.want == http.StatusMethodNotAllowed && rec.Header().Get("Allow") != http.MethodPost {
			t.Errorf("%s %s: 405 without Allow: POST", tc.method, tc.path)
		}
	}
}

// TestDroppedWritesCountedPerGateway: the counter of responses lost to
// departed clients belongs to the gateway that lost them.
func TestDroppedWritesCountedPerGateway(t *testing.T) {
	a := newWorld(t, gateway.Options{})
	b := newWorld(t, gateway.Options{})
	rec := &brokenWriter{hdr: http.Header{}}
	a.gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/introspect",
		strings.NewReader(`{"token":"x"}`)))
	if got := a.gw.DroppedResponseWrites(); got != 1 {
		t.Fatalf("gateway a counted %d dropped writes, want 1", got)
	}
	if got := b.gw.DroppedResponseWrites(); got != 0 {
		t.Fatalf("gateway b counted %d dropped writes that were a's", got)
	}
}

// brokenWriter is a client that went away: every body write fails.
type brokenWriter struct{ hdr http.Header }

func (w *brokenWriter) Header() http.Header       { return w.hdr }
func (w *brokenWriter) WriteHeader(int)           {}
func (w *brokenWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }
