package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// Role entry's hand-written path is held to the same standard as
// introspection's: indistinguishable from encoding/json or absent. The
// reference is handleToken as it stood before — decode, then the
// reflective encoder — kept here and nowhere else.

func referenceToken(g *Gateway, w http.ResponseWriter, r *http.Request) {
	fail := func(status int, code, desc string) {
		referenceWriteJSON(w, status, ErrorResponse{Err: code, Desc: desc})
	}
	var req TokenRequest
	if err := decode(w, r, &req); err != nil {
		fail(http.StatusBadRequest, "invalid_request", err.Error())
		return
	}
	if req.Role == "" {
		fail(http.StatusBadRequest, "invalid_request", "role is required")
		return
	}
	if req.Client.IsZero() {
		fail(http.StatusBadRequest, "invalid_request", "client identity is required")
		return
	}
	rmc, err := g.svc.Enter(oasis.EnterRequest{
		Client: req.Client, Rolefile: req.Rolefile, Role: req.Role,
		Args: req.Args, Creds: req.Creds, Delegation: req.Delegation,
	})
	if err != nil {
		var verr *oasis.ValidationError
		switch {
		case errors.As(err, &verr) && verr.Class == oasis.Fraud:
			fail(http.StatusForbidden, "access_denied", verr.Reason)
		case errors.As(err, &verr) && (verr.Class == oasis.Revoked || verr.Class == oasis.Erroneous):
			fail(http.StatusBadRequest, "invalid_grant", verr.Reason)
		default:
			fail(http.StatusBadRequest, "invalid_request", err.Error())
		}
		return
	}
	now := g.clk.Now()
	id, err := g.tokens.mint(rmc, now, g.svc.Store())
	if err != nil {
		fail(http.StatusInternalServerError, "server_error", err.Error())
		return
	}
	res := TokenResponse{
		Token: id, TokenType: tokenType, Issuer: g.svc.Name(), Rolefile: rmc.Rolefile,
		Roles: g.svc.RoleNames(rmc), Args: rmc.Args, Cert: rmc,
	}
	if !rmc.Expiry.IsZero() {
		res.ExpiresIn = int64(rmc.Expiry.Sub(now) / time.Second)
	}
	referenceWriteJSON(w, http.StatusOK, res)
}

// The storm's policies (bench/oasisload): a session per login at Login,
// a role per session at a Conf that validates it across the bus.
const (
	stormLoginRolefile = `def LoggedOn(u, h) u: Login.userid h: Login.host
def Session(u, n) u: Login.userid n: integer
Admin <-
LoggedOn(u, h) <-
Session(u, n) <- LoggedOn(u, h)* |> Admin
`
	stormConfRolefile = `def R(u, n) u: Login.userid n: integer
R(u, n) <- Login.Session(u, n)*
`
)

// stormWorld is a Login and a Conf on one bus, a gateway over each.
// Nothing in it is random, so two worlds fed the same requests give
// the same answers, token ids and signatures included.
type stormWorld struct {
	clk         *clock.Virtual
	login, conf *Gateway
}

func newStormWorld(t testing.TB) *stormWorld {
	t.Helper()
	clk := clock.NewVirtual(time.Date(1997, 1, 1, 0, 0, 0, 0, time.UTC))
	n := bus.NewNetwork(clk)
	mk := func(name, rolefile string, opts oasis.Options) *Gateway {
		svc, err := oasis.New(name, clk, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.AddRolefile("main", rolefile); err != nil {
			t.Fatal(err)
		}
		// Seeded ids: countingReader's come round again after sixteen.
		return New(svc, Options{Rand: rand.New(rand.NewSource(18))})
	}
	return &stormWorld{
		clk:   clk,
		login: mk("Login", stormLoginRolefile, oasis.Options{CertTTL: time.Hour}),
		conf:  mk("Conf", stormConfRolefile, oasis.Options{}),
	}
}

var stormClient = ids.ClientID{Host: "bench", ID: 1, BootTime: time.Unix(852076800, 0).UTC()}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// stormBody renders a request the way the load generator does: encoder
// output for the client and the arguments, the certificate verbatim as
// a response carried it.
func stormBody(t testing.TB, role string, args []value.Value, creds []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(`{"client":`)
	b.Write(mustJSON(t, stormClient))
	b.WriteString(`,"rolefile":"main","role":"` + role + `"`)
	if args != nil {
		b.WriteString(`,"args":`)
		b.Write(mustJSON(t, args))
	}
	if creds != nil {
		b.WriteString(`,"creds":[`)
		b.Write(creds)
		b.WriteString(`]`)
	}
	b.WriteByte('}')
	return b.Bytes()
}

func postBody(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// issueCert issues through the gateway and returns the certificate as
// the response carried it.
func issueCert(t testing.TB, g *Gateway, body []byte) []byte {
	t.Helper()
	rec := postBody(g.Handler(), "/v1/token", body)
	var res struct {
		Cert json.RawMessage `json:"cert"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); rec.Code != http.StatusOK || err != nil || res.Cert == nil {
		t.Fatalf("issue %s: status %d body %s (%v)", body, rec.Code, rec.Body, err)
	}
	return res.Cert
}

// stormBodies are the storm's three requests: a cred-less LoggedOn, a
// Session on the login certificate, an R on the session certificate.
func stormBodies(t testing.TB, w *stormWorld) (loggedOn, session, r []byte) {
	t.Helper()
	user := value.Object("Login.userid", "u00000001")
	loggedOn = stormBody(t, "LoggedOn", []value.Value{user, value.Object("Login.host", "bench")}, nil)
	session = stormBody(t, "Session", []value.Value{user, value.Int(3)}, issueCert(t, w.login, loggedOn))
	r = stormBody(t, "R", nil, issueCert(t, w.login, session))
	return loggedOn, session, r
}

// goldenTokenRequests returns every /v1/token request of the committed
// vectors, as committed (indented).
func goldenTokenRequests(t testing.TB) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden vectors: %v", err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var exchanges []struct {
			Path    string          `json:"path"`
			Request json.RawMessage `json:"request"`
		}
		if err := json.Unmarshal(raw, &exchanges); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, x := range exchanges {
			if x.Path == "/v1/token" {
				out = append(out, x.Request)
			}
		}
	}
	return out
}

// tokenSeeds is every shape of body the scanner must either read as
// decode does or decline, grown from the storm's three.
func tokenSeeds(t testing.TB, loggedOn, session, r []byte) [][]byte {
	t.Helper()
	seeds := append(goldenTokenRequests(t), loggedOn, session, r)
	// sub adds body with the first match of the pattern replaced.
	sub := func(body []byte, pattern, repl string) {
		t.Helper()
		loc := regexp.MustCompile(pattern).FindIndex(body)
		if loc == nil {
			t.Fatalf("seed %s has no %s", body, pattern)
		}
		seeds = append(seeds, append(append(bytes.Clone(body[:loc[0]]), repl...), body[loc[1]:]...))
	}
	sub(loggedOn, `"role"`, `"Role"`)                                  // encoding/json folds the key's case
	sub(session, `"Service"`, `"service"`)                             // … at every depth
	sub(loggedOn, `"role":"LoggedOn"`, `"role":"x","role":"LoggedOn"`) // duplicate key: last wins
	sub(session, `"Index":`, `"Index":9,"Index":`)                     // … and nested structs merge
	sub(session, `"CRR":`, `"CRR":{"Magic":7},"CRR":`)
	sub(loggedOn, `"role"`, `"extra":1,"role"`) // unknown key
	sub(session, `"Sig"`, `"Extra":{},"Sig"`)
	sub(loggedOn, `"LoggedOn"`, `"Logged\u004fn"`) // escaped string
	sub(loggedOn, `"u00000001"`, `"u\"1"`)
	sub(loggedOn, `"u00000001"`, "\"u\xff\xfe\"") // not UTF-8
	sub(loggedOn, `"u00000001"`, `"ué"`)          // not ASCII
	sub(loggedOn, `"u00000001"`, "\"u\x7f\"")     // DEL
	sub(loggedOn, `"u00000001"`, "\"u\x01\"")     // a control byte is a syntax error
	sub(loggedOn, `"u00000001"`, `"<d&m>'/ ~"`)   // the encoder escapes some of these on the way out
	sub(loggedOn, `$`, ` trailing`)               // the decoder stops at the first value
	sub(loggedOn, `$`, string(loggedOn))
	sub(loggedOn, `$`, " \r\n\t") // whitespace is not garbage
	seeds = append(seeds, bytes.ReplaceAll(session, []byte(`,`), []byte(" ,\n\t")),
		bytes.ReplaceAll(session, []byte(`:`), []byte("\r : ")))
	for _, args := range []string{`[]`, `null`, `[null]`, `{}`} {
		sub(r, `,"creds"`, `,"args":`+args+`,"creds"`) // absent, empty and null lists differ once decoded
		sub(session, `"Args":\[[^\]]*\]`, `"Args":`+args)
	}
	sub(loggedOn, `,"args":\[`, `,"args":[null,`)
	sub(loggedOn, `"client":\{[^}]*\}`, `"client":null`)
	sub(loggedOn, `"client":\{[^}]*\}`, `"client":{}`)
	sub(loggedOn, `"rolefile":"main"`, `"rolefile":null`)
	sub(session, `"T":\{[^}]*\}`, `"T":null`)
	for _, n := range []string{`1.0`, `1e3`, `1E3`, `-1`, `-0`, `- 1`, `007`, `00`, `0`, `+1`, `18446744073709551615`,
		`18446744073709551616`, `9223372036854775807`, `9223372036854775808`, `-9223372036854775808`,
		`-9223372036854775809`, `4294967295`, `4294967296`, `"1"`, `1x`, `true`, `null`, ``, `-`} {
		sub(session, `"I":3`, `"I":`+n)            // int64
		sub(session, `"ID":1`, `"ID":`+n)          // uint64
		sub(session, `"Kind":1`, `"Kind":`+n)      // int
		sub(session, `"Set":0`, `"Set":`+n)        // uint64
		sub(session, `"Roles":\d+`, `"Roles":`+n)  // uint64 behind a named type
		sub(session, `"Index":\d+`, `"Index":`+n)  // uint32: 2³² is out of range
		sub(session, `"Magic":\d+`, `"Magic": `+n) //
		sub(session, `"Magic":\d+`, `"Magic":`+n+` `)
	}
	for _, at := range []string{`"1997-01-01T00:00:00.123456789Z"`, `"1997-01-01T01:00:00+01:00"`,
		`"1997-01-01T00:00:00-23:59"`, `"1997-01-01T00:00:00+24:00"`, `"1997-01-01 00:00:00Z"`, `"1997-01-01T00:00:00"`,
		`"10000-01-01T00:00:00Z"`, `"0000-01-01T00:00:00Z"`, `"0001-01-01T00:00:00Z"`, `"1997-01-01T00:00:00z"`,
		`"1997-02-30T00:00:00Z"`, `"1997-01-01T24:00:00Z"`, `"1997-01-01T00:00:60Z"`, `"1997-01-01T00:00:00,5Z"`,
		`"1997-01-01T0:00:00Z"`, `"1997-01-01T00:00:00Z "`, `""`, `"null"`, `null`, `852076800`} {
		sub(session, `"BootTime":"[^"]*"`, `"BootTime":`+at)
		sub(session, `"Expiry":"[^"]*"`, `"Expiry":`+at)
	}
	for _, sig := range []string{`""`, `null`, `"AA=="`, `"AA"`, `"AA="`, `"A"`, `"AAAA"`, `"AAA*"`, `"AA==AA=="`,
		`"AA\n=="`, `"AB=="`, `"-_-_"`, `[1,2]`, `"AA==" `, `"A A="`} {
		sub(session, `"Sig":"[^"]*"`, `"Sig":`+sig) // base64: bad, unpadded, URL alphabet, non-canonical
	}
	sub(session, `"creds":\[`, `"creds":[null,`)
	sub(session, `"creds":\[.*\]`, `"creds":null`)
	sub(session, `"creds":\[.*\]`, `"creds":[]`)
	sub(session, `"creds":\[`, `"creds":[[],`)
	sub(session, `"creds":\[`, `"creds":[{},`)
	sub(session, `"creds":\[`, `"creds":[,`)
	sub(session, `\]\}$`, `],}`)
	sub(session, `\]\}$`, `],"delegation":null}`)
	sub(session, `\]\}$`, `],"delegation":`+string(mustJSON(t, &cert.Delegation{
		Service: "Login", Rolefile: "main", Role: "Session", DelegCRR: credrec.Ref{Index: 2, Magic: 1}, Sig: []byte{1, 2, 3},
	}))+`}`)
	for _, body := range []string{`{}`, ` { } `, `{"role":"LoggedOn"}`, `{"client":{}}`, `{"client":{},"role":"R"}`,
		`[]`, `null`, `"role"`, ``, `{`, `{"role"`, `{"role":`, `{"role":"LoggedOn"`, `{"role":"LoggedOn",}`,
		`{"role" "LoggedOn"}`, `{role:"LoggedOn"}`, "\v{}", "{}\u00a0", "\ufeff{}"} {
		seeds = append(seeds, []byte(body))
	}
	pad := func(n int, body []byte) []byte { return append(bytes.Repeat([]byte(" "), n-len(body)), body...) }
	return append(seeds,
		// At the scanner's limit and one past it.
		pad(maxCanonicalBody, session), pad(maxCanonicalBody+1, session))
}

// compareToken sends one body down both roads — the shipped handler on
// got's gateway, the reference on want's — and holds the answers to
// byte equality. declared is the Content-Length the request claims.
func compareToken(t *testing.T, got, want *Gateway, body []byte, declared int64) {
	t.Helper()
	mk := func() *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/token", bytes.NewReader(body))
		r.ContentLength = declared
		return r
	}
	g, w := httptest.NewRecorder(), httptest.NewRecorder()
	got.Handler().ServeHTTP(g, mk())
	referenceToken(want, w, mk())
	if g.Code != w.Code {
		t.Fatalf("%s body %s (declared %d): status %d, reference %d (%s / %s)", got.svc.Name(), clip(body), declared, g.Code, w.Code, clip(g.Body.Bytes()), clip(w.Body.Bytes()))
	}
	if g, w := g.Header().Get("Content-Type"), w.Header().Get("Content-Type"); g != w {
		t.Fatalf("%s body %s: Content-Type %q, reference %q", got.svc.Name(), clip(body), g, w)
	}
	if !bytes.Equal(g.Body.Bytes(), w.Body.Bytes()) {
		t.Fatalf("%s body %s (declared %d):\n      got %s\nreference %s", got.svc.Name(), clip(body), declared, clip(g.Body.Bytes()), clip(w.Body.Bytes()))
	}
}

// checkScan holds the scanner to decode: whatever it accepts, decode
// accepts and reads identically, down to nil versus empty.
func checkScan(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	var got, want TokenRequest
	buf := bytes.Clone(body)
	if len(body) > maxCanonicalBody || !tokenRequest(buf, &got) { // readBody offers it nothing longer
		return false
	}
	for i := range buf {
		buf[i] = 0xff // nothing decoded may live in the buffer
	}
	if err := decode(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/token", bytes.NewReader(body)), &want); err != nil {
		t.Fatalf("body %s: scanned as %s, decode refuses it: %v", clip(body), dump(got), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %s:\nscanned %s\ndecoded %s", clip(body), dump(got), dump(want))
	}
	return true
}

// clip quotes a body, eliding the middle of a long one.
func clip(b []byte) string {
	if len(b) <= 1200 {
		return fmt.Sprintf("%q", b)
	}
	return fmt.Sprintf("%q…(%d bytes)…%q", b[:600], len(b)-1200, b[len(b)-600:])
}

// dump tells nil from empty and follows the certificates, which %+v
// does not.
func dump(req TokenRequest) string {
	s := fmt.Sprintf("%#v", req)
	for _, c := range req.Creds {
		s += fmt.Sprintf("\n  %#v", c)
	}
	return s
}

func FuzzTokenBody(f *testing.F) {
	// The seeds' certificates are issued in both worlds.
	shipped, reference := newStormWorld(f), newStormWorld(f)
	loggedOn, session, r := stormBodies(f, shipped)
	stormBodies(f, reference)
	for _, seed := range tokenSeeds(f, loggedOn, session, r) {
		f.Add(seed, false)
	}
	f.Add(loggedOn, true) // a body shorter than its Content-Length
	f.Add(session[:len(session)/2], true)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, body []byte, short bool) {
		checkScan(t, body)
		declared := int64(len(body))
		if short {
			declared += 7
		}
		compareToken(t, shipped.login, reference.login, body, declared)
		compareToken(t, shipped.conf, reference.conf, body, declared)
		if shipped.login.TokenCount()+shipped.conf.TokenCount() > 1<<12 {
			// Every accepted body leaves a token and a record behind:
			// start over before a long run outgrows its memory.
			shipped, reference = newStormWorld(t), newStormWorld(t)
		}
	})
}

// TestDecodedRequestDoesNotAliasBuffer: certificates and tokens outlive
// the request, the pooled buffer does not. checkScan overwrites the
// buffer after the scan and only then compares with decode; the storm's
// bodies and the golden vectors' must be among those it scanned, or the
// fast path is not serving the traffic it was built for.
func TestDecodedRequestDoesNotAliasBuffer(t *testing.T) {
	loggedOn, session, r := stormBodies(t, newStormWorld(t))
	accepted := 0
	for _, body := range tokenSeeds(t, loggedOn, session, r) {
		if checkScan(t, body) {
			accepted++
		}
	}
	t.Logf("%d seeds scanned", accepted)
	for _, body := range append(goldenTokenRequests(t), loggedOn, session, r) {
		// Every well-formed one: none of them holds a null or a delegation.
		if !checkScan(t, body) && json.Unmarshal(body, new(TokenRequest)) == nil {
			t.Errorf("body %s was left to decode", clip(body))
		}
	}
}

// wireNames lists a struct's exported fields under the names
// encoding/json gives them.
func wireNames(typ reflect.Type) []string {
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		names = append(names, name)
	}
	return names
}

// fill sets every exported field v can reach to something no omitempty
// hides.
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem())
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Date(1997, 6, 1, 9, 0, 0, 0, time.UTC)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i))
			}
		}
	default:
		panic("fill: a field of kind " + v.Kind().String() + " joined the wire; teach fill, the scanner and the appenders about it")
	}
}

// TestWireShapeMatchesStructs fails when the structs on the wire grow a
// field the hand-written path does not know: the scanner would decline
// every body that names it (slow, not wrong), the appenders would leave
// it out (wrong).
func TestWireShapeMatchesStructs(t *testing.T) {
	for _, c := range []struct {
		v    any
		keys []string
	}{
		{IntrospectRequest{}, tokenKeys},
		{TokenRequest{}, append(append([]string{}, requestKeys...), "delegation")},
		{ids.ClientID{}, clientKeys},
		{value.Value{}, valueKeys},
		{value.Type{}, typeKeys},
		{cert.RMC{}, rmcKeys},
		{credrec.Ref{}, refKeys},
	} {
		if got := wireNames(reflect.TypeOf(c.v)); !reflect.DeepEqual(got, c.keys) {
			t.Errorf("%T has fields %q on the wire, the scanner's schema is %q", c.v, got, c.keys)
		}
	}

	// With every field set the scanner still reads what decode reads …
	var req TokenRequest
	fill(reflect.ValueOf(&req).Elem())
	req.Delegation = nil
	if body := mustJSON(t, req); !checkScan(t, body) {
		t.Errorf("the scanner declines a request of nothing but known fields: %s", body)
	}
	// … and the appenders write what the encoder writes.
	var tok TokenResponse
	fill(reflect.ValueOf(&tok).Elem())
	if got, ok := appendTokenResponse(nil, &tok); !ok || !bytes.Equal(got, encoderOutput(t, tok)) {
		t.Errorf("token response:\nappender %q (ok=%v)\n encoder %q", got, ok, encoderOutput(t, tok))
	}
	var in IntrospectResponse
	fill(reflect.ValueOf(&in).Elem())
	if got := appendIntrospectResponse(nil, &in); !bytes.Equal(got, encoderOutput(t, in)) {
		t.Errorf("introspect response:\nappender %q\n encoder %q", got, encoderOutput(t, in))
	}
	var ack RevokeResponse
	fill(reflect.ValueOf(&ack).Elem())
	if got := appendRevokeResponse(nil, ack); !bytes.Equal(got, encoderOutput(t, ack)) {
		t.Errorf("revoke response:\nappender %q\n encoder %q", got, encoderOutput(t, ack))
	}
}

// TestSweepDropsCascadeDead: the storm's sessions die by cascade and
// nobody introspects them again, so mint's amortised sweep has to find
// them — and has to leave alone what a fail-safe demotion has only
// suspended.
func TestSweepDropsCascadeDead(t *testing.T) {
	w := newStormWorld(t)
	loggedOn, _, _ := stormBodies(t, w) // leaves a LoggedOn and a Session of its own behind
	login := issueCert(t, w.login, loggedOn)
	const k = 16
	var r struct {
		Token string   `json:"access_token"`
		Cert  cert.RMC `json:"cert"`
	}
	for i := 0; i < k; i++ {
		session := issueCert(t, w.login, stormBody(t, "Session",
			[]value.Value{value.Object("Login.userid", "u00000001"), value.Int(int64(100 + i))}, login))
		rec := postBody(w.conf.Handler(), "/v1/token", stormBody(t, "R", nil, session))
		if err := json.Unmarshal(rec.Body.Bytes(), &r); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("R: status %d body %s (%v)", rec.Code, rec.Body, err)
		}
	}
	// Twice the sweep interval for every shard: ids spread evenly, not
	// exactly, and each shard has to get there.
	const fresh = 2 * sweepEvery * tokenShards

	// Login goes quiet: Conf's tokens are inactive, not dead, and stay.
	w.conf.svc.Store().MarkSourceFailsafe("Login")
	if in := w.conf.introspect([]byte(r.Token)); in.Active {
		t.Fatal("token active with its issuer presumed failed")
	}
	for i := 0; i < fresh; i++ {
		if _, err := w.conf.tokens.mint(&r.Cert, w.clk.Now(), w.conf.svc.Store()); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.conf.TokenCount(); got != k+fresh {
		t.Errorf("%d tokens at Conf, want %d: a fail-safe demotion is not a revocation", got, k+fresh)
	}

	// The login is revoked: its token and its sessions' are dead for good.
	before := w.login.TokenCount()
	var parent cert.RMC
	if err := json.Unmarshal(login, &parent); err != nil {
		t.Fatal(err)
	}
	if err := w.login.svc.RevokeDirect(&parent); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fresh; i++ {
		if rec := postBody(w.login.Handler(), "/v1/token", loggedOn); rec.Code != http.StatusOK {
			t.Fatalf("issue: status %d body %s", rec.Code, rec.Body)
		}
	}
	if got, want := w.login.TokenCount(), before-(1+k)+fresh; got != want {
		t.Errorf("%d tokens at Login, want %d: nothing asks after the revoked login's token and its %d sessions' again", got, want, k)
	}
}
