package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// The introspection fast path is allowed to exist only as long as it
// is indistinguishable from encoding/json. These tests hold the
// reference: the handler as it stood before the fast path — decode from
// net/http's body reader, then the reflective encoder through a
// bytes.Buffer — kept here and nowhere else.

// referenceDecode is decode as it read a request before routes took
// the body's bytes: one bounded JSON value from the body reader.
func referenceDecode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	return nil
}

func referenceWriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, `{"error":"server_error"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // an httptest recorder never fails a write
}

func referenceIntrospect(g *Gateway, w http.ResponseWriter, r *http.Request) {
	var req IntrospectRequest
	if err := referenceDecode(w, r, &req); err != nil {
		referenceWriteJSON(w, http.StatusBadRequest, ErrorResponse{Err: "invalid_request", Desc: err.Error()})
		return
	}
	if req.Token == "" {
		referenceWriteJSON(w, http.StatusBadRequest, ErrorResponse{Err: "invalid_request", Desc: "token is required"})
		return
	}
	rec, ok := g.tokens.lookup([]byte(req.Token))
	if !ok {
		referenceWriteJSON(w, http.StatusOK, IntrospectResponse{Active: false})
		return
	}
	c := rec.held.Cert()
	if err := g.svc.Validate(c, c.Client); err != nil {
		referenceWriteJSON(w, http.StatusOK, IntrospectResponse{Active: false})
		return
	}
	res := IntrospectResponse{
		Active:   true,
		Issuer:   g.svc.Name(),
		Rolefile: c.Rolefile,
		Roles:    g.svc.RoleNames(c),
		Args:     c.Args,
		Client:   c.Client.String(),
		Iat:      rec.issued.Unix(),
	}
	if !c.Expiry.IsZero() {
		res.Exp = c.Expiry.Unix()
	}
	referenceWriteJSON(w, http.StatusOK, res)
}

// countingReader mints predictable token ids: 0102…10, 1112…20, …
type countingReader struct{ ctr byte }

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		r.ctr++
		p[i] = r.ctr
	}
	return len(p), nil
}

const (
	plainToken = "0102030405060708090a0b0c0d0e0f10"
	fancyToken = "1112131415161718191a1b1c1d1e1f20"
)

// fuzzGateway serves two live tokens: plainToken, whose answer the
// appender copies byte for byte, and fancyToken, whose arguments hold
// everything the encoder escapes or repairs.
func fuzzGateway(t testing.TB) *Gateway {
	t.Helper()
	clk := clock.NewVirtual(time.Date(1997, 6, 1, 9, 0, 0, 0, time.UTC))
	svc, err := oasis.New("Login", clk, nil, oasis.Options{CertTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddRolefile("main", "def LoggedOn(u, h) u: Login.userid h: Login.host\nLoggedOn(u, h) <-\n"); err != nil {
		t.Fatal(err)
	}
	g := New(svc, Options{Rand: &countingReader{}})
	c := ids.NewHostAuthority("ely", clk.Now()).NewDomain()
	for _, user := range []string{"dm", "<d&m>\"\\\x01\xff\u2028\u00e9"} {
		raw, err := json.Marshal(TokenRequest{
			Client: c, Rolefile: "main", Role: "LoggedOn",
			Args: []value.Value{value.Object("Login.userid", user), value.Object("Login.host", "ely")},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/token", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("issue %q: status %d body %s", user, rec.Code, rec.Body)
		}
	}
	for _, tok := range []string{plainToken, fancyToken} {
		if _, ok := g.tokens.lookup([]byte(tok)); !ok {
			t.Fatalf("token %s was not minted", tok)
		}
	}
	return g
}

func FuzzIntrospectBody(f *testing.F) {
	for _, seed := range []string{
		`{"token":"` + plainToken + `"}`, // canonical
		`{"token":"` + fancyToken + `"}`,
		" \t\r\n{ \"token\" :\n\"" + plainToken + "\"\t}\r\n ", // whitespace everywhere JSON allows it
		`{"Token":"` + plainToken + `"}`,                       // encoding/json folds the key's case
		`{"token":"x","token":"` + plainToken + `"}`,           // duplicate key: last wins
		`{"token":"\u0030102030405060708090a0b0c0d0e0f10"}`,    // escaped token
		`{"token":"` + plainToken + `"} trailing garbage`,      // the decoder stops at the first value
		`{"token":"` + plainToken + `"}{"token":"x"}`,
		`{"token":"` + plainToken + `","extra":1}`, // unknown field
		`{"token":""}`,
		`{"token":"no-such-token"}`,
		`{"token":"<&>"}`,
		`{"token":"del` + "\x7f" + `"}`,
		`{"token":"nul` + "\x00" + `"}`,
		`{"token":"\xff\xfe"}`, // not UTF-8
		`{"token":123}`,
		`{"token":"unterminated`,
		`{"token"`,
		`[]`,
		`null`,
		``,
		`{"token":"` + strings.Repeat("a", 5<<10) + `"}`, // past the recogniser's 4 KiB
		strings.Repeat(" ", maxCanonicalBody-len(plainToken)-12) + `{"token":"` + plainToken + `"}`,
	} {
		f.Add([]byte(seed))
	}
	g := fuzzGateway(f)
	h := g.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		h.ServeHTTP(got, httptest.NewRequest(http.MethodPost, "/v1/introspect", bytes.NewReader(body)))
		referenceIntrospect(g, want, httptest.NewRequest(http.MethodPost, "/v1/introspect", bytes.NewReader(body)))
		if got.Code != want.Code {
			t.Fatalf("body %q: status %d, reference %d", body, got.Code, want.Code)
		}
		if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
			t.Fatalf("body %q: Content-Type %q, reference %q", body, g, w)
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("body %q:\n      got %q\nreference %q", body, got.Body, want.Body)
		}
	})
}

// TestReadTokenReplaysShortBody: a body that ends before its declared
// length reaches decode as the same bytes and the same error, and one
// the scanner accepts answers as the reference does.
func TestReadTokenReplaysShortBody(t *testing.T) {
	g := fuzzGateway(t)
	for _, sent := range []string{"", " ", `{"token":"` + plainToken, `{"token":"` + plainToken + `"} `} {
		mk := func() *http.Request {
			r := httptest.NewRequest(http.MethodPost, "/v1/introspect", strings.NewReader(sent))
			r.ContentLength = int64(len(sent)) + 7
			return r
		}
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		g.Handler().ServeHTTP(got, mk())
		referenceIntrospect(g, want, mk())
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("sent %q: got %d %q, reference %d %q", sent, got.Code, got.Body, want.Code, want.Body)
		}
	}
}

// nasty holds a fragment for every branch of the encoder's string
// rendering: pass-through, the two-byte escapes, \u00XX control bytes,
// the HTML trio, DEL, invalid UTF-8 (replaced by U+FFFD), valid
// multi-byte runes and the two line separators JSON-in-JS must escape.
var nasty = []string{
	"", "dm", "Login.userid", "main", "a b", "~", "/", "x'y",
	"<", ">", "&", "<script>&amp;</script>",
	`"`, `\`, `\"`, `a"b\c`,
	"\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
	"\xff", "\xc3", "\xe2\x80", "a\xffb", "\xed\xa0\x80",
	"é", "日本", "\u2028", "\u2029", "\u2027", "\ufffd", "\U0001f600",
}

func nastyString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(4); n >= 0; n-- {
		b.WriteString(nasty[rng.Intn(len(nasty))])
	}
	return b.String()
}

func nastyStrings(rng *rand.Rand) []string {
	switch n := rng.Intn(5); n {
	case 0:
		return nil
	case 1:
		return []string{}
	default:
		out := make([]string, n-1)
		for i := range out {
			out[i] = nastyString(rng)
		}
		return out
	}
}

// nastyTimes holds an instant for every branch of Time.MarshalJSON: the
// zero time, UTC and not, whole seconds and not, zones of odd minutes
// and seconds, the last and first years it renders and the ones beyond
// them, and zones it refuses for being a day or more from UTC.
var nastyTimes = []time.Time{
	{},
	time.Date(1997, 6, 1, 9, 0, 0, 0, time.UTC),
	time.Date(1997, 6, 1, 9, 0, 0, 123456789, time.UTC),
	time.Date(1997, 6, 1, 9, 0, 0, 120000000, time.FixedZone("BST", 3600)),
	time.Date(1997, 6, 1, 9, 0, 0, 0, time.FixedZone("", -(23*3600+59*60))),
	time.Date(1997, 6, 1, 9, 0, 0, 0, time.FixedZone("", 3601)),
	time.Date(1997, 6, 1, 9, 0, 0, 0, time.FixedZone("", -59)),
	time.Date(1997, 6, 1, 9, 0, 0, 1, time.FixedZone("", 0)),
	time.Date(1997, 6, 1, 9, 0, 0, 0, time.Local),
	time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
	time.Date(-1, 12, 31, 23, 59, 59, 0, time.UTC),
	time.Date(9999, 12, 31, 23, 0, 0, 0, time.FixedZone("", -2*3600)), // year 10000 in UTC, 9999 as rendered
	time.Date(1997, 6, 1, 9, 0, 0, 0, time.FixedZone("", 24*3600)),
	time.Date(1997, 6, 1, 9, 0, 0, 0, time.FixedZone("", -24*3600)),
	time.Date(1997, 6, 1, 9, 0, 0, 0, time.FixedZone("", 24*3600-1)),
	time.Date(1997, 6, 1, 9, 0, 0, 0, time.FixedZone("", 100*3600)),
	time.Unix(865155600, 0),
}

var interestingInts = []int64{0, 1, -1, 7, 865155600, -62135596800, math.MaxInt64, math.MinInt64}

func nastyValue(rng *rand.Rand) value.Value {
	v := value.Value{
		T: value.Type{
			// Every declared kind, the zero kind and two no engine would
			// issue: the appender renders the struct, not its meaning.
			Kind:     value.Kind(rng.Intn(7) - 1),
			Universe: nastyString(rng),
			Name:     nastyString(rng),
		},
		I: interestingInts[rng.Intn(len(interestingInts))],
		S: nastyString(rng),
	}
	switch rng.Intn(3) {
	case 0:
		v.Set = math.MaxUint64
	case 1:
		v.Set = rng.Uint64()
	}
	return v
}

func encoderOutput(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAppendMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	check := func(res IntrospectResponse) {
		t.Helper()
		// A dirty prefix proves the appender appends and never looks back.
		got := appendIntrospectResponse([]byte("prefix"), &res)[len("prefix"):]
		if want := encoderOutput(t, res); !bytes.Equal(got, want) {
			t.Fatalf("%+v:\nappender %q\n encoder %q", res, got, want)
		}
	}
	check(IntrospectResponse{})
	check(IntrospectResponse{Active: true})
	for _, k := range []value.Kind{value.KindInt, value.KindString, value.KindSet, value.KindObject} {
		check(IntrospectResponse{Active: true, Args: []value.Value{{T: value.Type{Kind: k}, I: -42, Set: math.MaxUint64}}})
	}
	check(IntrospectResponse{Active: true, Args: []value.Value{value.Int(-1), value.Str("s"), value.MustSet("rwx", "rx"), value.Object("Login.userid", "dm")}})
	for i := 0; i < 5000; i++ {
		res := IntrospectResponse{
			Active:   rng.Intn(4) != 0,
			Issuer:   nastyString(rng),
			Rolefile: nastyString(rng),
			Roles:    nastyStrings(rng),
			Client:   nastyString(rng),
			Exp:      interestingInts[rng.Intn(len(interestingInts))],
			Iat:      interestingInts[rng.Intn(len(interestingInts))],
		}
		switch n := rng.Intn(5); n {
		case 0:
		case 1:
			res.Args = []value.Value{}
		default:
			for ; n > 1; n-- {
				res.Args = append(res.Args, nastyValue(rng))
			}
		}
		check(res)
	}

	// A token response nests a certificate: two more strings, two
	// instants and a signature the encoder has its own mind about.
	checkToken := func(res TokenResponse) {
		t.Helper()
		out, ok := appendTokenResponse([]byte("prefix"), &res)
		var want bytes.Buffer
		err := json.NewEncoder(&want).Encode(res)
		if ok != (err == nil) {
			t.Fatalf("%+v cert %+v: appender ok=%v, encoder %v", res, res.Cert, ok, err)
		}
		if got := out[len("prefix"):]; ok && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%+v cert %+v:\nappender %q\n encoder %q", res, res.Cert, got, want.Bytes())
		}
	}
	checkToken(TokenResponse{})
	checkToken(TokenResponse{Roles: []string{}, Args: []value.Value{}, Cert: &cert.RMC{}})
	checkToken(TokenResponse{Cert: &cert.RMC{Args: []value.Value{}, Sig: []byte{}}})
	for _, at := range nastyTimes {
		checkToken(TokenResponse{Cert: &cert.RMC{Expiry: at}})
		checkToken(TokenResponse{Cert: &cert.RMC{Client: ids.ClientID{BootTime: at}}})
	}
	nastyArgs := func() []value.Value {
		switch n := rng.Intn(5); n {
		case 0:
			return nil
		case 1:
			return []value.Value{}
		default:
			out := make([]value.Value, n-1)
			for i := range out {
				out[i] = nastyValue(rng)
			}
			return out
		}
	}
	for i := 0; i < 5000; i++ {
		res := TokenResponse{
			Token:     nastyString(rng),
			TokenType: nastyString(rng),
			ExpiresIn: interestingInts[rng.Intn(len(interestingInts))],
			Issuer:    nastyString(rng),
			Rolefile:  nastyString(rng),
			Roles:     nastyStrings(rng),
			Args:      nastyArgs(),
		}
		if rng.Intn(8) != 0 {
			res.Cert = &cert.RMC{
				Service:  nastyString(rng),
				Rolefile: nastyString(rng),
				Roles:    cert.RoleSet(rng.Uint64() >> uint(rng.Intn(64))),
				Args:     nastyArgs(),
				Client:   ids.ClientID{Host: nastyString(rng), ID: rng.Uint64() >> uint(rng.Intn(64)), BootTime: nastyTimes[rng.Intn(len(nastyTimes))]},
				CRR:      credrec.Ref{Index: rng.Uint32() >> uint(rng.Intn(32)), Magic: rng.Uint32() >> uint(rng.Intn(32))},
				Expiry:   nastyTimes[rng.Intn(len(nastyTimes))],
			}
			if n := rng.Intn(40); n > 0 { // nil, and — never from make — empty
				res.Cert.Sig = make([]byte, n-1)
				rng.Read(res.Cert.Sig)
			}
		}
		checkToken(res)
	}

	for _, res := range []RevokeResponse{{OK: true}, {OK: false}} {
		if got, want := appendRevokeResponse(nil, res), encoderOutput(t, res); !bytes.Equal(got, want) {
			t.Errorf("%+v: appender %q, encoder %q", res, got, want)
		}
	}
}

// TestCanonicalToken pins the recogniser's edges by name; the fuzzer
// proves the equivalence, this says which side of the line a body is.
func TestCanonicalToken(t *testing.T) {
	for body, want := range map[string]string{
		`{"token":"abc"}`:                   "abc",
		" {\t\"token\"\n:\r\"a b<>&'/\" } ": "a b<>&'/",
		`{"token":""}`:                      "",
		`{"Token":"abc"}`:                   "",
		`{"token":"a\u0062c"}`:              "",
		`{"token":"a\"c"}`:                  "",
		"{\"token\":\"a\x7fc\"}":            "",
		"{\"token\":\"a\x1fc\"}":            "",
		"{\"token\":\"a\xc3\xa9c\"}":        "",
		`{"token":"abc"}x`:                  "",
		`{"token":"abc","token":"d"}`:       "",
		`{"token":"abc"`:                    "",
		`{"token":"abc`:                     "",
		`{"token":`:                         "",
		`{"token"`:                          "",
		`{`:                                 "",
		``:                                  "",
		`"abc"`:                             "",
		`{"token" "abc"}`:                   "",
		"\v{\"token\":\"abc\"}":             "",
		"{\"token\":\"abc\"}\u00a0":         "",
	} {
		tok, ok := canonicalToken([]byte(body))
		if string(tok) != want || ok != (want != "") {
			t.Errorf("canonicalToken(%q) = %q, %v; want %q", body, tok, ok, want)
		}
	}
}
