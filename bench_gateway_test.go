// Federation-gateway benchmarks (E33): the HTTP front must not become
// the bottleneck of the engine it fronts. These drive the full deployed
// handler stack — route switch, rate-limit/backpressure guard, body
// scan (decode for what the scanner declines), engine call, token
// store, response append — through httptest, at the three hot paths:
// token issuance (role entry), introspection (live validation; the path
// clients hammer to honour revocations) and revocation. Run with `-cpu
// 1,4,8`; `make bench-gateway` prints the suite as test2json
// (BENCH_9.json is its PR 9 recording, frozen).
package benchmarks

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"oasis/internal/clock"
	"oasis/internal/gateway"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

const benchGatewayRolefile = `
def LoggedOn(u, h) u: Login.userid h: Login.host
LoggedOn(u, h) <-
`

// newBenchGateway builds a gateway over a self-certifying service with
// the guard rails disabled (no rate limit, no backpressure) so the
// numbers isolate the request path itself.
func newBenchGateway(b *testing.B) (*gateway.Gateway, ids.ClientID) {
	b.Helper()
	clk := clock.Real()
	svc, err := oasis.New("Login", clk, nil, oasis.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.AddRolefile("main", benchGatewayRolefile); err != nil {
		b.Fatal(err)
	}
	gw := gateway.New(svc, gateway.Options{})
	return gw, ids.NewHostAuthority("bench", clk.Now()).NewDomain()
}

func benchGatewayPost(h http.Handler, path string, raw []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func benchIssueBody(b *testing.B, c ids.ClientID) []byte {
	b.Helper()
	raw, err := json.Marshal(gateway.TokenRequest{
		Client: c, Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{
			value.Object("Login.userid", "u"),
			value.Object("Login.host", "bench"),
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// BenchmarkGatewayIssue measures POST /v1/token: JSON decode, role
// entry through the compiled RDL plan, credential-record insert, token
// mint and the response encode.
func BenchmarkGatewayIssue(b *testing.B) {
	gw, c := newBenchGateway(b)
	h := gw.Handler()
	raw := benchIssueBody(b, c)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if rec := benchGatewayPost(h, "/v1/token", raw); rec.Code != http.StatusOK {
				b.Fatalf("issue: status %d body %s", rec.Code, rec.Body.String())
			}
		}
	})
}

// BenchmarkGatewayIntrospect measures POST /v1/introspect on a live
// token: every call re-validates against the credential store — the
// gateway caches nothing — so this is the cost clients pay to see
// revocations immediately.
func BenchmarkGatewayIntrospect(b *testing.B) {
	gw, c := newBenchGateway(b)
	h := gw.Handler()
	rec := benchGatewayPost(h, "/v1/token", benchIssueBody(b, c))
	if rec.Code != http.StatusOK {
		b.Fatalf("setup issue: status %d", rec.Code)
	}
	var issued gateway.TokenResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &issued); err != nil {
		b.Fatal(err)
	}
	raw, err := json.Marshal(gateway.IntrospectRequest{Token: issued.Token})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if rec := benchGatewayPost(h, "/v1/introspect", raw); rec.Code != http.StatusOK {
				b.Fatalf("introspect: status %d", rec.Code)
			}
		}
	})
}

// BenchmarkGatewayRevoke measures the issue→revoke round trip: each
// iteration mints a fresh token and revokes it (a revocation is a
// one-shot operation, so a pure-revoke loop would only measure the
// idempotent already-revoked path). Subtract BenchmarkGatewayIssue for
// the marginal revocation cost.
func BenchmarkGatewayRevoke(b *testing.B) {
	gw, c := newBenchGateway(b)
	h := gw.Handler()
	issueRaw := benchIssueBody(b, c)
	var revoked atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec := benchGatewayPost(h, "/v1/token", issueRaw)
			if rec.Code != http.StatusOK {
				b.Fatalf("issue: status %d", rec.Code)
			}
			var issued gateway.TokenResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &issued); err != nil {
				b.Fatal(err)
			}
			raw, err := json.Marshal(gateway.RevokeRequest{Token: issued.Token})
			if err != nil {
				b.Fatal(err)
			}
			if rec := benchGatewayPost(h, "/v1/revoke", raw); rec.Code != http.StatusOK {
				b.Fatalf("revoke: status %d body %s", rec.Code, rec.Body.String())
			}
			revoked.Add(1)
		}
	})
	if gw.TokenCount() != 0 {
		b.Fatalf("token store leaked: %d live after %d revocations", gw.TokenCount(), revoked.Load())
	}
}
