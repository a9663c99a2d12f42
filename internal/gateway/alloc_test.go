//go:build !race

package gateway

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"testing"
)

// Under the race detector sync.Pool drops buffers at random and the
// counts below stop repeating, so this file is built without it.

// bareResponse is a ResponseWriter that allocates nothing of its own.
type bareResponse struct {
	hdr    http.Header
	status int
}

func (w *bareResponse) Header() http.Header         { return w.hdr }
func (w *bareResponse) WriteHeader(status int)      { w.status = status }
func (w *bareResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestIssueAllocCeiling pins what one POST /v1/token allocates through
// Handler — the engine's role entry included, the HTTP server's own
// work excluded — at measured + 2, so a regression at this layer fails
// here and not in a benchmark three PRs later. Measured: 30 and 53
// (Handler reads a declared body without http.MaxBytesReader and
// copies the path into a pooled buffer), more than half of
// each inside Service.Enter and one this test's NopCloser; the
// credential's signature is checked in full on every request, and its
// HMAC sum is one of the 53.
func TestIssueAllocCeiling(t *testing.T) {
	w := newStormWorld(t)
	loggedOn, session, _ := stormBodies(t, w)
	for _, c := range []struct {
		name    string
		body    []byte
		ceiling float64
	}{
		{"LoggedOn, no credential", loggedOn, 32},
		{"Session, one credential", session, 55},
	} {
		h := w.login.Handler()
		body := bytes.NewReader(nil)
		req := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/v1/token"},
			ContentLength: int64(len(c.body)), RemoteAddr: "192.0.2.1:1234"}
		res := &bareResponse{hdr: make(http.Header)}
		got := testing.AllocsPerRun(500, func() {
			body.Reset(c.body)
			req.Body = io.NopCloser(body)
			h.ServeHTTP(res, req)
		})
		if res.status != http.StatusOK {
			t.Fatalf("%s: status %d", c.name, res.status)
		}
		t.Logf("%s: %.0f allocs", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs per request, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// repeatConn answers every read with one whole request and discards
// every write: a keep-alive client sending the same request forever.
type repeatConn struct {
	memConn
	req []byte
}

func (c *repeatConn) Read(p []byte) (int, error)  { return copy(p, c.req), nil }
func (c *repeatConn) Write(p []byte) (int, error) { return len(p), nil }

// TestLoopIntrospectAllocs pins what the serving loop allocates for one
// introspection of an active token in the generator's shape, the
// route's own work included, at measured + 2. Measured: 2, the role
// names and the client's text in the answer; the loop itself allocates
// nothing. net/http's server alone allocated about 22 objects per
// request here (E53), and the loop 2 more while it built net/http's
// request for the route.
func TestLoopIntrospectAllocs(t *testing.T) {
	g := fuzzGateway(t)
	s := g.server()
	s.fallback = func(net.Conn) { t.Fatal("the generator's request was handed off") }
	body := `{"token":"` + plainToken + `"}`
	nc := &repeatConn{req: []byte("POST /v1/introspect HTTP/1.1\r\nHost: 127.0.0.1:7480\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + body)}
	c := s.newConn(nc)
	serve := func() {
		n, ok := c.readHead()
		if !ok || !c.handle(n) {
			t.Fatal("the loop did not serve the request")
		}
	}
	serve()
	got := testing.AllocsPerRun(500, serve)
	if !bytes.Contains(c.out, []byte(`{"active":true`)) {
		t.Fatalf("not an active introspection:\n%s", c.out)
	}
	t.Logf("%.0f allocs", got)
	if got > 4 {
		t.Errorf("%.0f allocs per introspection, ceiling 4", got)
	}
}
