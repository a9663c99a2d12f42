//go:build !race

package gateway

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
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

// TestIssueAllocCeiling pins what one POST /v1/token allocates — the
// engine's role entry included, the HTTP server's own work excluded —
// at measured + 2, so a regression at this layer fails here and not in
// a benchmark three PRs later. Measured: 43 and 66, more than half of
// each inside Service.Enter and one this test's NopCloser; reading the
// same bodies through decode costs 16 and 20 more.
func TestIssueAllocCeiling(t *testing.T) {
	w := newStormWorld(t)
	loggedOn, session, _ := stormBodies(t, w)
	for _, c := range []struct {
		name    string
		body    []byte
		ceiling float64
	}{
		{"LoggedOn, no credential", loggedOn, 45},
		{"Session, one credential", session, 68},
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
