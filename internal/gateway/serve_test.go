package gateway_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"oasis/internal/clock"
	"oasis/internal/gateway"
	"oasis/internal/ids"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// Serve's loop against net/http over real sockets: the same bytes must
// get the same answers, and a slow client the same bounds.

// plainServer is the reference: net/http serving the gateway's handler
// with the bounds Serve applies.
func plainServer(gw *gateway.Gateway, head, request, write, idle time.Duration) *http.Server {
	return &http.Server{
		Handler:           gw.Handler(),
		ReadHeaderTimeout: head,
		ReadTimeout:       request,
		WriteTimeout:      write,
		IdleTimeout:       idle,
	}
}

// serveOn runs serve on a fresh loopback listener, wrapped by wrap if
// given, until the test ends, and returns its address.
func serveOn(t *testing.T, serve func(net.Listener) error, wrap func(net.Listener) net.Listener) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := ln
	if wrap != nil {
		served = wrap(ln)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = serve(served)
	}()
	t.Cleanup(func() { _ = ln.Close(); <-done })
	return ln.Addr().String()
}

var dateField = regexp.MustCompile(`\r\nDate: [^\r]*\r\n`)

// exchange sends segments on a new connection, pausing between them,
// and returns everything the server sent, its Date fields masked, and
// whether it closed the connection. The server is done when it closes
// or stays silent for a while.
func exchange(addr string, segments ...string) (out string, closed bool, err error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return "", false, err
	}
	defer conn.Close()
	for i, s := range segments {
		if i > 0 {
			time.Sleep(20 * time.Millisecond)
		}
		if _, err := io.WriteString(conn, s); err != nil {
			return "", false, err
		}
	}
	var got []byte
	buf := make([]byte, 4<<10)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(400 * time.Millisecond))
		n, err := conn.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			var ne net.Error
			timeout := errors.As(err, &ne) && ne.Timeout()
			return dateField.ReplaceAllString(string(got), "\r\nDate: *\r\n"), !timeout, nil
		}
	}
}

// clientPost renders a request as Go's http.Client sends it.
func clientPost(path string, body []byte) string {
	return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: gw\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: %d\r\nContent-Type: application/json\r\nAccept-Encoding: gzip\r\n\r\n%s", path, len(body), body)
}

// goldenRequests renders every request of the golden vectors, in file
// and vector order.
func goldenRequests(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden vectors: %v", err)
	}
	sort.Strings(files)
	var reqs []string
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
			t.Fatal(err)
		}
		for _, ex := range exchanges {
			body := []byte(ex.Request)
			var s string
			if json.Unmarshal(ex.Request, &s) == nil {
				body = []byte(s) // a body that is not JSON is kept as a string
			}
			reqs = append(reqs, clientPost(ex.Path, body))
		}
	}
	return reqs
}

// TestLoopMatchesNetHTTP sends the same bytes to Serve and to a plain
// http.Server, each over its own deterministic world, and requires the
// same status lines, fields (Date's value aside), bodies and
// connection fate: every golden request pipelined on one connection,
// under each admission outcome; the generator's, Go's and curl's heads;
// every head the loop declines, alone and behind a recognised request;
// heads and bodies split across writes; bodies a route leaves unread.
func TestLoopMatchesNetHTTP(t *testing.T) {
	golden := goldenRequests(t)
	token := `{"token":"0123456789abcdef0123456789abcdef"}`
	cases := map[string][]string{
		"golden pipelined": {strings.Join(golden, "")},
		"golden then close": {strings.Join(golden, "") +
			"POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nConnection: close\r\nContent-Length: 44\r\n\r\n" + token + clientPost("/v1/introspect", []byte(token))},
		"split head":      {"POST /v1/introspect HTTP/1.1\r\nHo", "st: gw\r\nContent-Length: 44\r\n\r\n" + token},
		"split body":      {"POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nContent-Length: 44\r\n\r\n{\"tok", token[5:] + clientPost("/v1/healthz", nil)},
		"CRLF between":    {clientPost("/v1/introspect", []byte(token)) + "\r\n" + clientPost("/v1/revoke", []byte(token))},
		"unread body":     {clientPost("/v1/healthz", []byte(token)) + clientPost("/v1/nowhere", []byte(token)) + clientPost("/v1/introspect", []byte(token))},
		"unread, split":   {clientPost("/v1/healthz", []byte(token))[:170], clientPost("/v1/healthz", []byte(token))[170:]},
		"empty body":      {clientPost("/v1/introspect", nil) + clientPost("/v1/token", nil)},
		"keep-alive":      {strings.Replace(clientPost("/v1/introspect", []byte(token)), "Accept-Encoding", "Connection: keep-alive\r\nAccept-Encoding", 1)},
		"short then gone": {"POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nContent-Length: 44\r\n\r\n{"},
	}
	for i, h := range gateway.ClientHeads {
		cases[fmt.Sprintf("client head %d", i)] = []string{h + token + h + token}
	}
	for name, h := range gateway.DeclinedHeads {
		cases["declined: "+name] = []string{h}
		cases["recognised, then declined: "+name] = []string{gateway.ClientHeads[0] + token + h}
	}
	worlds := map[string]gateway.Options{
		"admitted":     {},
		"rate limited": {RatePerSec: 1, Burst: 2},
		"saturated":    {Pressure: func() int { return 99 }, PressureLimit: 10},
	}
	// Every exchange waits out a silence at its end: run them all at
	// once.
	var wg sync.WaitGroup
	for wname, opts := range worlds {
		for name, segments := range cases {
			if wname != "admitted" && !strings.HasPrefix(name, "golden") {
				continue
			}
			loop, ref := newWorld(t, opts), newWorld(t, opts)
			for _, w := range []*world{loop, ref} {
				w.logOn(w.client("cam"), "dm")
			}
			loopAddr := serveOn(t, loop.gw.Serve, nil)
			refAddr := serveOn(t, plainServer(ref.gw, 5*time.Second, 15*time.Second, 25*time.Second, 2*time.Minute).Serve, nil)
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got, want string
				var gotClosed, wantClosed bool
				var errs [2]error
				var both sync.WaitGroup
				both.Add(2)
				go func() { defer both.Done(); got, gotClosed, errs[0] = exchange(loopAddr, segments...) }()
				go func() { defer both.Done(); want, wantClosed, errs[1] = exchange(refAddr, segments...) }()
				both.Wait()
				switch {
				case errs[0] != nil || errs[1] != nil:
					t.Errorf("%s/%s: %v", wname, name, errors.Join(errs[:]...))
				case got != want || gotClosed != wantClosed:
					t.Errorf("%s/%s: loop (closed %v):\n%s\nnet/http (closed %v):\n%s", wname, name, gotClosed, got, wantClosed, want)
				}
			}()
		}
	}
	wg.Wait()
}

// smallBuffers gives every accepted connection a small send buffer, so
// a client that does not read blocks the server's writes quickly. The
// requests' direction keeps its buffers: a tiny receive window stalls
// a sender on TCP's persist timer, not on the application.
type smallBuffers struct{ net.Listener }

func (l smallBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

func wrapSmall(ln net.Listener) net.Listener { return smallBuffers{ln} }

// dialSmall dials addr with a small receive buffer, set before the
// connection exists: TCP never takes back a window it advertised.
func dialSmall(t *testing.T, addr string) *net.TCPConn {
	t.Helper()
	d := net.Dialer{Control: func(_, _ string, raw syscall.RawConn) error {
		var err error
		if cerr := raw.Control(func(fd uintptr) {
			err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4<<10)
		}); cerr != nil {
			return cerr
		}
		return err
	}}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c.(*net.TCPConn)
}

// notesGateway serves a policy whose one role takes any string, and
// bigIssue is an issuance at it whose response — the argument twice,
// once in the certificate — is far larger than a small socket buffer:
// a client that does not read it blocks the server's write.
func notesGateway(t *testing.T) (svc *oasis.Service, gw *gateway.Gateway, bigIssue []byte) {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(1000, 0))
	svc, err := oasis.New("Notes", clk, nil, oasis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddRolefile("main", "def Note(s) s: string\nNote(s) <-\n"); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(gateway.TokenRequest{
		Client: ids.NewHostAuthority("ely", clk.Now()).NewDomain(), Rolefile: "main", Role: "Note",
		Args: []value.Value{value.Str(strings.Repeat("n", 12<<10))},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc, gateway.New(svc, gateway.Options{Rand: &seqReader{}}), []byte(clientPost("/v1/token", body))
}

// awaitClose waits for the server to close c and returns when it did.
// reading says whether the client may read: one that never reads
// probes with writes, which fail once the server has reset the
// connection.
func awaitClose(t *testing.T, c net.Conn, reading bool, req []byte) time.Time {
	t.Helper()
	buf := make([]byte, 4<<10)
	for start := time.Now(); time.Since(start) < 10*time.Second; {
		var err error
		if reading {
			_ = c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			_, err = c.Read(buf)
		} else {
			_ = c.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
			_, err = c.Write(req)
		}
		var ne net.Error
		if err != nil && !(errors.As(err, &ne) && ne.Timeout()) {
			return time.Now()
		}
	}
	t.Fatal("the connection was never closed")
	return time.Time{}
}

// TestSlowClientBounds pins the four bounds a slow client meets — a
// head trickled a byte at a time, a body likewise, a keep-alive
// connection left idle, and a client that never reads its responses —
// on Serve and on a plain http.Server given the same, shortened, bounds.
// Each closes the connection one to two bounds after the bound began.
func TestSlowClientBounds(t *testing.T) {
	const (
		head    = 300 * time.Millisecond
		request = 600 * time.Millisecond
		write   = 400 * time.Millisecond
		idle    = 500 * time.Millisecond
		slack   = 500 * time.Millisecond
	)
	introspect := []byte(clientPost("/v1/introspect", []byte(`{"token":"x"}`)))
	_, _, bigIssue := notesGateway(t)
	trickle := func(c net.Conn, first string, rest string, every time.Duration) {
		_, _ = io.WriteString(c, first)
		go func() {
			for i := range len(rest) {
				time.Sleep(every)
				if _, err := io.WriteString(c, rest[i:i+1]); err != nil {
					return
				}
			}
		}()
	}
	cases := []struct {
		name  string
		bound time.Duration
		least time.Duration // the shortest close that still honours the bound
		run   func(t *testing.T, c *net.TCPConn) (began, closed time.Time)
	}{
		{"header trickle", head, head - 50*time.Millisecond, func(t *testing.T, c *net.TCPConn) (time.Time, time.Time) {
			began := time.Now()
			trickle(c, "POST /v1/introspect HTTP/1.1\r\n", "Host: gw\r\nContent-Length: 13\r\n\r\n{\"token\":\"x\"}", head/10)
			return began, awaitClose(t, c, true, nil)
		}},
		{"slow body", request, request - 50*time.Millisecond, func(t *testing.T, c *net.TCPConn) (time.Time, time.Time) {
			began := time.Now()
			trickle(c, "POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nContent-Length: 40\r\n\r\n{\"", `token":"xxxxxxxxxxxxxxxxxxxxxxxxxxxx"}`, request/10)
			return began, awaitClose(t, c, true, nil)
		}},
		{"idle keep-alive", idle, idle - 50*time.Millisecond, func(t *testing.T, c *net.TCPConn) (time.Time, time.Time) {
			if _, err := c.Write(introspect); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(bufio.NewReader(c), nil)
			if err != nil {
				t.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			began := time.Now()
			return began, awaitClose(t, c, true, nil)
		}},
		{"never reads", write, write - 50*time.Millisecond, func(t *testing.T, c *net.TCPConn) (time.Time, time.Time) {
			if _, err := c.Write(bigIssue); err != nil {
				t.Fatal(err)
			}
			began := time.Now()
			return began, awaitClose(t, c, false, introspect)
		}},
	}
	servers := map[string]func(*gateway.Gateway) func(net.Listener) error{
		"loop": func(gw *gateway.Gateway) func(net.Listener) error {
			gw.SetServeBounds(head, request, write, idle)
			return gw.Serve
		},
		"net/http": func(gw *gateway.Gateway) func(net.Listener) error {
			return plainServer(gw, head, request, write, idle).Serve
		},
	}
	for sname, serve := range servers {
		for _, tc := range cases {
			t.Run(sname+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				_, gw, _ := notesGateway(t)
				addr := serveOn(t, serve(gw), wrapSmall)
				began, closed := tc.run(t, dialSmall(t, addr))
				if d := closed.Sub(began); d < tc.least || d > 2*tc.bound+slack {
					t.Fatalf("closed %v after the bound began; bound %v", d.Round(time.Millisecond), tc.bound)
				}
			})
		}
	}
}

// TestServeReturnsWhenClosedAtCap: a listener closed while every slot
// is held by an idle keep-alive connection still ends Serve promptly.
// Serve used to wait for a slot before it called Accept again, and so
// for the idle bound, two minutes.
func TestServeReturnsWhenClosedAtCap(t *testing.T) {
	w := newWorld(t, gateway.Options{MaxConns: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.gw.Serve(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, clientPost("/v1/healthz", nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := http.ReadResponse(bufio.NewReader(conn), nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // Serve is back at the cap
	_ = ln.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("Serve returned %v, want the listener's closure", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Serve still running 1 s after its listener closed at the cap")
	}
}

// TestConnectionCapAcrossHandOff: a connection handed to net/http keeps
// its one slot until net/http closes it.
func TestConnectionCapAcrossHandOff(t *testing.T) {
	w := newWorld(t, gateway.Options{MaxConns: 1})
	addr := serveOn(t, w.gw.Serve, nil)
	first, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	// A GET is net/http's; the connection stays open behind it.
	if _, err := io.WriteString(first, "GET /v1/healthz HTTP/1.1\r\nHost: gw\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.ReadResponse(bufio.NewReader(first), nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("handed-off request: %v", err)
	}
	second, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if _, err := io.WriteString(second, clientPost("/v1/healthz", nil)); err != nil {
		t.Fatal(err)
	}
	_ = second.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, err := second.Read(make([]byte, 1)); err == nil {
		t.Fatal("second connection served while the handed-off one held the cap")
	}
	_ = first.Close()
	_ = second.SetReadDeadline(time.Now().Add(5 * time.Second))
	if resp, err := http.ReadResponse(bufio.NewReader(second), nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("second connection after the handed-off one closed: %v", err)
	}
}

// TestDroppedWritesCountedOnSocket: on the loop a response leaves in
// one socket write, and a write the client reset counts once.
func TestDroppedWritesCountedOnSocket(t *testing.T) {
	svc, gw, bigIssue := notesGateway(t)
	c := dialSmall(t, serveOn(t, gw.Serve, wrapSmall))
	if _, err := c.Write(bigIssue); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the response's write is blocked
	if n := gatewayCount(svc, "dropped_writes"); n != 0 {
		t.Fatalf("%d dropped writes before the client left", n)
	}
	_ = c.SetLinger(0)
	_ = c.Close() // a reset, the response unread
	deadline := time.Now().Add(5 * time.Second)
	for gatewayCount(svc, "dropped_writes") == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if n := gatewayCount(svc, "dropped_writes"); n != 1 {
		t.Fatalf("%d dropped writes counted, want the one blocked response", n)
	}
}

// flakyListener fails its first Accepts with a temporary error.
type flakyListener struct {
	net.Listener
	mu    sync.Mutex
	fails int
}

type temporaryError struct{}

func (temporaryError) Error() string   { return "accept: too many open files" }
func (temporaryError) Timeout() bool   { return false }
func (temporaryError) Temporary() bool { return true }

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fails > 0 {
		l.fails--
		return nil, temporaryError{}
	}
	return l.Listener.Accept()
}

// TestServeRetriesTemporaryAcceptErrors: a temporary Accept error backs
// off, 5 ms doubling, and serving goes on.
func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	defer log.SetOutput(log.Writer())
	var logged bytes.Buffer
	var mu sync.Mutex
	log.SetOutput(writerFunc(func(p []byte) (int, error) { mu.Lock(); defer mu.Unlock(); return logged.Write(p) }))
	w := newWorld(t, gateway.Options{})
	start := time.Now()
	addr := serveOn(t, w.gw.Serve, func(ln net.Listener) net.Listener { return &flakyListener{Listener: ln, fails: 3} })
	got, _, err := exchange(addr, clientPost("/v1/healthz", nil))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "HTTP/1.1 200 OK\r\n") {
		t.Fatalf("after the accept errors: %q", got)
	}
	if d := time.Since(start); d < 35*time.Millisecond {
		t.Fatalf("served after %v: the three retries back off 5+10+20 ms", d)
	}
	mu.Lock()
	defer mu.Unlock()
	if n := strings.Count(logged.String(), "http: Accept error: accept: too many open files; retrying in"); n != 3 {
		t.Fatalf("%d accept errors logged, want 3:\n%s", n, logged.String())
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
