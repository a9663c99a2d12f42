package gateway

import (
	"bufio"
	"bytes"
	"context"
	"expvar"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The serving loop may answer a request only when net/http would have
// read it the same way, and must hand everything else to net/http
// intact. The socket-level differential (TestLoopMatchesNetHTTP) lives
// with the other Serve tests; these drive the loop over an in-memory
// connection.

// Request heads the loop must recognise: the benchmark generator's,
// Go's http.Client's and curl's, as each writes them.
var clientHeads = []string{
	"POST /v1/introspect HTTP/1.1\r\nHost: 127.0.0.1:7480\r\nContent-Type: application/json\r\nContent-Length: 44\r\n\r\n",
	"POST /v1/introspect HTTP/1.1\r\nHost: 127.0.0.1:7480\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: 44\r\nContent-Type: application/json\r\nAccept-Encoding: gzip\r\n\r\n",
	"POST /v1/token HTTP/1.1\r\nHost: localhost:8080\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: 44\r\n\r\n",
	"POST /v1/revoke HTTP/1.1\r\nHost: [::1]:8080\r\nConnection: close\r\nContent-Length: 44\r\n\r\n",
}

// Heads the loop must leave to net/http, each for the reason named.
var declinedHeads = map[string]string{
	"GET":                "GET /v1/healthz HTTP/1.1\r\nHost: gw\r\n\r\n",
	"HTTP/1.0":           "POST /v1/introspect HTTP/1.0\r\nHost: gw\r\nContent-Length: 2\r\n\r\n{}",
	"chunked":            "POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
	"TE with CL":         "POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
	"Expect":             "POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n{}",
	"duplicate CL":       "POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
	"obs-fold":           "POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nUser-Agent: a\r\n b\r\nContent-Length: 2\r\n\r\n{}",
	"unknown header":     "POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nX-Trace: 1\r\nContent-Length: 2\r\n\r\n{}",
	"lowercase header":   "POST /v1/introspect HTTP/1.1\r\nhost: gw\r\nContent-Length: 2\r\n\r\n{}",
	"percent in path":    "POST /v1/intro%73pect HTTP/1.1\r\nHost: gw\r\nContent-Length: 2\r\n\r\n{}",
	"query in path":      "POST /v1/introspect?x=1 HTTP/1.1\r\nHost: gw\r\nContent-Length: 2\r\n\r\n{}",
	"no Host":            "POST /v1/introspect HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
	"no Content-Length":  "POST /v1/introspect HTTP/1.1\r\nHost: gw\r\n\r\n",
	"leading zero CL":    "POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nContent-Length: 02\r\n\r\n{}",
	"CL past the window": "POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nContent-Length: 16385\r\n\r\n{}",
	"Connection: other":  "POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nConnection: Upgrade\r\nContent-Length: 2\r\n\r\n{}",
	"bare LF":            "POST /v1/introspect HTTP/1.1\nHost: gw\nContent-Length: 2\n\n{}",
	"tab in value":       "POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nUser-Agent:\tx\r\nContent-Length: 2\r\n\r\n{}",
	"oversized head":     "POST /v1/introspect HTTP/1.1\r\nHost: gw\r\nUser-Agent: " + strings.Repeat("a", connBufSize) + "\r\nContent-Length: 2\r\n\r\n{}",
	"garbage":            "\x16\x03\x01\x02\x00\x01\x00\x01\xfc\x03\x03",
}

func TestParseHeadShapes(t *testing.T) {
	var h head
	for _, text := range clientHeads {
		if n, _ := parseHead([]byte(text), &h); n != len(text) {
			t.Errorf("not recognised: %q", text)
		}
		// Every proper prefix is still a possible head.
		for i := range text {
			if n, more := parseHead([]byte(text[:i]), &h); n != 0 || !more {
				t.Errorf("prefix %q: n=%d more=%v, want 0 and more", text[:i], n, more)
			}
		}
	}
	for name, text := range declinedHeads {
		b := []byte(text)
		if len(b) > connBufSize {
			b = b[:connBufSize]
		}
		if n, more := parseHead(b, &h); n != 0 || more && len(b) < connBufSize {
			t.Errorf("%s: n=%d more=%v, want declined", name, n, more)
		}
	}
}

// memConn is a connection whose peer sent input and then closed: Read
// hands it out in the chunk sizes given (cycling), then io.EOF.
type memConn struct {
	in     []byte
	chunks []int
	reads  int
	out    bytes.Buffer
	closed bool
}

func (c *memConn) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if len(c.chunks) > 0 {
		n = min(n, c.chunks[c.reads%len(c.chunks)])
	}
	c.reads++
	n = copy(p, c.in[:min(n, len(c.in))])
	c.in = c.in[n:]
	return n, nil
}

func (c *memConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *memConn) Close() error                     { c.closed = true; return nil }
func (c *memConn) LocalAddr() net.Addr              { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 80} }
func (c *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 2), Port: 4242} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// seenRequest is what decides what a route reads and how the
// connection is framed.
type seenRequest struct {
	Method, Proto           string
	ProtoMajor, ProtoMinor  int
	Path, RawPath, RawQuery string
	ContentLength           int64
	TransferEncoding        []string
	Close                   bool
	Body                    string
	BodyErr                 bool // the body ended short
}

// see is what net/http's reading of a request decides.
func see(r *http.Request, body []byte, err error) seenRequest {
	return seenRequest{
		Method: r.Method, Proto: r.Proto, ProtoMajor: r.ProtoMajor, ProtoMinor: r.ProtoMinor,
		Path: r.URL.Path, RawPath: r.URL.RawPath, RawQuery: r.URL.RawQuery,
		ContentLength: r.ContentLength, TransferEncoding: r.TransferEncoding, Close: r.Close,
		Body: string(body), BodyErr: err != nil,
	}
}

// runLoop serves input over a memConn split into chunks, recording what
// the loop decided of each request it served — the route's request, the
// framing it parsed — and what net/http was handed.
func runLoop(t *testing.T, input []byte, chunks []int) (seen []seenRequest, handed []byte, wasHanded bool, out []byte) {
	nc := &memConn{in: input, chunks: chunks}
	var c *conn
	s := &server{
		bounds: defaultBounds,
		route: func(in *request, out *reply) {
			seen = append(seen, seenRequest{
				Method: in.method, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
				Path: string(in.path), ContentLength: c.h.clen, Close: c.h.close,
				Body: string(in.body), BodyErr: in.err != nil,
			})
			out.status = http.StatusOK
			out.body = append(out.body, in.path...)
		},
		fallback: func(c net.Conn) {
			wasHanded = true
			var err error
			if handed, err = io.ReadAll(c); err != nil {
				t.Fatalf("reading the handed-off connection: %v", err)
			}
		},
		vars: new(expvar.Map),
	}
	c = s.newConn(nc)
	c.serve()
	if s.vars.Get("dropped_writes") != nil {
		t.Fatal("a write to memory failed")
	}
	return seen, handed, wasHanded, nc.out.Bytes()
}

// checkLoop holds one run of the loop to net/http's reading of the same
// bytes: each request the loop served is the one http.ReadRequest reads
// at that point of the stream — same method, path, framing and body —
// and what net/http was handed is exactly the rest.
func checkLoop(t *testing.T, input []byte, chunks []int) {
	t.Helper()
	seen, handed, wasHanded, _ := runLoop(t, input, chunks)
	br := bufio.NewReaderSize(bytes.NewReader(input), 2*len(input)+16)
	for i, got := range seen {
		req, err := http.ReadRequest(br)
		if err != nil {
			t.Fatalf("request %d: the loop served it, http.ReadRequest refuses it: %v", i, err)
		}
		body, err := io.ReadAll(req.Body)
		if want := see(req, body, err); !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d:\n loop     %+v\n net/http %+v", i, got, want)
		}
		// net/http skips up to four CR/LF bytes after a POST.
		peek, _ := br.Peek(4)
		n := 0
		for n < len(peek) && (peek[n] == '\r' || peek[n] == '\n') {
			n++
		}
		_, _ = br.Discard(n)
	}
	rest, _ := io.ReadAll(br)
	if wasHanded && !bytes.Equal(handed, rest) {
		t.Fatalf("net/http was handed %q, want %q", handed, rest)
	}
	if !wasHanded && len(rest) > 0 && (len(seen) == 0 || !seen[len(seen)-1].Close) {
		// The loop closed without handing off or being asked to: only
		// a timeout does that, and a memConn has no deadlines.
		t.Fatalf("%d bytes neither served nor handed off: %q", len(rest), rest)
	}
}

// longBody is a recognised request whose body is n bytes long.
func longBody(n int) string {
	return fmt.Sprintf("POST /v1/token HTTP/1.1\r\nHost: gw\r\nContent-Length: %d\r\n\r\n%s", n, strings.Repeat("b", n))
}

// cutHealthz is a request to a route that ignores its body, the body
// cut short by the client.
const cutHealthz = "POST /v1/healthz HTTP/1.1\r\nHost: gw\r\nContent-Length: 44\r\n\r\n{\"tok"

func TestLoopReadsAsNetHTTP(t *testing.T) {
	body := `{"token":"0123456789abcdef0123456789abcdef"}`
	var all []string
	for _, h := range clientHeads {
		all = append(all, h+body)
	}
	pipelined := strings.Join(all, "") + "\r\n" + all[0]
	// Bodies longer than the loop's buffer, up to its window, alone and
	// behind and ahead of other requests; a head that ends 20 bytes short
	// of the buffer's end, its body across it; a body cut short.
	pre := connBufSize - len(clientHeads[0]) - 20
	straddle := longBody(pre-len(longBody(1000))+1000) + all[0]
	bodies := []string{
		longBody(connBufSize + 1), longBody(maxCanonicalBody),
		all[0] + longBody(maxCanonicalBody) + all[1], longBody(connBufSize-100) + all[0], straddle,
		cutHealthz, all[0] + cutHealthz,
	}
	for _, chunks := range [][]int{nil, {1}, {7}, {100, 3}} {
		for _, in := range append(all, bodies...) {
			checkLoop(t, []byte(in), chunks)
		}
		checkLoop(t, []byte(pipelined), chunks)
		for _, in := range declinedHeads {
			checkLoop(t, []byte(in), chunks)
			checkLoop(t, []byte(all[0]+in), chunks)
		}
	}
	seen, _, wasHanded, out := runLoop(t, []byte(pipelined), nil)
	if len(seen) != len(all) || wasHanded {
		// The fourth asks to close: the loop answers it and stops.
		t.Fatalf("served %d, handed off %v; want %d served and no hand-off", len(seen), wasHanded, len(all))
	}
	if n := bytes.Count(out, []byte("HTTP/1.1 200 OK\r\n")); n != len(seen) {
		t.Fatalf("%d responses written for %d requests:\n%s", n, len(seen), out)
	}
	if !bytes.HasSuffix(out, []byte("Connection: close\r\n\r\n/v1/revoke")) {
		t.Fatalf("the closing request's response does not say so:\n%s", out)
	}
	// A buffer grown for a long body still takes no head over 4 KiB.
	if _, _, wasHanded, _ := runLoop(t, []byte(longBody(maxCanonicalBody)+declinedHeads["oversized head"]), nil); !wasHanded {
		t.Fatal("an oversized head behind a long body was not handed off")
	}
	// The cut body is answered, and the connection then ends at the
	// client's EOF, with no field saying so: net/http's reading too.
	seen, _, wasHanded, out = runLoop(t, []byte(cutHealthz), nil)
	if len(seen) != 1 || !seen[0].BodyErr || wasHanded || bytes.Count(out, []byte("HTTP/1.1 ")) != 1 ||
		bytes.Contains(out, []byte("Connection: close")) {
		t.Fatalf("cut body: served %+v, handed off %v, wrote:\n%s", seen, wasHanded, out)
	}
}

// FuzzServeConn: on any bytes, in any read sizes, the loop never
// panics, every request it serves is the one http.ReadRequest reads
// there, and a connection it declines reaches net/http with the rest of
// the bytes intact.
func FuzzServeConn(f *testing.F) {
	body := `{"token":"0123456789abcdef0123456789abcdef"}`
	for _, h := range clientHeads {
		f.Add([]byte(h+body+h+body), uint8(0))
	}
	for _, in := range declinedHeads {
		f.Add([]byte(clientHeads[0]+body+"\n\r"+in), uint8(5))
	}
	f.Add([]byte("POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n\r\n\r\n\r\nPOST /b HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\n\r\nz"), uint8(3))
	f.Add([]byte(clientHeads[0]+body+longBody(maxCanonicalBody)+clientHeads[1]+body), uint8(1))
	f.Add([]byte(longBody(connBufSize+1)), uint8(7))
	f.Add([]byte(longBody(connBufSize-len(clientHeads[0])-78)+clientHeads[0]+body), uint8(0))
	f.Add([]byte(clientHeads[0]+body+cutHealthz), uint8(0))
	f.Fuzz(func(t *testing.T, input []byte, chunk uint8) {
		var chunks []int
		if chunk > 0 {
			chunks = []int{int(chunk), int(chunk)/3 + 1}
		}
		checkLoop(t, input, chunks)
	})
}

// TestLoopPanicClosesConnection: a route's panic is logged as net/http
// logs it, nothing is written, and the connection closes.
func TestLoopPanicClosesConnection(t *testing.T) {
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	s := &server{
		bounds:   defaultBounds,
		route:    func(*request, *reply) { panic("boom") },
		fallback: func(net.Conn) { t.Fatal("handed off") },
		vars:     new(expvar.Map),
	}
	nc := &memConn{in: []byte("POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")}
	s.serveConn(nc)
	if !nc.closed || nc.out.Len() != 0 {
		t.Fatalf("after a panic: closed %v, wrote %q", nc.closed, nc.out.Bytes())
	}
	if !strings.Contains(logged.String(), "http: panic serving 127.0.0.2:4242: boom") {
		t.Fatalf("panic not logged: %q", logged.String())
	}
}

// TestGoClientStaysOnTheLoop: Go's http.Client, whatever head this
// release of its Transport writes, is served by the loop and never
// handed to net/http.
func TestGoClientStaysOnTheLoop(t *testing.T) {
	s := &server{
		bounds: defaultBounds,
		route: func(in *request, out *reply) {
			out.status = http.StatusOK
			out.body = append(out.body, in.body...)
		},
		fallback: func(net.Conn) { t.Error("Go's client was handed to net/http") },
		vars:     new(expvar.Map),
	}
	tr := &http.Transport{DialContext: func(context.Context, string, string) (net.Conn, error) {
		client, server := net.Pipe()
		go s.serveConn(server)
		return client, nil
	}}
	defer tr.CloseIdleConnections()
	for i := range 3 {
		body := fmt.Sprintf(`{"token":"%d"}`, i)
		resp, err := (&http.Client{Transport: tr}).Post("http://gw.example/v1/introspect", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(got) != body {
			t.Fatalf("request %d: status %d body %q (%v)", i, resp.StatusCode, got, err)
		}
	}
}
