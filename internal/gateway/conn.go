package gateway

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"time"

	"oasis/internal/clock"
)

// The serving loop. Each connection Serve accepts runs serveConn on its
// own goroutine, which answers the requests it recognises itself — one
// read brings the request in, one write takes the response out — and
// hands the connection to net/http at the first request it does not
// recognise. The rule is the body scanner's, applied to framing: exact
// or absent. A request is the loop's only when its whole head is in
// the buffer in a shape net/http provably reads the same way (parseHead
// lists it), and the handler then gets the *http.Request net/http would
// have built. Anything else — chunked bodies, Expect, HTTP/1.0, a
// header not on the list, a head that does not fit, garbage — goes to
// one http.Server with every byte read so far replayed ahead of the
// socket, and net/http keeps the connection until it closes.
// TestLoopMatchesNetHTTP and FuzzServeConn hold the two to the same
// answers.

// connBufSize is the loop's read buffer: net/http's own. A head that
// does not fit is net/http's.
const connBufSize = 4 << 10

// The header fields a recognised request may carry, each at most once
// and in canonical case, and their indices in head.val.
var knownFields = [...]string{
	"Host", "Content-Length", "Content-Type", "User-Agent",
	"Accept", "Accept-Encoding", "Connection",
}

const (
	fieldHost = iota
	fieldContentLength
	fieldContentType
	fieldUserAgent
	fieldAccept
	fieldAcceptEncoding
	fieldConnection
	numFields
)

const (
	requestPrefix = "POST "
	requestProto  = " HTTP/1.1\r\n"
)

// head is where parseHead found a recognised head's parts: offsets
// into the head of the path and of each field's value.
type head struct {
	path  [2]int
	val   [numFields][2]int
	seen  uint8 // bit f: field f is present
	clen  int64
	close bool // Connection: close
}

// parseHead reads a request head at the start of b. It returns the
// head's length when b begins with a whole head of the recognised
// shape; 0 and more while every byte of b can still begin one; 0 and
// !more as soon as a byte cannot. The shape:
//
//   - the request line is "POST <path> HTTP/1.1": the path starts with
//     '/' and is made only of letters, digits and -._~$&+,/:;=@ — the
//     bytes url.ParseRequestURI keeps as they are, so there is no '%',
//     '?' or '#';
//   - every field is one of knownFields, spelt exactly so, at most
//     once, "Name:" then the value, optionally spaced, of printable
//     ASCII (no tab, no obs-fold); Host (non-empty, a host-and-port
//     charset) and Content-Length (canonical decimal, at most
//     maxCanonicalBody) are required, Connection is "keep-alive" or
//     "close";
//   - every line ends in CRLF, and an empty line ends the head.
//
// net/http acts on a line once its LF arrives, and parseHead settles
// each line by then at the latest: it never waits for bytes net/http
// would act without.
func parseHead(b []byte, h *head) (n int, more bool) {
	*h = head{}
	if len(b) < len(requestPrefix) {
		return 0, string(b) == requestPrefix[:len(b)]
	}
	if string(b[:len(requestPrefix)]) != requestPrefix {
		return 0, false
	}
	i := len(requestPrefix)
	h.path[0] = i
	for i < len(b) && pathByte(b[i]) {
		i++
	}
	h.path[1] = i
	if i == len(b) {
		return 0, true
	}
	if b[h.path[0]] != '/' {
		return 0, false
	}
	if i, more = literal(b, i, requestProto); i < 0 {
		return 0, more
	}
	for {
		if end, more := literal(b, i, "\r\n"); end >= 0 {
			i = end // the empty line
			break
		} else if more {
			return 0, true
		}
		start := i
		for i < len(b) && (isLetter(b[i]) || b[i] == '-') {
			i++
		}
		if i == len(b) {
			return 0, true
		}
		f := 0
		for f < numFields && knownFields[f] != string(b[start:i]) {
			f++
		}
		if b[i] != ':' || f == numFields || h.seen&(1<<f) != 0 {
			return 0, false
		}
		h.seen |= 1 << f
		for i++; i < len(b) && b[i] == ' '; i++ {
		}
		v := i
		for i < len(b) && ' ' <= b[i] && b[i] <= '~' {
			i++
		}
		end := i
		for end > v && b[end-1] == ' ' {
			end--
		}
		if i, more = literal(b, i, "\r\n"); i < 0 {
			return 0, more
		}
		if !h.value(f, b[v:end]) {
			return 0, false
		}
		h.val[f] = [2]int{v, end}
	}
	if h.seen&(1<<fieldHost|1<<fieldContentLength) != 1<<fieldHost|1<<fieldContentLength {
		return 0, false
	}
	return i, false
}

// literal matches s at b[i:]: it returns the index after it, or -1 with
// more when b ends inside a match.
func literal(b []byte, i int, s string) (int, bool) {
	n := min(len(b)-i, len(s))
	if string(b[i:i+n]) != s[:n] {
		return -1, false
	}
	if n < len(s) {
		return -1, true
	}
	return i + n, false
}

// value checks a field's value against what the recognised shape
// allows for it.
func (h *head) value(f int, v []byte) bool {
	switch f {
	case fieldHost:
		if len(v) == 0 {
			return false
		}
		for _, c := range v {
			if !isLetter(c) && !isDigit(c) && c != '.' && c != '-' && c != ':' && c != '[' && c != ']' {
				return false
			}
		}
	case fieldContentLength:
		if len(v) == 0 || len(v) > 5 || (v[0] == '0' && len(v) > 1) {
			return false
		}
		for _, c := range v {
			if !isDigit(c) {
				return false
			}
			h.clen = 10*h.clen + int64(c-'0')
		}
		return h.clen <= maxCanonicalBody
	case fieldConnection:
		h.close = string(v) == "close"
		return h.close || string(v) == "keep-alive"
	}
	return true
}

func isLetter(c byte) bool { return 'a' <= c|0x20 && c|0x20 <= 'z' }
func isDigit(c byte) bool  { return '0' <= c && c <= '9' }

// pathByte reports a byte url.ParseRequestURI leaves alone in a path.
func pathByte(c byte) bool {
	if isLetter(c) || isDigit(c) {
		return true
	}
	switch c {
	case '-', '.', '_', '~', '$', '&', '+', ',', '/', ':', ';', '=', '@':
		return true
	}
	return false
}

// server is what the loop serves a listener with.
type server struct {
	handler  http.Handler
	bounds   serveBounds
	srv      *http.Server   // the fallback, named in each request's context
	fallback func(net.Conn) // hands a declined connection to srv
	dropped  func()         // counts a response the socket refused
}

// conn is one connection's loop state. Everything in it is reused from
// one request to the next: a handler must not keep the request or the
// writer past its return, as net/http already requires.
type conn struct {
	s      *server
	nc     net.Conn
	remote string
	buf    []byte // buf[r:w] has been read and not yet consumed
	r, w   int
	served bool // a request was answered; net/http then skips leading CR/LF

	readBy, writeBy time.Time // the socket's deadlines, as last set
	start           time.Time // when this request's head began, once a bound needed it
	reqArmed        bool      // the request bound is armed for this request's body

	text string // the last head, so a repeated head costs no allocation
	h    head
	base http.Request // the request template: it carries the context
	req  http.Request
	url  url.URL
	hdr  http.Header
	vals [numFields]string
	body body
	rw   responseWriter
	out  []byte

	dateSec int64
	date    []byte
}

// serveConn runs the loop on nc until the connection closes or is
// handed to net/http. A handler's panic is logged as net/http logs it
// and closes the connection.
func (s *server) serveConn(nc net.Conn) {
	c := s.newConn(nc)
	handedOff := false
	defer func() {
		if err := recover(); err != nil && err != http.ErrAbortHandler {
			stack := make([]byte, 64<<10)
			stack = stack[:runtime.Stack(stack, false)]
			log.Printf("http: panic serving %v: %v\n%s", c.remote, err, stack)
		}
		if !handedOff {
			_ = nc.Close()
		}
	}()
	handedOff = c.serve()
}

// newConn sets up the loop's state for a connection just accepted.
func (s *server) newConn(nc net.Conn) *conn {
	c := &conn{s: s, nc: nc, remote: nc.RemoteAddr().String(), buf: make([]byte, connBufSize)}
	ctx := context.WithValue(context.Background(), http.ServerContextKey, s.srv)
	ctx = context.WithValue(ctx, http.LocalAddrContextKey, nc.LocalAddr())
	c.base = *(&http.Request{}).WithContext(ctx)
	c.hdr = make(http.Header, numFields)
	c.rw.own = make(http.Header)
	c.body.c = c
	// The first head is bounded from the accept, as net/http bounds it.
	c.start = clock.Real().Now()
	c.setReadBy(c.start.Add(s.bounds.head))
	return c
}

// serve answers requests until one is declined, which it reports, or
// the connection is done.
func (c *conn) serve() (handedOff bool) {
	for {
		n, ok := c.readHead()
		switch {
		case ok:
			if !c.handle(n) {
				return false
			}
		case n < 0:
			return false
		default:
			rest := append([]byte(nil), c.buf[c.r:c.w]...)
			c.s.fallback(&replayConn{Conn: c.nc, buf: rest})
			return true
		}
	}
}

// readHead reads until the buffer starts with a whole head. It returns
// the head's length and true; 0 and false for a request the loop
// declines; -1 when the connection is done — nothing but a read error
// is buffered, or a bound elapsed.
func (c *conn) readHead() (int, bool) {
	stripped := !c.served
	for {
		if !stripped && c.w-c.r >= 4 {
			c.stripCRLF(4)
			stripped = true
		}
		if stripped {
			n, more := parseHead(c.buf[c.r:c.w], &c.h)
			if n > 0 {
				return n, true
			}
			if !more || c.w-c.r == len(c.buf) {
				return 0, false
			}
		}
		if c.r == c.w {
			c.r, c.w = 0, 0
		} else if c.w == len(c.buf) {
			c.w = copy(c.buf, c.buf[c.r:c.w])
			c.r = 0
		}
		if c.r < c.w && c.start.IsZero() {
			// A partial head: the head bound runs from its first bytes.
			c.start = clock.Real().Now()
			c.setReadBy(c.start.Add(c.s.bounds.head))
		}
		m, err := c.nc.Read(c.buf[c.w:])
		c.w += m
		if err != nil {
			if !stripped {
				c.stripCRLF(c.w - c.r)
			}
			if ne, ok := err.(net.Error); c.r == c.w || ok && ne.Timeout() {
				return -1, false
			}
			// net/http reads the same bytes and then the same error.
			return 0, false
		}
	}
}

// stripCRLF drops the CR and LF bytes among the next n, as net/http
// does before every request that follows a POST.
func (c *conn) stripCRLF(n int) {
	for end := c.r + min(n, 4); c.r < end && (c.buf[c.r] == '\r' || c.buf[c.r] == '\n'); c.r++ {
	}
}

// handle serves the n-byte head at the front of the buffer and writes
// its response. It reports whether the connection stays open.
func (c *conn) handle(n int) bool {
	if string(c.buf[c.r:c.r+n]) != c.text {
		c.text = string(c.buf[c.r : c.r+n])
	}
	c.r += n
	req := c.request()
	c.rw.reset()
	c.s.handler.ServeHTTP(&c.rw, req)

	// What net/http does once the handler returns: a connection the
	// request asked to close closes; an unread body is drained, and a
	// body that cannot be closes the connection too.
	closing := c.h.close
	if !closing && c.body.n > 0 {
		if _, err := io.Copy(io.Discard, &c.body); err != nil {
			closing = true
		}
	}
	now := clock.Real().Now()
	c.out = c.rw.render(c.out[:0], c.dateAt(now), closing)
	if c.writeBy.Sub(now) < c.s.bounds.write {
		c.writeBy = now.Add(2 * c.s.bounds.write)
		_ = c.nc.SetWriteDeadline(c.writeBy)
	}
	if _, err := c.nc.Write(c.out); err != nil {
		c.s.dropped()
		return false
	}
	if closing {
		return false
	}
	c.served = true
	c.start, c.reqArmed = time.Time{}, false
	if c.readBy.Sub(now) < c.s.bounds.idle {
		c.setReadBy(now.Add(2 * c.s.bounds.idle))
	}
	return true
}

// request builds what net/http's ReadRequest and its server would hand
// the handler for the head just consumed. Every string is a substring
// of c.text; the Host field becomes req.Host and leaves the header, as
// net/http moves it.
func (c *conn) request() *http.Request {
	t, h := c.text, &c.h
	path := t[h.path[0]:h.path[1]]
	c.url = url.URL{Path: path}
	clear(c.hdr)
	for f := fieldHost + 1; f < numFields; f++ {
		if h.seen&(1<<f) != 0 {
			c.vals[f] = t[h.val[f][0]:h.val[f][1]]
			c.hdr[knownFields[f]] = c.vals[f : f+1 : f+1]
		}
	}
	c.req = c.base
	r := &c.req
	r.Method = http.MethodPost
	r.URL = &c.url
	r.Proto, r.ProtoMajor, r.ProtoMinor = "HTTP/1.1", 1, 1
	r.Header = c.hdr
	r.ContentLength = h.clen
	c.body.n, c.body.err = h.clen, nil
	r.Body = http.NoBody
	if h.clen > 0 {
		r.Body = &c.body
	}
	r.Close = h.close
	r.Host = t[h.val[fieldHost][0]:h.val[fieldHost][1]]
	r.RemoteAddr = c.remote
	r.RequestURI = path
	return r
}

func (c *conn) setReadBy(t time.Time) {
	c.readBy = t
	_ = c.nc.SetReadDeadline(t)
}

// dateAt is the Date field for now, formatted once a second.
func (c *conn) dateAt(now time.Time) []byte {
	if sec := now.Unix(); sec != c.dateSec {
		c.dateSec = sec
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	return c.date
}

// body reads exactly the declared length: the buffered bytes first,
// then the socket under the request bound. Like net/http's it ends in
// io.EOF, or io.ErrUnexpectedEOF when the client stops short.
type body struct {
	c   *conn
	n   int64 // bytes not yet read
	err error
}

func (b *body) Read(p []byte) (int, error) {
	if b.err != nil {
		return 0, b.err
	}
	if b.n == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	c := b.c
	var m int
	var err error
	if c.r < c.w {
		m = copy(p, c.buf[c.r:c.w])
		c.r += m
	} else if len(p) > 0 {
		if !c.reqArmed {
			// The request bound runs from the head's first bytes.
			c.reqArmed = true
			if c.start.IsZero() {
				c.start = clock.Real().Now()
			}
			c.setReadBy(c.start.Add(c.s.bounds.request))
		}
		m, err = c.nc.Read(p)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	b.n -= int64(m)
	if err != nil {
		b.err = err
	} else if b.n == 0 {
		err = io.EOF
	}
	return m, err
}

func (b *body) Close() error { return nil }

// responseWriter collects one response for a single write. It supports
// what the routes use — Header, one WriteHeader with a final status,
// Write — and renders what net/http's writer would send for it once the
// handler returns (render).
type responseWriter struct {
	own    http.Header // the connection's map, cleared per request
	hdr    http.Header // what Header returns
	sent   http.Header // the header as of WriteHeader; nil before
	status int
	body   []byte
}

func (w *responseWriter) reset() {
	clear(w.own)
	w.hdr, w.sent, w.status, w.body = w.own, nil, 0, w.body[:0]
}

// Header returns the header to set. After WriteHeader it is a copy, as
// net/http's is: what a handler changes then is not sent.
func (w *responseWriter) Header() http.Header {
	if w.sent != nil && w.hdr == nil {
		w.hdr = w.sent.Clone()
	}
	return w.hdr
}

func (w *responseWriter) WriteHeader(code int) {
	if w.status != 0 {
		return
	}
	w.status = code
	w.sent, w.hdr = w.hdr, nil
}

func (w *responseWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// render appends the response to b as net/http's writer sends a
// handler's complete response: the status line, the handler's fields
// sorted by name, then Date, an inferred Content-Length and a sniffed
// Content-Type where the handler set none, and Connection: close when
// the connection closes after it. net/http infers the length only for
// a body under 2 KiB and chunks a longer one; every route sets
// Content-Length itself (TestExplicitFraming), so the two agree.
func (w *responseWriter) render(b, date []byte, closing bool) []byte {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	b = append(b, "HTTP/1.1 "...)
	if text := http.StatusText(w.status); text != "" {
		b = strconv.AppendInt(b, int64(w.status), 10)
		b = append(b, ' ')
		b = append(b, text...)
	} else {
		b = fmt.Appendf(b, "%03d status code %d", w.status, w.status)
	}
	b = append(b, "\r\n"...)
	var names [8]string
	keys := names[:0]
	for k := range w.sent {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, v := range w.sent[k] {
			b = appendField(b, k, v)
		}
	}
	if _, ok := w.sent["Date"]; !ok {
		b = append(append(append(b, "Date: "...), date...), "\r\n"...)
	}
	if _, ok := w.sent["Content-Length"]; !ok {
		b = appendField(b, "Content-Length", strconv.Itoa(len(w.body)))
	}
	if _, ok := w.sent["Content-Type"]; !ok && len(w.body) > 0 {
		b = appendField(b, "Content-Type", http.DetectContentType(w.body))
	}
	if closing {
		b = appendField(b, "Connection", "close")
	}
	b = append(b, "\r\n"...)
	return append(b, w.body...)
}

// appendField appends "name: value\r\n" with the value cleaned as
// net/http cleans it: CR and LF become spaces, and surrounding spaces
// and tabs go.
func appendField(b []byte, name, v string) []byte {
	b = append(append(b, name...), ": "...)
	blank := func(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
	i, j := 0, len(v)
	for i < j && blank(v[i]) {
		i++
	}
	for j > i && blank(v[j-1]) {
		j--
	}
	for ; i < j; i++ {
		if c := v[i]; c == '\r' || c == '\n' {
			b = append(b, ' ')
		} else {
			b = append(b, c)
		}
	}
	return append(b, "\r\n"...)
}

// replayConn is a declined connection as net/http receives it: the
// bytes the loop read come first, then the socket.
type replayConn struct {
	net.Conn
	buf []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.buf) == 0 {
		return c.Conn.Read(p)
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}
