package gateway

import (
	"expvar"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
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
// lists it); the loop then reads the body where it lies and calls the
// route with the path and the body's bytes. Anything else — chunked bodies, Expect, HTTP/1.0, a
// header not on the list, a head that does not fit, garbage — goes to
// one http.Server with every byte read so far replayed ahead of the
// socket, and net/http keeps the connection until it closes.
// TestLoopMatchesNetHTTP and FuzzServeConn hold the two to the same
// answers.

// connBufSize is the loop's read buffer: net/http's own. A head that
// does not fit is net/http's.
const connBufSize = 4 << 10

// maxCanonicalBody is the largest body the loop reads itself, growing
// its buffer for one that does not fit; a longer one is net/http's.
const maxCanonicalBody = 16 << 10

// The header fields a recognised request may carry, each at most once
// and in canonical case, and their bits in head.seen.
var knownFields = [...]string{
	"Host", "Content-Length", "Content-Type", "User-Agent",
	"Accept", "Accept-Encoding", "Connection",
}

const (
	fieldHost          = 0
	fieldContentLength = 1
	fieldConnection    = 6
	numFields          = len(knownFields)
)

const (
	requestPrefix = "POST "
	requestProto  = " HTTP/1.1\r\n"
)

// head is what parseHead found in a recognised head: the path's
// offsets into it, and what frames the body and the connection.
type head struct {
	path  [2]int
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
	route    func(*request, *reply)
	bounds   serveBounds
	fallback func(net.Conn) // hands a declined connection to net/http
	vars     *expvar.Map    // the gateway's counters
}

// conn is one connection's loop state. Everything in it is reused from
// one request to the next: a route must not keep the request or the
// reply past its return.
type conn struct {
	s      *server
	nc     net.Conn
	buf    []byte // buf[r:w] has been read and not yet consumed
	r, w   int
	served bool // a request was answered; net/http then skips leading CR/LF

	readBy, writeBy time.Time // the socket's deadlines, as last set
	start           time.Time // when this request's head began, once a bound needed it

	h   head
	in  request
	rep reply
	out []byte

	dateSec int64
	date    []byte
}

// serveConn runs the loop on nc until the connection closes or is
// handed to net/http. A route's panic is logged as net/http logs it
// and closes the connection.
func (s *server) serveConn(nc net.Conn) {
	c := s.newConn(nc)
	handedOff := false
	defer func() {
		if err := recover(); err != nil {
			stack := make([]byte, 64<<10)
			stack = stack[:runtime.Stack(stack, false)]
			log.Printf("http: panic serving %v: %v\n%s", c.in.remote, err, stack)
		}
		if !handedOff {
			s.vars.Add("conns_loop", 1)
			_ = nc.Close()
		}
	}()
	handedOff = c.serve()
}

// newConn sets up the loop's state for a connection just accepted.
func (s *server) newConn(nc net.Conn) *conn {
	c := &conn{s: s, nc: nc, buf: make([]byte, connBufSize)}
	c.in.method, c.in.remote = "POST", nc.RemoteAddr().String()
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
			c.s.vars.Add("conns_handed_off", 1)
			c.s.fallback(&replayConn{Conn: c.nc, buf: rest})
			return true
		}
	}
}

// readHead reads until the buffer starts with a whole head of at most
// connBufSize bytes. It returns the head's length and true; 0 and false
// for a request the loop declines; -1 when the connection is done —
// nothing but a read error is buffered, or a bound elapsed.
func (c *conn) readHead() (int, bool) {
	stripped := !c.served
	for {
		if !stripped && c.w-c.r >= 4 {
			c.stripCRLF(4)
			stripped = true
		}
		if stripped {
			n, more := parseHead(c.buf[c.r:min(c.w, c.r+connBufSize)], &c.h)
			if n > 0 {
				return n, true
			}
			if !more || c.w-c.r >= connBufSize {
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

// handle reads the body of the n-byte head at the front of the buffer,
// calls the route, and writes its reply. It reports whether the
// connection stays open.
func (c *conn) handle(n int) bool {
	in := &c.in
	in.body, in.err = c.fill(n)
	in.path = c.buf[c.r+c.h.path[0] : c.r+c.h.path[1]]
	c.r += n + len(in.body)
	c.rep.reset()
	c.s.route(in, &c.rep)

	// What net/http does once the route returns: a connection the
	// request asked to close, or whose body broke off, closes and says
	// so. A body the client cut short by closing its side ends the
	// connection at the next read, without the field.
	closing := c.h.close || in.err != nil && in.err != io.ErrUnexpectedEOF
	now := clock.Real().Now()
	c.out = c.rep.render(c.out[:0], c.dateAt(now), closing)
	if c.writeBy.Sub(now) < c.s.bounds.write {
		c.writeBy = now.Add(2 * c.s.bounds.write)
		_ = c.nc.SetWriteDeadline(c.writeBy)
	}
	if _, err := c.nc.Write(c.out); err != nil {
		c.s.vars.Add("dropped_writes", 1)
		return false
	}
	if closing {
		return false
	}
	c.served = true
	c.start = time.Time{}
	if c.readBy.Sub(now) < c.s.bounds.idle {
		c.setReadBy(now.Add(2 * c.s.bounds.idle))
	}
	return true
}

// fill reads the body of the n-byte head at buf[r:] until it is whole
// in the buffer, moving the request to the front of the buffer, or to a
// larger one, when it does not fit. The socket is read under the
// request bound. It returns the body, and the error that ended it short
// of Content-Length: io.ErrUnexpectedEOF when the client closed, as
// net/http's body reader has it.
func (c *conn) fill(n int) ([]byte, error) {
	need := n + int(c.h.clen)
	if c.r+need > len(c.buf) {
		buf := c.buf
		if need > len(buf) {
			buf = make([]byte, need)
		}
		c.w = copy(buf, c.buf[c.r:c.w])
		c.buf, c.r = buf, 0
	}
	if c.w-c.r < need {
		// The request bound runs from the head's first bytes.
		if c.start.IsZero() {
			c.start = clock.Real().Now()
		}
		c.setReadBy(c.start.Add(c.s.bounds.request))
	}
	for c.w-c.r < need {
		m, err := c.nc.Read(c.buf[c.w:])
		c.w += m
		if err != nil && c.w-c.r < need {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return c.buf[c.r+n : c.w], err
		}
	}
	return c.buf[c.r+n : c.r+need], nil
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
