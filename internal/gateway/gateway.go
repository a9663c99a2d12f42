// Package gateway is the HTTP/JSON federation layer over the OASIS
// engine — the front door for heterogeneous clients (browsers, mobile
// apps, third-party services) that cannot speak the trusted-peer
// protocol of cmd/oasisd.
//
// It maps the engine's native vocabulary onto OAuth-shaped HTTP
// endpoints:
//
//	POST /v1/token       role entry (§3.2.2) as token issuance: an
//	                     opaque token bound to the issued role
//	                     membership certificate, with expiry derived
//	                     from the RMC and delegation-entry support
//	POST /v1/introspect  RMC status as RFC 7662-style introspection:
//	                     active / roles / args / issuer / expiry,
//	                     answered live from the credential-record
//	                     store so revocation cascades are visible the
//	                     instant they land
//	POST /v1/revoke      RFC 7009-style revocation: idempotent, 200 on
//	                     an already-revoked or unknown token, routed
//	                     through the engine's revocation surface
//	                     (RevokeHeld, Revoke, RevokeByRole)
//
// The gateway holds no validity state of its own: a token maps to a
// live RMC whose credential record the engine consults on every
// introspection, so a revocation storm invalidates any number of
// tokens without the gateway scanning anything.
//
// Load discipline: per-client token-bucket rate limiting (429 +
// Retry-After), a concurrent-connection cap, and backpressure — when the
// notification plane's queues signal saturation, mutating requests are
// shed with 503 + Retry-After instead of queueing without bound. Every
// route runs on the connection's own goroutine with no deadline wrapper:
// the only waits a request can meet are on a peer, and internal/bus
// bounds those itself (an issuer that does not answer a validation
// within bus.CallDeadline becomes a 503 "timeout").
//
// A route reads the method, the path, the client's address and the
// body's bytes (request) and fills a reply. It is called from two places
// only: Serve's loop, for the requests it frames itself (conn.go), and
// Handler, the one adapter from net/http, for everything else.
package gateway

import (
	"crypto/rand"
	"expvar"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"oasis/internal/clock"
	"oasis/internal/oasis"
)

// Options configure a Gateway.
type Options struct {
	// Rand supplies token-id entropy; nil means crypto/rand. Tests
	// substitute a deterministic reader so golden vectors are stable.
	Rand io.Reader

	// Clock drives expiry and rate-limit refill; nil means the
	// service's own clock.
	Clock clock.Clock

	// RatePerSec and Burst shape the per-client token bucket (keyed by
	// the caller's remote IP). RatePerSec <= 0 disables rate limiting;
	// Burst <= 0 defaults to 2×RatePerSec (minimum 1).
	RatePerSec float64
	Burst      int

	// MaxConns caps concurrently accepted connections in Serve; 0
	// means no cap.
	MaxConns int

	// Pressure reports the notification plane's queued-notification
	// depth; PressureLimit is the saturation threshold at or above
	// which the gateway sheds mutating requests (issue, revoke) with
	// 503 + Retry-After. A nil Pressure or zero limit disables
	// backpressure.
	Pressure      func() int
	PressureLimit int
}

// shedRetryAfter is the Retry-After hint of a request shed under
// backpressure, which has no better estimate.
const shedRetryAfter = 2 * time.Second

// timeoutBody answers (503) a request whose issuer did not answer
// within bus.CallDeadline.
const timeoutBody = `{"error":"timeout","error_description":"request handling exceeded the gateway deadline"}`

// Gateway exposes one OASIS service over HTTP/JSON.
type Gateway struct {
	svc    *oasis.Service
	clk    clock.Clock
	tokens *tokenStore
	limit  *rateLimiter
	opts   Options

	// vars are the gateway's counters, in the service's Vars under
	// "gateway": live "tokens", and from its first count on each of
	// "dropped_writes" (responses the client went away before
	// receiving) and the connections Serve's loop served to the end
	// ("conns_loop") or handed to net/http ("conns_handed_off"). A
	// later gateway over the same service takes the entry over.
	vars expvar.Map

	// bounds are Serve's slow-client bounds; tests shorten them.
	bounds serveBounds
}

// New creates a gateway over the service. The service's rolefiles must
// already be installed; the gateway adds no policy of its own.
func New(svc *oasis.Service, opts Options) *Gateway {
	if opts.Rand == nil {
		opts.Rand = rand.Reader
	}
	if opts.Clock == nil {
		opts.Clock = svc.Clock()
	}
	g := &Gateway{
		svc:    svc,
		clk:    opts.Clock,
		tokens: newTokenStore(opts.Rand),
		opts:   opts,
		bounds: defaultBounds,
	}
	g.vars.Set("tokens", expvar.Func(func() any { return g.tokens.len() }))
	svc.Vars().Set("gateway", &g.vars)
	if opts.RatePerSec > 0 {
		burst := opts.Burst
		if burst <= 0 {
			burst = int(2 * opts.RatePerSec)
			if burst < 1 {
				burst = 1
			}
		}
		g.limit = newRateLimiter(opts.RatePerSec, burst, g.clk)
	}
	return g
}

// request is what a route reads of an HTTP request: the method, the
// path, the client's address, and the body as it was read — the bytes,
// then the error that ended them short of Content-Length (nil when
// whole). path and body belong to the caller and are valid only until
// the route returns.
type request struct {
	method, remote string
	path, body     []byte
	err            error
}

// exchange is Handler's request and reply, pooled with their buffers.
type exchange struct {
	in  request
	out reply
}

var exchanges = sync.Pool{New: func() any { return new(exchange) }}

// maxPooledBuf keeps one outsized body or response from pinning its
// buffer in the pool forever.
const maxPooledBuf = 64 << 10

// Handler returns the gateway's HTTP handler (connection limiting is
// Serve's job): the one adapter from net/http to the routes, used by
// Serve's fallback and by in-process callers. It reads the body, calls
// the route, and writes the reply.
func (g *Gateway) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ex := exchanges.Get().(*exchange)
		in, out := &ex.in, &ex.out
		in.method, in.remote = r.Method, r.RemoteAddr
		in.path = append(in.path[:0], r.URL.Path...)
		in.body, in.err = requestBody(w, r, in.body[:0])
		out.reset()
		g.route(in, out)
		if err := out.send(w); err != nil {
			g.vars.Add("dropped_writes", 1) // the client is gone: all there is to do is count it
		}
		if cap(in.body) <= maxPooledBuf && cap(out.body) <= maxPooledBuf {
			exchanges.Put(ex)
		}
	})
}

// requestBody appends r's body to b as the bounded decoder always read
// it: Content-Length bytes when the length is declared within the
// 1 MiB bound, and otherwise up to that bound, where
// http.MaxBytesReader ends the body with its error (and has net/http
// close the connection).
func requestBody(w http.ResponseWriter, r *http.Request, b []byte) ([]byte, error) {
	src, n := r.Body, r.ContentLength
	declared := n > 0 && n <= maxBodyBytes
	if !declared {
		src, n = http.MaxBytesReader(w, r.Body, maxBodyBytes), maxBodyBytes+1
	}
	for int64(len(b)) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, int(min(n-int64(len(b)), 4<<10)))
		}
		m, err := src.Read(b[len(b):min(int64(cap(b)), n)])
		b = b[:len(b)+m]
		if err != nil && int64(len(b)) < n {
			if err == io.EOF && !declared {
				err = nil
			}
			return b, err
		}
	}
	return b, nil
}

// route dispatches on the exact path: four fixed routes need no
// pattern matcher. Every route but the health check is admitted first:
// method check, per-client rate limit, and — for the mutating ones —
// notification-plane backpressure.
func (g *Gateway) route(in *request, out *reply) {
	var handle func(*request, *reply)
	mutates := true
	switch string(in.path) {
	case "/v1/introspect":
		handle, mutates = g.handleIntrospect, false
	case "/v1/token":
		handle = g.handleToken
	case "/v1/revoke":
		handle = g.handleRevoke
	case "/v1/healthz":
		g.writeJSON(out, http.StatusOK, map[string]any{
			"service": g.svc.Name(),
			"tokens":  g.tokens.len(),
		})
		return
	default:
		out.httpError(http.StatusNotFound, "404 page not found")
		return
	}
	if in.method != http.MethodPost {
		out.allow = true
		g.writeError(out, http.StatusMethodNotAllowed, "invalid_request", "POST only")
		return
	}
	if g.limit != nil {
		if wait, ok := g.limit.allow(clientKey(in.remote), g.clk.Now()); !ok {
			out.retryAfter = wait
			g.writeError(out, http.StatusTooManyRequests, "rate_limited",
				"per-client request budget exhausted; honour Retry-After")
			return
		}
	}
	if mutates && g.opts.Pressure != nil && g.opts.PressureLimit > 0 &&
		g.opts.Pressure() >= g.opts.PressureLimit {
		out.retryAfter = shedRetryAfter
		g.writeError(out, http.StatusServiceUnavailable, "overloaded",
			"notification plane saturated; honour Retry-After")
		return
	}
	handle(in, out)
}

// reply is a route's answer: the status, the few fields routes set, and
// the body. Every reply frames itself with Content-Length: net/http
// infers one only while a body fits its 2 KiB pre-chunking buffer, and a
// token response carrying a certificate with long arguments does not.
type reply struct {
	status     int
	allow      bool          // Allow: POST (405)
	retryAfter time.Duration // Retry-After (429, 503), rounded up to whole seconds; 0 for none
	plain      bool          // http.Error's text/plain with nosniff, not JSON
	body       []byte
}

func (o *reply) reset() { *o = reply{body: o.body[:0]} }

// httpError is http.Error's reply: the text and a newline.
func (o *reply) httpError(status int, text string) {
	o.status, o.plain = status, true
	o.body = append(append(o.body[:0], text...), '\n')
}

// retrySeconds is the Retry-After value: whole seconds, at least one.
func (o *reply) retrySeconds() int64 {
	return max(int64((o.retryAfter+time.Second-1)/time.Second), 1)
}

// The field values send shares: net/http reads header values and never
// writes to them.
var (
	jsonContentType  = []string{"application/json"}
	plainContentType = []string{"text/plain; charset=utf-8"}
	nosniff          = []string{"nosniff"}
	postOnly         = []string{http.MethodPost}
)

// send writes the reply to net/http's writer. render must produce what
// net/http then sends.
func (o *reply) send(w http.ResponseWriter) error {
	h := w.Header()
	if o.allow {
		h["Allow"] = postOnly
	}
	h["Content-Length"] = []string{strconv.Itoa(len(o.body))}
	h["Content-Type"] = jsonContentType
	if o.plain {
		h["Content-Type"], h["X-Content-Type-Options"] = plainContentType, nosniff
	}
	if o.retryAfter > 0 {
		h["Retry-After"] = []string{strconv.FormatInt(o.retrySeconds(), 10)}
	}
	w.WriteHeader(o.status)
	_, err := w.Write(o.body)
	return err
}

// render appends the reply as net/http sends what send writes: the
// status line, send's fields sorted by name, Date, and Connection: close
// when the connection closes after it.
func (o *reply) render(b, date []byte, closing bool) []byte {
	b = strconv.AppendInt(append(b, "HTTP/1.1 "...), int64(o.status), 10)
	b = append(append(append(b, ' '), http.StatusText(o.status)...), "\r\n"...)
	if o.allow {
		b = append(b, "Allow: POST\r\n"...)
	}
	b = strconv.AppendInt(append(b, "Content-Length: "...), int64(len(o.body)), 10)
	if o.plain {
		b = append(b, "\r\nContent-Type: text/plain; charset=utf-8\r\n"...)
	} else {
		b = append(b, "\r\nContent-Type: application/json\r\n"...)
	}
	if o.retryAfter > 0 {
		b = strconv.AppendInt(append(b, "Retry-After: "...), o.retrySeconds(), 10)
		b = append(b, "\r\n"...)
	}
	if o.plain {
		b = append(b, "X-Content-Type-Options: nosniff\r\n"...)
	}
	b = append(append(append(b, "Date: "...), date...), "\r\n"...)
	if closing {
		b = append(b, "Connection: close\r\n"...)
	}
	return append(append(b, "\r\n"...), o.body...)
}
