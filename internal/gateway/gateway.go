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
//	                     (RevokeDirect, Revoke, RevokeByRole)
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
package gateway

import (
	"crypto/rand"
	"io"
	"net/http"
	"sync/atomic"
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

	// RetryAfter is the hint returned with 429 and 503 responses when
	// no better estimate exists; 0 means DefaultRetryAfter.
	RetryAfter time.Duration
}

// DefaultRetryAfter is the Retry-After hint when Options gives none.
const DefaultRetryAfter = 2 * time.Second

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

	// The guarded routes.
	tokenRoute, introspectRoute, revokeRoute http.HandlerFunc

	// droppedWrites counts response bodies the client went away before
	// receiving.
	droppedWrites atomic.Uint64
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
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = DefaultRetryAfter
	}
	g := &Gateway{
		svc:    svc,
		clk:    opts.Clock,
		tokens: newTokenStore(opts.Rand),
		opts:   opts,
	}
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
	g.tokenRoute = g.guard(g.handleToken, true)
	g.introspectRoute = g.guard(g.handleIntrospect, false)
	g.revokeRoute = g.guard(g.handleRevoke, true)
	return g
}

// Handler returns the gateway's HTTP handler (connection limiting is
// Serve's job).
func (g *Gateway) Handler() http.Handler { return http.HandlerFunc(g.route) }

// route dispatches on the exact path: four fixed routes need no
// pattern matcher.
func (g *Gateway) route(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/introspect":
		g.introspectRoute(w, r)
	case "/v1/token":
		g.tokenRoute(w, r)
	case "/v1/revoke":
		g.revokeRoute(w, r)
	case "/v1/healthz":
		g.handleHealth(w, r)
	default:
		http.NotFound(w, r)
	}
}

// saturated reports whether the notification plane is at or past the
// configured pressure limit.
func (g *Gateway) saturated() bool {
	return g.opts.Pressure != nil && g.opts.PressureLimit > 0 &&
		g.opts.Pressure() >= g.opts.PressureLimit
}

// guard wraps a handler with the request-admission pipeline: method
// check, per-client rate limit, and — for mutating endpoints —
// notification-plane backpressure.
func (g *Gateway) guard(h http.HandlerFunc, mutates bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			g.writeError(w, http.StatusMethodNotAllowed, "invalid_request", "POST only")
			return
		}
		if g.limit != nil {
			if wait, ok := g.limit.allow(clientKey(r), g.clk.Now()); !ok {
				retryAfter(w, wait)
				g.writeError(w, http.StatusTooManyRequests, "rate_limited",
					"per-client request budget exhausted; honour Retry-After")
				return
			}
		}
		if mutates && g.saturated() {
			retryAfter(w, g.opts.RetryAfter)
			g.writeError(w, http.StatusServiceUnavailable, "overloaded",
				"notification plane saturated; honour Retry-After")
			return
		}
		h(w, r)
	}
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	g.writeJSON(w, http.StatusOK, map[string]any{
		"service": g.svc.Name(),
		"tokens":  g.tokens.len(),
	})
}
