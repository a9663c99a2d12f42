package gateway

import (
	"net"
	"net/http"
	"sync"
	"time"

	"oasis/internal/clock"
)

// rateLimiter is a per-key token bucket: each client key accrues
// `rate` tokens per second up to `burst`, and one request costs one
// token. A refused request reports how long until a token is due, so
// the handler can answer with an honest Retry-After.
type rateLimiter struct {
	rate  float64
	burst float64
	clk   clock.Clock

	mu        sync.Mutex
	buckets   map[string]*bucket
	sinceScan int // new keys since the last eviction scan
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets bounds the key table: while it is full, a new key first
// evicts every bucket that, refilled to now, is back at full burst (an
// idle client's bucket carries no information — recreating it is
// free). A scan that finds nothing to evict — every client busy — is
// not repeated until maxBuckets/16 more keys have arrived.
const maxBuckets = 65536

func newRateLimiter(rate float64, burst int, clk clock.Clock) *rateLimiter {
	return &rateLimiter{
		rate:    rate,
		burst:   float64(burst),
		clk:     clk,
		buckets: make(map[string]*bucket),
	}
}

// allow spends one token from key's bucket. When the bucket is empty
// it reports (wait, false): the duration until the next token accrues.
func (l *rateLimiter) allow(key string, now time.Time) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= maxBuckets && l.sinceScan >= maxBuckets/16 {
			l.sinceScan = 0
			for k, old := range l.buckets {
				// A bucket is only refilled when its own key is seen:
				// judge it by what it would hold now.
				if old.tokens+now.Sub(old.last).Seconds()*l.rate >= l.burst {
					delete(l.buckets, k)
				}
			}
		}
		l.sinceScan++
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		deficit := 1 - b.tokens
		wait := time.Duration(deficit / l.rate * float64(time.Second))
		if wait < time.Second {
			wait = time.Second // Retry-After granularity is whole seconds
		}
		return wait, false
	}
	b.tokens--
	return 0, true
}

// clientKey names the caller for rate-limiting purposes: the remote
// IP, which is the identity the transport actually authenticates at
// this layer (certificate-bound identities are enforced downstream by
// Validate).
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
