package gateway

import (
	"strconv"
	"testing"
	"time"

	"oasis/internal/clock"
)

// TestRateLimiterTableBounded: a client that made one request sits one
// token short of its burst until its own key is seen again — which, for
// most of the internet, is never. Eviction has to judge a bucket by
// what it would hold now, and a scan that finds every bucket busy must
// not be repeated for each new key while the lock is held.
func TestRateLimiterTableBounded(t *testing.T) {
	// full returns a limiter whose table maxBuckets one-shot clients
	// have just filled, and the means to add one more.
	full := func(t *testing.T) (*rateLimiter, *clock.Virtual, func()) {
		clk := clock.NewVirtual(time.Unix(1000, 0))
		l := newRateLimiter(1, 2, clk) // back at full burst a second after a single request
		key := 0
		oneShot := func() {
			t.Helper()
			key++
			if _, ok := l.allow(strconv.Itoa(key), clk.Now()); !ok {
				t.Fatalf("key %d refused its first request", key)
			}
		}
		for len(l.buckets) < maxBuckets {
			oneShot()
		}
		return l, clk, oneShot
	}

	t.Run("idle clients are evicted", func(t *testing.T) {
		l, clk, oneShot := full(t)
		clk.Advance(2 * time.Second)
		oneShot()
		if n := len(l.buckets); n >= maxBuckets {
			t.Errorf("%d buckets after every client refilled: the table is not bounded", n)
		}
	})

	t.Run("busy clients are not rescanned per key", func(t *testing.T) {
		l, _, oneShot := full(t)
		const extra = maxBuckets / 4
		scans := 0
		for i := 0; i < extra; i++ {
			oneShot()
			if l.sinceScan == 1 { // the key just counted is the first since a scan
				scans++
			}
		}
		if max := extra/(maxBuckets/16) + 1; scans == 0 || scans > max {
			t.Errorf("%d new keys on a full table of busy clients: %d scans, want 1..%d", extra, scans, max)
		}
		if len(l.buckets) != maxBuckets+extra {
			t.Errorf("%d buckets: a scan evicted a client that had not refilled", len(l.buckets))
		}
	})
}
