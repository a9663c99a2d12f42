// Package bad is a lint fixture: every construct the checks must catch,
// next to the patterns they must accept. The golden file pins the
// expected findings.
package bad

import (
	"sync"
	"sync/atomic"
	"time"
)

type counter struct {
	mu  sync.Mutex
	n   int64
	ch  chan int
	hit atomic.Int64
}

// NewCounter builds a counter for the checks below.
func NewCounter() *counter {
	c := &counter{ch: make(chan int, 1)}
	c.n = 0
	return c
}

func atomicMix(c *counter) int64 {
	atomic.AddInt64(&c.n, 1) // L002: a sync/atomic function call
	return c.n
}

func atomicStructOK(c *counter) int64 {
	c.hit.Add(1)
	return c.hit.Load() // ok: all access through the atomic API
}

func sendUnderLock(c *counter) {
	c.mu.Lock()
	c.ch <- 1 // L003: send while holding c.mu
	c.mu.Unlock()
}

func sendAfterUnlockOK(c *counter) {
	c.mu.Lock()
	c.mu.Unlock()
	c.ch <- 2 // ok: lock released first
}

func sendUnderDeferredLock(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ch <- 3 // L003: the deferred unlock runs only at return
}

func sendLocalOK(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	done := make(chan int, 1)
	done <- 1 // ok: function-local channel, no one can hold our locks
	<-done
}

func sendInTerminalBranch(c *counter) {
	c.mu.Lock()
	if cap(c.ch) == 0 {
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	c.ch <- 4 // ok: both paths released the lock
}

func wallClock() time.Duration {
	start := time.Now()      // L004: wall clock outside internal/clock
	return time.Since(start) // L004
}
