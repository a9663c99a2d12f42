package bad

import (
	"sync"

	"oasis/internal/bus"
)

// peerCache remembers what peers answered, under a leaf lock.
type peerCache struct {
	mu   sync.Mutex
	net  *bus.Network
	seen map[string]any
}

func (c *peerCache) askUnderLock(to string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, err := c.net.Call("me", to, "validate", nil) // L003: a delivery needing c.mu waits out the call
	c.seen[to] = res
	return err
}

func (c *peerCache) askThenRemember(to string) error {
	res, err := c.net.Call("me", to, "validate", nil) // ok: no lock held across the call
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.seen[to] = res
	c.mu.Unlock()
	return nil
}
