package gateway

// Probes only this package's tests use.

// TokenCount reports live (unexpired, unpurged) tokens.
func (g *Gateway) TokenCount() int { return g.tokens.len() }

// DroppedResponseWrites reports responses lost to departed clients.
func (g *Gateway) DroppedResponseWrites() uint64 { return g.droppedWrites.Load() }
