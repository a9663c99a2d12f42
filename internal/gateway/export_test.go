package gateway

import "time"

// Probes only this package's tests use.

// TokenCount reports live (unexpired, unpurged) tokens.
func (g *Gateway) TokenCount() int { return g.tokens.len() }

// DroppedResponseWrites reports responses lost to departed clients.
func (g *Gateway) DroppedResponseWrites() uint64 { return g.droppedWrites.Load() }

// SetServeBounds shortens Serve's slow-client bounds: the head, the
// whole request, a response write, and idle between requests.
func (g *Gateway) SetServeBounds(head, request, write, idle time.Duration) {
	g.bounds = serveBounds{head: head, request: request, write: write, idle: idle}
}

// ClientHeads and DeclinedHeads are the request heads the serving loop
// must recognise and must leave to net/http.
var (
	ClientHeads   = clientHeads
	DeclinedHeads = declinedHeads
)
