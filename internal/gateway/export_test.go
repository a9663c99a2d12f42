package gateway

import "time"

// Probes only this package's tests use.

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
