package main

import (
	"oasis/internal/gateway"
	"oasis/internal/oasis"
)

// newGateway builds the federation gateway exactly as run() deploys
// it: per-client rate limiting and a connection cap. It sheds nothing
// on backpressure: no backlog in the daemon grows with the traffic it
// serves — a notification send queues on its link or is dropped, never
// waits, and a link's queue is bounded (docs/GATEWAY.md "Backpressure
// contract"). Tests reuse this so acceptance coverage exercises the
// deployed wiring, not a test-local variant.
func newGateway(svc *oasis.Service, cfg config) *gateway.Gateway {
	return gateway.New(svc, gateway.Options{RatePerSec: cfg.httpRate, MaxConns: cfg.httpMaxConns})
}
