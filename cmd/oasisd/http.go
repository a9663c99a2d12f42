package main

import (
	"oasis/internal/bus"
	"oasis/internal/gateway"
	"oasis/internal/oasis"
)

// newGateway builds the federation gateway exactly as run() deploys
// it: per-client rate limiting, a connection cap, and backpressure
// wired to the notification plane. The pressure figure is this
// service's own backlog (oasis.ClusterPendingNotifications): its broker
// outboxes, which hold notes only behind a send in progress, and its bus
// delay heap, which only a link policy fills (the daemon installs none).
// It does not count the notes a TCP link has accepted and not yet
// written, the one queue a slow watcher fills (docs/GATEWAY.md
// "Backpressure contract"). Tests reuse this so acceptance coverage
// exercises the deployed wiring, not a test-local variant.
func newGateway(svc *oasis.Service, network *bus.Network, cfg config) *gateway.Gateway {
	return gateway.New(svc, gateway.Options{
		RatePerSec:    cfg.httpRate,
		MaxConns:      cfg.httpMaxConns,
		PressureLimit: cfg.httpPressure,
		Pressure:      svc.ClusterPendingNotifications,
	})
}
