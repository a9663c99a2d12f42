package main

import (
	"oasis/internal/bus"
	"oasis/internal/gateway"
	"oasis/internal/oasis"
)

// newGateway builds the federation gateway exactly as run() deploys
// it: per-client rate limiting, a connection cap, and backpressure
// wired to the whole notification plane. The pressure figure is
// cluster-wide — this member's broker outboxes and bus delay/batch
// queues plus every shard peer's backlog claim heard within the
// fail-safe budget (oasis.ClusterPendingNotifications) — so a storm
// drowning one shard sheds 503s at every shard's front door, not just
// the drowning one.
// Outside a shard ring the figure degrades to the local plane. Tests
// reuse this so acceptance coverage exercises the deployed wiring, not
// a test-local variant.
func newGateway(svc *oasis.Service, network *bus.Network, cfg config) *gateway.Gateway {
	return gateway.New(svc, gateway.Options{
		RatePerSec:    cfg.httpRate,
		MaxConns:      cfg.httpMaxConns,
		PressureLimit: cfg.httpPressure,
		Pressure:      svc.ClusterPendingNotifications,
	})
}
