package gateway

import (
	"reflect"

	"oasis/internal/oasis"
)

// Probes only this package's tests use.

// TokenCount reports live (unexpired, unpurged) tokens.
func (g *Gateway) TokenCount() int { return g.tokens.len() }

// DroppedResponseWrites reports responses lost to departed clients.
func (g *Gateway) DroppedResponseWrites() uint64 { return g.droppedWrites.Load() }

// VerifiedCount counts the signature verdicts svc's cert.VerifyCache
// keeps. Both are another package's unexported state and nothing the
// daemon runs wants their census, so it is read by reflection, as
// internal/oasis's tests read the broker's tables; call it on a
// quiescent service only.
func VerifiedCount(svc *oasis.Service) int {
	shards := reflect.ValueOf(svc).Elem().FieldByName("sigs").Elem().FieldByName("shards")
	n := 0
	for i := 0; i < shards.Len(); i++ {
		n += shards.Index(i).FieldByName("m").Len()
	}
	return n
}
