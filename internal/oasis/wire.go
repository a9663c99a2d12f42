package oasis

import "sync"

var registerOnce sync.Once

// RegisterWireTypes registers every payload type the inter-service
// protocol sends through the bus's TCP bridging with the binary codec
// (wirecodec.go). Call it once in any process that uses
// bus.Network.ServeTCP / AddRemote with OASIS services.
func RegisterWireTypes() {
	registerOnce.Do(registerBinaryPayloads)
}
