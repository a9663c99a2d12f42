package bus

import (
	"fmt"
	"sort"
	"sync"
)

// Trader is the name server of §2.10 / §6.2.1: services register the
// interfaces they offer (including the standard certificate-validation
// interface and event interfaces), and clients look up service
// instances by interface type — the ODP Trader role the paper leans on
// for locating event servers.
type Trader struct {
	mu     sync.Mutex
	offers map[string]map[string]bool // interface -> set of service names
}

// NewTrader creates an empty trader.
//
//oasislint:keep §6.2.1 trader (figure 6.1 step 1)
func NewTrader() *Trader {
	return &Trader{offers: make(map[string]map[string]bool)}
}

// Register advertises that a service instance offers an interface.
//
//oasislint:keep §6.2.1 trader (figure 6.1 step 1)
func (t *Trader) Register(iface, service string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	set, ok := t.offers[iface]
	if !ok {
		set = make(map[string]bool)
		t.offers[iface] = set
	}
	set[service] = true
}

// Withdraw removes an offer.
//
//oasislint:keep §6.2.1 trader (figure 6.1 step 1)
func (t *Trader) Withdraw(iface, service string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.offers[iface], service)
}

// Lookup returns the services offering an interface, sorted for
// determinism.
func (t *Trader) Lookup(iface string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.offers[iface]))
	for s := range t.offers[iface] {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// LookupOne returns a single offer or an error — the common client path
// of figure 6.1 step 1.
//
//oasislint:keep §6.2.1 trader (figure 6.1 step 1)
func (t *Trader) LookupOne(iface string) (string, error) {
	offers := t.Lookup(iface)
	if len(offers) == 0 {
		return "", fmt.Errorf("bus: no service offers interface %q", iface)
	}
	return offers[0], nil
}
