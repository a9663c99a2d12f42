// Package ids implements the two-level OASIS client naming scheme of
// chapter 2 of the paper.
//
// The low level is the client identifier: a (host, id, boot time) tuple
// that uniquely names a protection domain for all time (section 2.8).
// The id part is chosen by the client's host operating system; here it is
// allocated by a HostAuthority, which stands in for the local OS.
//
// On top of that, hosts supporting multiple protection domains provide
// virtual client identifiers (VCIs, section 2.8.1): names a domain uses
// when performing a particular task. Credentials are bound to a VCI, and
// a domain can only exercise credentials bound to VCIs it holds, so a
// parent can pass a child a subset of its credentials by passing a subset
// of its VCIs.
package ids

import (
	"fmt"
	"sync"
	"time"
)

// ClientID uniquely identifies an OASIS protection domain for all time.
type ClientID struct {
	Host     string    // authenticated host name
	ID       uint64    // host-chosen identity of the protection domain
	BootTime time.Time // host boot time, making IDs unique forever
}

// String renders the identifier in host/id@boot form.
func (c ClientID) String() string {
	return fmt.Sprintf("%s/%d@%d", c.Host, c.ID, c.BootTime.Unix())
}

// IsZero reports whether the identifier is unset.
func (c ClientID) IsZero() bool {
	return c.Host == "" && c.ID == 0 && c.BootTime.IsZero()
}

// VCI is a virtual client identifier: a per-task name local to a host.
// It is meaningless outside the context of the issuing host.
type VCI struct {
	Host string
	N    uint64
}

// String renders the VCI.
func (v VCI) String() string { return fmt.Sprintf("vci:%s/%d", v.Host, v.N) }

// HostAuthority models the local operating system of one host: it creates
// protection domains, allocates VCIs, and enforces which domains may use
// which VCIs. In a real deployment this is kernel functionality; here it
// is the trusted base of the simulation.
type HostAuthority struct {
	host string
	boot time.Time

	mu      sync.Mutex
	nextID  uint64
	nextVCI uint64
	// holders maps a VCI number to the set of domain IDs allowed to use it.
	holders map[uint64]map[uint64]bool
}

// NewHostAuthority creates the authority for a named host booted at the
// given instant.
func NewHostAuthority(host string, boot time.Time) *HostAuthority {
	return &HostAuthority{
		host:    host,
		boot:    boot,
		holders: make(map[uint64]map[uint64]bool),
	}
}

// NewDomain creates a fresh protection domain on this host and returns
// its client identifier.
func (h *HostAuthority) NewDomain() ClientID {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID++
	return ClientID{Host: h.host, ID: h.nextID, BootTime: h.boot}
}

// NewVCI allocates a fresh VCI usable by the given domain.
//
//oasislint:keep §2.8.1 virtual client identifiers
func (h *HostAuthority) NewVCI(owner ClientID) (VCI, error) {
	if owner.Host != h.host {
		return VCI{}, fmt.Errorf("ids: domain %v is not on host %s", owner, h.host)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextVCI++
	h.holders[h.nextVCI] = map[uint64]bool{owner.ID: true}
	return VCI{Host: h.host, N: h.nextVCI}, nil
}

// Delegate allows another domain on the same host to use a VCI. Only a
// current holder may delegate (section 2.8.1: "the operating system
// ensures that a domain may not use a VCI relating to a different domain,
// unless that domain explicitly delegates use of the VCI").
//
//oasislint:keep §2.8.1 virtual client identifiers
func (h *HostAuthority) Delegate(v VCI, from, to ClientID) error {
	if v.Host != h.host || from.Host != h.host || to.Host != h.host {
		return fmt.Errorf("ids: cross-host VCI delegation is not possible")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	hs, ok := h.holders[v.N]
	if !ok {
		return fmt.Errorf("ids: unknown VCI %v", v)
	}
	if !hs[from.ID] {
		return fmt.Errorf("ids: domain %v does not hold VCI %v", from, v)
	}
	hs[to.ID] = true
	return nil
}

// MayUse reports whether the given domain may exercise credentials bound
// to the VCI. This is the check a client library makes before presenting
// a credential.
//
//oasislint:keep §2.8.1 virtual client identifiers
func (h *HostAuthority) MayUse(v VCI, who ClientID) bool {
	if v.Host != h.host || who.Host != h.host {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.holders[v.N][who.ID]
}

// Revoke withdraws a domain's right to use a VCI. A holder may withdraw
// any other holder (the creating domain controls propagation).
//
//oasislint:keep §2.8.1 virtual client identifiers
func (h *HostAuthority) Revoke(v VCI, by, who ClientID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	hs, ok := h.holders[v.N]
	if !ok {
		return fmt.Errorf("ids: unknown VCI %v", v)
	}
	if !hs[by.ID] {
		return fmt.Errorf("ids: domain %v does not hold VCI %v", by, v)
	}
	delete(hs, who.ID)
	return nil
}
