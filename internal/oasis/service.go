// Package oasis implements the OASIS service engine — the paper's
// primary contribution. A Service names its clients with roles defined
// in RDL rolefiles (chapter 3), issues and validates role membership
// certificates (chapter 4), supports delegation/election with
// revocation certificates, implements role-based revocation (§4.11),
// maintains the credential record graph that makes revocation rapid and
// selective, and interworks with other services through certificate
// validation callbacks and event notification over external credential
// records (§4.9).
package oasis

import (
	"expvar"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/event"
	"oasis/internal/rdl"
	"oasis/internal/value"
)

// Options configure a Service.
type Options struct {
	// Signer provides the integrity check. The default is an HMAC
	// signer whose secret is derived from the service name alone, so
	// anyone who knows the name can forge its certificates: it is for
	// tests and simulations only, and a deployment supplies its own.
	Signer cert.Signer
	// CertTTL is the default lifetime of issued role membership
	// certificates. Zero means no expiry.
	CertTTL time.Duration
	// DelegationTTL is the default lifetime of delegation certificates
	// (§4.4: a safety net against lost revocation certificates).
	DelegationTTL time.Duration
	// HeartbeatEvery is the inter-service heartbeat period t (§4.10).
	HeartbeatEvery time.Duration
	// FailsafeMissed is the number of heartbeat periods a watched
	// source may stay silent before it is declared failed and every
	// credential record dependent on it fails safe to False (§6.8.4).
	// Zero means 3.
	FailsafeMissed int
	// AutoResync resynchronises external records automatically when a
	// degraded source is heard from again (a partition heals) or a
	// notification gap is detected, instead of waiting for an explicit
	// ResyncSource call. The resync is started on a goroutine of its
	// own; nothing waits for it.
	AutoResync bool
	// OnSourceState, if set, observes failure-suspicion transitions of
	// watched sources; services use it for audit logging.
	OnSourceState func(source string, from, to SourceState)
	// Funcs are the server-specific constraint functions (§3.3.1).
	Funcs rdl.FuncTable
	// ExtraParents, if set, lets the embedding service contribute
	// additional membership-rule parents at certificate issue time —
	// the "considerable cooperation from the service itself" that
	// attribute-based membership rules need (§3.3.1). The MSSA uses it
	// to tie certificates to ACL-version records (§5.5.2).
	ExtraParents func(rolefile, role string, args []value.Value) []credrec.Parent
	// Store, if set, is the credential-record store the service runs
	// on — typically a recovered, journaling store from the
	// persistence engine (internal/credrec/storage), so certificates
	// issued before a crash validate after recovery and revocations
	// stay revoked. Nil means a fresh in-memory store.
	Store credrec.Recorder
}

// Service is one OASIS service instance.
//
// The engine is read-mostly: the validation hot path (§4.2/§4.6) takes
// no service lock at all — the signature is recomputed and nothing of
// the check is remembered, the credential-record lookup takes one store
// shard read lock, and the audit counters are expvar Ints (Vars). A
// presented certificate is verified on every use; the one signature
// verdict the engine keeps is a Held certificate's, with its holder
// (held.go).
// State that changes rarely (installed rolefiles, foreign type
// signatures) sits behind RWMutexes; mutable bookkeeping is split into
// small independent leaf locks so issuance, delegation and interworking
// contend only on what they actually touch.
//
// Lock order: each of rfMu, typeMu, watchMu, extMu, delegMu and a
// rolefileState.mu is a leaf — no code path acquires one while holding
// another. Store and broker locks may be acquired while holding a
// service leaf lock, never the reverse (the store's change callbacks
// fire with no store lock held).
type Service struct {
	name   string
	clk    clock.Clock
	net    *bus.Network
	signer cert.Signer
	opts   Options

	ops      bus.Ops // the operations the service serves (opTable)
	store    credrec.Recorder
	diskWait bool // store.WaitsForDisk(): a journal's policy is fixed for its life
	groups   *credrec.Groups
	broker   *event.Broker
	receiver *event.Receiver

	rfMu      sync.RWMutex // read-mostly: installed rolefiles
	rolefiles map[string]*rolefileState

	typeMu    sync.RWMutex // read-mostly: foreign role signatures
	typeCache map[string][]value.Type

	// issuer side of a watch: which peers hear of which of our records,
	// one row per record from watchFor to its permanent transition
	watchMu       sync.Mutex
	watchSessions map[string]uint64    // peer -> broker session
	watches       map[uint64][]watcher // record -> its watchers

	// watcher side: the surrogate for each remote credential record
	// (§4.9.1), one row per record from surrogateFor until applyRemote
	// applies a permanent state
	extMu      sync.Mutex
	extRecords map[string]map[uint64]credrec.Ref // source -> remote ref -> local

	// failure-suspicion state per watched source (§4.10 / §6.8.4), and
	// the resync in flight of each source that has one
	suspMu    sync.Mutex
	suspicion map[string]SourceState
	resyncing map[string]*resyncSlot

	// delegation bookkeeping (server-side state per §4.4/§4.11)
	delegMu     sync.Mutex
	delegations map[credrec.Ref]*delegInfo

	// how long the duty loop's last run took and its longest, in
	// nanoseconds of the service clock (StartDuties)
	dutyLast, dutyLongest atomic.Int64

	// memberKeys memoizes the marshalled group-membership key of
	// non-string values (sets, integers), so repeated oracle probes on
	// the same principal stop re-marshalling. Keyed by value.Value
	// (comparable); the population is bounded by the principals the
	// installed policies test, so the map is never evicted.
	memberKeys sync.Map

	// vars is the service's counter registry (Vars); the audit counters
	// of §4.13 sit in it, rejections by failure class.
	vars                            expvar.Map
	issued, validated, heldVerified expvar.Int
	rejected                        [Revoked + 1]expvar.Int
}

// delegInfo is the server-side record of an outstanding delegation:
// the election rule it enables (an index into the rolefile's program)
// and the variables the elector's certificate and the delegated role's
// arguments bound when it was issued.
type delegInfo struct {
	rolefile string
	rule     int
	bindings value.Env
	expiry   time.Time
}

// rolefileState is one loaded rolefile and its runtime indexes. The
// parsed rolefile and type/role maps are immutable after installation;
// only the revocation databases mutate, behind the state's own mutex.
type rolefileState struct {
	id      string
	rf      *rdl.Rolefile
	roleMap *cert.RoleMap
	// prog is the compiled execution plan, built once at installation;
	// machines pools the register machines that run it.
	prog     *rdl.Program
	machines sync.Pool
	// role-based revocation (§4.11): one row per role instance entered
	// under a |> clause, and how many of them are revoked forever
	mu        sync.Mutex
	instances map[string]instanceRow // role instance -> row
	forever   int
}

// instanceRow is one §4.11 role instance. Its kill switch is the record
// of the first certificate issued for it (crr): revoking the instance
// invalidates that record. A shared not-revoked fact is minted only
// when the instance is entered again while crr is undecided, and every
// certificate issued for it from then on descends from the fact. A
// zero reference is none: a record's magic is never 0. A row revoked
// forever keeps no reference, only its bit, until Reinstate drops it.
type instanceRow struct {
	crr, shared credrec.Ref
	rule        int32 // the rule whose |> clause names the revoker
	revoked     bool
}

// New creates a service. net may be nil for a standalone service; clk
// must not be nil.
func New(name string, clk clock.Clock, net *bus.Network, opts Options) (*Service, error) {
	if opts.Signer == nil {
		opts.Signer = cert.NewHMACSigner([]byte("svc-secret:"+name), 16)
	}
	s := &Service{
		name:          name,
		clk:           clk,
		net:           net,
		signer:        opts.Signer,
		opts:          opts,
		store:         opts.Store,
		rolefiles:     make(map[string]*rolefileState),
		typeCache:     make(map[string][]value.Type),
		watchSessions: make(map[string]uint64),
		watches:       make(map[uint64][]watcher),
		extRecords:    make(map[string]map[uint64]credrec.Ref),
		delegations:   make(map[credrec.Ref]*delegInfo),
		suspicion:     make(map[string]SourceState),
		resyncing:     make(map[string]*resyncSlot),
	}
	if s.store == nil {
		s.store = credrec.NewStore()
	}
	s.diskWait = s.store.WaitsForDisk()
	s.groups = credrec.NewGroups(s.store)
	s.broker = event.NewBroker(name, clk, event.BrokerOptions{})
	// A sequence gap means a notification — possibly a revocation — was
	// lost: it feeds the suspicion machinery (suspicion.go).
	s.receiver = event.NewReceiver(s.onNotificationGap)
	s.store.OnChange(s.onRecordChange)
	s.ops = s.opTable()
	if net != nil {
		if err := net.Register(name, s); err != nil {
			return nil, err
		}
		s.vars.Set("bus", net.Vars())
	}
	s.vars.Set("issued", &s.issued)
	s.vars.Set("validated", &s.validated)
	s.vars.Set("held_verified", &s.heldVerified)
	for c := Fraud; c <= Revoked; c++ {
		s.vars.Set(c.String(), &s.rejected[c])
	}
	s.vars.Set("store", s.store.Vars())
	s.vars.Set("sources", expvar.Func(s.sourceVars))
	s.vars.Set("duty", expvar.Func(func() any {
		return map[string]float64{
			"period_s":  s.heartbeatPeriod().Seconds(),
			"last_s":    time.Duration(s.dutyLast.Load()).Seconds(),
			"longest_s": time.Duration(s.dutyLongest.Load()).Seconds(),
		}
	}))
	s.vars.Set("revocable", expvar.Func(s.revocableVars))
	s.vars.Set("watch_sessions", expvar.Func(func() any {
		s.watchMu.Lock()
		defer s.watchMu.Unlock()
		return len(s.watchSessions)
	}))
	s.rebind()
	return s, nil
}

// revocableVars is Vars' "revocable", summed over the rolefiles: the
// §4.11 role instances a revoker may revoke by role ("instances"), and
// those revoked forever ("revoked_forever"). An instance's row outlives
// its certificates, so RevokeByRole can still fire an offline member:
// under a churn of revocable roles the first count grows with every
// instance ever entered (ROADMAP item 11), a row each, while the
// certificates' records are swept as they die.
func (s *Service) revocableVars() any {
	var instances, forever int
	s.rfMu.RLock()
	for _, st := range s.rolefiles {
		st.mu.Lock()
		instances += len(st.instances) - st.forever
		forever += st.forever
		st.mu.Unlock()
	}
	s.rfMu.RUnlock()
	return map[string]int{"instances": instances, "revoked_forever": forever}
}

// Vars returns the service's counter registry, which no one publishes:
// the audit counters of §4.13 ("issued", "validated", and rejections by
// failure class: "fraud", "erroneous", "revoked"), "held_verified"
// (signature checks of held certificates, the misses of their epoch
// memo), the bus's and the store's counters, each watched source's
// suspicion state, "duty", the duty loop's period and how long its last
// and longest runs took on the service clock (StartDuties),
// "revocable", the §4.11 role instances held for revocation by role and
// revoked forever (revocableVars), and "watch_sessions", the broker
// sessions this service holds open for watching peers, one per peer
// name. Embedders
// add their own entries (the gateway, the daemon's journal recovery
// figures). Tests run many services in one process, so the map is
// never handed to expvar.Publish.
func (s *Service) Vars() *expvar.Map { return &s.vars }

// Name returns the service instance name.
func (s *Service) Name() string { return s.name }

// Store exposes the credential record store (used by case-study layers
// such as the MSSA that manage their own policy records).
func (s *Service) Store() credrec.Recorder { return s.store }

// Groups exposes the group membership manager.
func (s *Service) Groups() *credrec.Groups { return s.groups }

// Signer exposes the service's signer (the MSSA layers co-sign with it).
func (s *Service) Signer() cert.Signer { return s.signer }

// Clock exposes the service clock.
func (s *Service) Clock() clock.Clock { return s.clk }

// AddRolefile parses, type-checks and installs a rolefile under the
// given scope identifier (§2.10). Role types referenced from other
// services are resolved with gettypes callbacks over the network.
func (s *Service) AddRolefile(id, src string) error {
	file, err := rdl.Parse(src)
	if err != nil {
		return err
	}
	rf, err := rdl.Check(file, s.resolveTypes, s.opts.Funcs)
	if err != nil {
		return err
	}
	names := rf.Roles()
	roleMap, err := cert.NewRoleMap(names...)
	if err != nil {
		return err
	}
	st := &rolefileState{
		id:        id,
		rf:        rf,
		roleMap:   roleMap,
		instances: make(map[string]instanceRow),
	}
	// Compile the rolefile once at installation: entry requests run the
	// program's execution plans instead of re-walking the AST. The
	// entry-time signatures (gettypes already resolved) are passed so
	// literal arguments are coerced now, not per request.
	sigs := make([]rdl.RuleSig, len(rf.File.Rules))
	for i, rule := range rf.File.Rules {
		if sigs[i], err = s.typesForRule(rf, rule); err != nil {
			return err
		}
	}
	prog, err := rdl.Compile(rf, sigs)
	if err != nil {
		return err
	}
	st.prog = prog
	st.machines.New = func() any { return prog.NewMachine() }
	s.rfMu.Lock()
	defer s.rfMu.Unlock()
	if _, dup := s.rolefiles[id]; dup {
		return fmt.Errorf("oasis: rolefile %q already installed", id)
	}
	s.rolefiles[id] = st
	return nil
}

// typesForRule resolves the argument types of every role reference in a
// rule, so that entry-time matching needs no further callbacks.
func (s *Service) typesForRule(rf *rdl.Rolefile, rule *rdl.Rule) (rdl.RuleSig, error) {
	resolve := func(ref *rdl.RoleRef) ([]value.Type, error) {
		if ref == nil {
			return nil, nil
		}
		if ref.Local() {
			ts, ok := rf.Types[ref.Name]
			if !ok {
				return nil, fmt.Errorf("oasis: unknown local role %s", ref.Name)
			}
			return ts, nil
		}
		return s.resolveTypes(ref.Service, ref.Rolefile, ref.Name)
	}
	var sig rdl.RuleSig
	var err error
	if sig.Head, err = resolve(&rule.Head); err != nil {
		return sig, err
	}
	for i := range rule.Candidates {
		ts, err := resolve(&rule.Candidates[i])
		if err != nil {
			return sig, err
		}
		sig.Candidates = append(sig.Candidates, ts)
	}
	if sig.Elector, err = resolve(rule.Elector); err != nil {
		return sig, err
	}
	if sig.Revoker, err = resolve(rule.Revoker); err != nil {
		return sig, err
	}
	return sig, nil
}

// resolveTypes resolves a role signature, consulting the network for
// foreign services and caching the result (§4.3's gettypes).
func (s *Service) resolveTypes(service, rolefile, role string) ([]value.Type, error) {
	if service == s.name || service == "" {
		return s.localTypes(rolefile, role)
	}
	key := service + "." + rolefile + "." + role
	s.typeMu.RLock()
	ts, ok := s.typeCache[key]
	s.typeMu.RUnlock()
	if ok {
		return ts, nil
	}
	if s.net == nil {
		return nil, fmt.Errorf("oasis: no network to resolve %s", key)
	}
	res, err := s.net.Call(s.name, service, "gettypes", GetTypesArg{Rolefile: rolefile, Role: role})
	if err != nil {
		return nil, err
	}
	ts, ok = res.([]value.Type)
	if !ok {
		return nil, fmt.Errorf("oasis: bad gettypes reply from %s", service)
	}
	s.typeMu.Lock()
	s.typeCache[key] = ts
	s.typeMu.Unlock()
	return ts, nil
}

func (s *Service) localTypes(rolefile, role string) ([]value.Type, error) {
	s.rfMu.RLock()
	defer s.rfMu.RUnlock()
	if rolefile == "" {
		// Search all rolefiles; role names are usually unique per service.
		for _, st := range s.rolefiles {
			if ts, ok := st.rf.Types[role]; ok {
				return ts, nil
			}
		}
		return nil, fmt.Errorf("oasis: unknown role %s in service %s", role, s.name)
	}
	st, ok := s.rolefiles[rolefile]
	if !ok {
		return nil, fmt.Errorf("oasis: unknown rolefile %s", rolefile)
	}
	ts, ok := st.rf.Types[role]
	if !ok {
		return nil, fmt.Errorf("oasis: unknown role %s in rolefile %s", role, rolefile)
	}
	return ts, nil
}

// rolefileFor returns the named rolefile state, defaulting to the sole
// installed rolefile when id is empty.
func (s *Service) rolefileFor(id string) (*rolefileState, error) {
	s.rfMu.RLock()
	defer s.rfMu.RUnlock()
	if id == "" {
		if len(s.rolefiles) == 1 {
			for _, st := range s.rolefiles {
				return st, nil
			}
		}
		return nil, fmt.Errorf("oasis: rolefile id required (service has %d rolefiles)", len(s.rolefiles))
	}
	st, ok := s.rolefiles[id]
	if !ok {
		return nil, fmt.Errorf("oasis: unknown rolefile %q", id)
	}
	return st, nil
}

// instanceKey canonically names a role instance for the role-based
// revocation table (§4.11).
func instanceKey(role string, args []value.Value) string {
	return role + "(" + value.MarshalArgs(args) + ")"
}

// InstanceRevoked reports whether a role instance is revoked forever
// (§4.11). Gateways use it to tell an
// idempotent re-revocation (the instance is already revoked — success)
// from a revocation of something that never existed.
func (s *Service) InstanceRevoked(rolefile, role string, args []value.Value) bool {
	st, err := s.rolefileFor(rolefile)
	if err != nil {
		return false
	}
	key := instanceKey(role, args)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.instances[key].revoked
}
