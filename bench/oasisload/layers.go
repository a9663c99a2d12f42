package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"oasis/internal/bus"
	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/credrec/storage"
	"oasis/internal/event"
	"oasis/internal/oasis"
	"oasis/internal/rdl"
	"oasis/internal/value"
)

// Layer probes: each per-layer metric is a timed (or counted) call
// into one layer's public functions, made from here with the arguments
// the workloads produce. They run on every traced pass, on any
// workload, so a change to one layer shows in that layer's numbers
// whichever workload the driver happens to trace; the workload decides
// only the rolefile the rdl probes load and the live size the storage
// probes snapshot.

// sink defeats dead-code elimination of the calls the probes time.
var sink atomic.Uint64

// batched times rounds of n back-to-back calls and returns the median
// nanoseconds per call over the rounds: for calls too short to time
// one by one.
func batched(rounds, n int, op func()) float64 {
	per := make([]float64, rounds)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per[r] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// perOp times op once per iteration, running prepare untimed before
// each, and returns the median in nanoseconds: for calls that consume
// their input (a revocation, a cascade).
func perOp(n int, prepare func(i int) error, op func(i int) error) (float64, error) {
	per := make([]float64, n)
	for i := range per {
		if prepare != nil {
			if err := prepare(i); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		err := op(i)
		per[i] = float64(time.Since(start).Nanoseconds())
		if err != nil {
			return 0, err
		}
	}
	return median(per), nil
}

// allocsPerOp reports heap allocations and bytes per call, from the
// runtime's cumulative counters around n calls on this goroutine.
// Goroutines the call itself starts (the gateway's timeout handler
// runs the inner handler on one) are counted, which is the point.
func allocsPerOp(n int, op func(i int)) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// nsProbeRounds is how many batches a batched probe takes its median
// over.
const nsProbeRounds = 7

// layerProbes measures every per-layer metric that is a call into a
// layer. gatewayAddr is a live daemon's gateway, for the one probe
// that needs the process boundary.
func layerProbes(h *harness, def workloadDef, sc scale, gatewayAddr string) (map[string]metric, error) {
	out := map[string]metric{}
	put := func(name, unit string, v float64, n int) { out[name] = metric{v, unit, n} }
	dir, err := h.tmpDir("probe")
	if err != nil {
		return nil, err
	}
	for _, probe := range []func(put putFunc, def workloadDef, sc scale, dir, gatewayAddr string) error{
		probeGatewayAndOasis, probeRDL, probeCert, probeCredrec, probeStorage, probeBus, probeEvent, probeStormEngine,
	} {
		if err := probe(put, def, sc, dir, gatewayAddr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// putFunc records one measured per-layer metric.
type putFunc = func(name, unit string, v float64, n int)

// probeGatewayAndOasis times the three gateway handlers and the engine
// calls inside them on a plain replica. A handler's self time is its
// median minus the median of the oasis.Service call it makes.
func probeGatewayAndOasis(put putFunc, def workloadDef, sc scale, dir, gatewayAddr string) error {
	r, err := newReplica(plainStore, "")
	if err != nil {
		return err
	}
	defer r.close()
	tok, crt, err := r.issueToken("probe")
	if err != nil {
		return err
	}

	// introspect: handler vs Service.Validate.
	introspectBody := tokenJSON(tok)
	handler, err := perOp(4*sc.probeOps, nil, func(int) error {
		if status, body := r.post("/v1/introspect", introspectBody); status != http.StatusOK || !isActive(body, rolesLoggedOn) {
			return fmt.Errorf("probe: replica introspect answered %d %s", status, body)
		}
		return nil
	})
	if err != nil {
		return err
	}
	validate := batched(nsProbeRounds, sc.probeBatch, func() {
		if r.svc.Validate(crt, crt.Client) == nil {
			sink.Add(1)
		}
	})
	put("oasis.validate_ns", "ns", validate, nsProbeRounds*sc.probeBatch)
	put("gateway.introspect_self_us", "us", (handler-validate)/1e3, 4*sc.probeOps)
	a, b := allocsPerOp(sc.probeOps, func(int) { r.post("/v1/introspect", introspectBody) })
	put("gateway.introspect_allocs", "count", a, sc.probeOps)
	put("gateway.introspect_bytes", "B", b, sc.probeOps)
	a, _ = allocsPerOp(sc.probeBatch, func(int) { _ = r.svc.Validate(crt, crt.Client) })
	put("oasis.validate_allocs", "count", a, sc.probeBatch)

	// The process boundary: the same introspection against a live
	// daemon over a raw socket, minus the handler.
	g, err := dialGateway(gatewayAddr)
	if err != nil {
		return err
	}
	defer g.close()
	scratch := scratchRecorder()
	liveTok, _, _, ok, err := issue(g, gatewayAddr, tokenBody(benchClient(8), "LoggedOn", loggedOnArgs("probe"), nil), rolesLoggedOn, scratch)
	if err != nil || !ok {
		return fmt.Errorf("probe: issuing a token at %s failed (%v)", gatewayAddr, err)
	}
	req := newTokenRequest(gatewayAddr, "/v1/introspect")
	rtt, err := perOp(4*sc.probeOps, nil, func(int) error {
		body, _, ok, err := g.exchange(req.with(liveTok), scratch)
		if err != nil || !ok || !isActive(body, rolesLoggedOn) {
			return fmt.Errorf("probe: live introspect failed (%v)", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("gateway.http_self_us", "us", (rtt-handler)/1e3, 4*sc.probeOps)

	// issue: handler vs Service.Enter; Enter's self time is what is
	// left after its rdl, credrec and cert leaves.
	issueBody := tokenBody(r.id, "LoggedOn", loggedOnArgs("probe"), nil)
	handlerIssue, err := perOp(sc.probeOps, nil, func(int) error {
		if status, body := r.post("/v1/token", issueBody); status != http.StatusOK {
			return fmt.Errorf("probe: replica issue answered %d %s", status, body)
		}
		return nil
	})
	if err != nil {
		return err
	}
	enterReq := r.loggedOnRequest("probe")
	enter := batched(nsProbeRounds, sc.probeBatch/4, func() {
		if c, err := r.svc.Enter(enterReq); err == nil {
			sink.Add(uint64(len(c.Sig)))
		}
	})
	leaves, err := enterLeaves(r.svc, sc, loginRolefile, "LoggedOn", enterReq.Args, nil)
	if err != nil {
		return err
	}
	put("gateway.issue_self_us", "us", (handlerIssue-enter)/1e3, sc.probeOps)
	put("oasis.enter_self_us", "us", (enter-leaves.total())/1e3, sc.probeOps)
	a, b = allocsPerOp(sc.probeOps, func(int) { r.post("/v1/token", issueBody) })
	put("gateway.issue_allocs", "count", a, sc.probeOps)
	put("gateway.issue_bytes", "B", b, sc.probeOps)
	issueAllocs := a
	a, _ = allocsPerOp(sc.probeOps, func(int) { _, _ = r.svc.Enter(enterReq) })
	put("oasis.enter_allocs", "count", a, sc.probeOps)

	// revoke: handler vs Service.RevokeDirect on a certificate with no
	// dependents. Each iteration consumes a fresh token.
	var curTok string
	var curCert *cert.RMC
	fresh := func(int) error {
		var err error
		curTok, curCert, err = r.issueToken("probe")
		return err
	}
	handlerRevoke, err := perOp(sc.probeOps, fresh, func(int) error {
		if status, body := r.post("/v1/revoke", tokenJSON(curTok)); status != http.StatusOK {
			return fmt.Errorf("probe: replica revoke answered %d %s", status, body)
		}
		return nil
	})
	if err != nil {
		return err
	}
	revoke, err := perOp(sc.probeOps, fresh, func(int) error { return r.svc.RevokeDirect(curCert) })
	if err != nil {
		return err
	}
	put("gateway.revoke_self_us", "us", (handlerRevoke-revoke)/1e3, sc.probeOps)
	put("oasis.revoke_direct_us", "us", revoke/1e3, sc.probeOps)
	a, _ = allocsPerOp(sc.probeOps, func(int) {
		if t, _, err := r.issueToken("probe"); err == nil {
			r.post("/v1/revoke", tokenJSON(t))
		}
	})
	put("gateway.revoke_allocs", "count", a-issueAllocs, sc.probeOps)

	// validate as a peer asks it, with no wire.
	arg := oasis.ValidateArg{Cert: crt, Client: crt.Client}
	call, err := perOp(4*sc.probeOps, nil, func(int) error {
		_, err := r.svc.Call(peerCaller, "validate", arg)
		return err
	})
	if err != nil {
		return err
	}
	put("oasis.call_validate_us", "us", call/1e3, 4*sc.probeOps)
	return nil
}

// leafTimes are the medians, in nanoseconds, of the leaf calls one
// role entry makes.
type leafTimes struct{ rdl, credrec, cert float64 }

func (l leafTimes) total() float64 { return l.rdl + l.credrec + l.cert }

// compileRolefile loads a rolefile the way Service.AddRolefile does,
// resolving the storm's one foreign role from its known signature.
func compileRolefile(src string) (*rdl.Program, error) {
	file, err := rdl.Parse(src)
	if err != nil {
		return nil, err
	}
	foreign := func(service, rolefile, role string) ([]value.Type, error) {
		if service == "Login" && role == "Session" {
			return []value.Type{value.ObjectType("Login.userid"), value.IntType}, nil
		}
		return nil, fmt.Errorf("probe: no signature for %s.%s", service, role)
	}
	rf, err := rdl.Check(file, foreign, nil)
	if err != nil {
		return nil, err
	}
	return rdl.Compile(rf, nil)
}

// evalRule runs the entry rule for role through its compiled plan the
// way the engine's entry path does: seed the head from the request,
// match each candidate, run the constraint, instantiate the head.
func evalRule(prog *rdl.Program, m *rdl.Machine, role string, args []value.Value, candArgs [][]value.Value) bool {
	for _, ri := range prog.RulesFor(role) {
		cr := &prog.Rules[ri]
		m.Reset(ri)
		m.BindHost(value.Str("bench"))
		if args != nil && !m.MatchPlan(&cr.Head, args) {
			continue
		}
		matched := len(candArgs) == len(cr.Cands)
		for ci := 0; matched && ci < len(cr.Cands); ci++ {
			matched = m.MatchPlan(&cr.Cands[ci], candArgs[ci])
		}
		if !matched {
			continue
		}
		ok, err := m.RunConstraint(rdl.GroupOracleFunc(func(value.Value, string) bool { return false }), nil)
		if err != nil || !ok {
			continue
		}
		if _, ok := m.Instantiate(&cr.Head); ok {
			return true
		}
	}
	return false
}

// enterLeaves times the leaf calls of one entry to role with the
// request's arguments: rule evaluation, the credential-record insert
// (on the service's own store, so a journaled store pays its append)
// and certificate signing.
func enterLeaves(svc *oasis.Service, sc scale, rolefile, role string, args []value.Value, candArgs [][]value.Value) (leafTimes, error) {
	var l leafTimes
	prog, err := compileRolefile(rolefile)
	if err != nil {
		return l, err
	}
	m := prog.NewMachine()
	if !evalRule(prog, m, role, args, candArgs) {
		return l, fmt.Errorf("probe: no rule of the rolefile grants %s%v", role, args)
	}
	l.rdl = batched(nsProbeRounds, sc.probeBatch, func() {
		if evalRule(prog, m, role, args, candArgs) {
			sink.Add(1)
		}
	})
	store := svc.Store()
	l.credrec = batched(nsProbeRounds, sc.probeBatch/4, func() {
		if store.MarkDirectUse(store.NewFact(credrec.True)) == nil {
			sink.Add(1)
		}
	})
	l.cert = signNS(svc.Signer(), sc, svc.Name(), args)
	return l, nil
}

// signNS times signing a freshly built certificate: building the
// canonical bytes and the HMAC, as issuance pays them.
func signNS(signer cert.Signer, sc scale, service string, args []value.Value) float64 {
	id := benchClient(7)
	return batched(nsProbeRounds, sc.probeBatch/4, func() {
		c := &cert.RMC{Service: service, Rolefile: "main", Roles: 1, Args: args, Client: id, CRR: credrec.Ref{Index: 1, Magic: 1}}
		c.Sign(signer)
		sink.Add(uint64(len(c.Sig)))
	})
}

func probeRDL(put putFunc, def workloadDef, sc scale, dir, gatewayAddr string) error {
	src, role := loginRolefile, "LoggedOn"
	args := []value.Value{value.Object("Login.userid", "probe"), value.Object("Login.host", "bench")}
	var cands [][]value.Value
	if def.name == "revoke_storm" {
		// The storm's entry rule with a premise: Session from LoggedOn.
		src, role = stormLoginRolefile, "Session"
		cands = [][]value.Value{args}
		args = []value.Value{args[0], value.Int(3)}
	}
	prog, err := compileRolefile(src)
	if err != nil {
		return err
	}
	m := prog.NewMachine()
	if !evalRule(prog, m, role, args, cands) {
		return fmt.Errorf("probe: rule for %s does not apply", role)
	}
	put("rdl.eval_rule_ns", "ns", batched(nsProbeRounds, sc.probeBatch, func() {
		if evalRule(prog, m, role, args, cands) {
			sink.Add(1)
		}
	}), nsProbeRounds*sc.probeBatch)
	load, err := perOp(sc.probeOps, nil, func(int) error {
		_, err := compileRolefile(src)
		return err
	})
	if err != nil {
		return err
	}
	put("rdl.load_us", "us", load/1e3, sc.probeOps)
	return nil
}

func probeCert(put putFunc, def workloadDef, sc scale, dir, gatewayAddr string) error {
	signer := cert.NewHMACSigner([]byte("svc-secret:Login"), 16)
	args := []value.Value{value.Object("Login.userid", "probe"), value.Object("Login.host", "bench")}
	put("cert.sign_ns", "ns", signNS(signer, sc, "Login", args), nsProbeRounds*sc.probeBatch/4)

	c := &cert.RMC{Service: "Login", Rolefile: "main", Roles: 1, Args: args, Client: benchClient(7), CRR: credrec.Ref{Index: 1, Magic: 1}}
	c.Sign(signer)
	vc := cert.NewVerifyCache()
	if !vc.VerifyRMC(c, signer) {
		return fmt.Errorf("probe: a freshly signed certificate does not verify")
	}
	put("cert.verify_cached_ns", "ns", batched(nsProbeRounds, sc.probeBatch, func() {
		if vc.VerifyRMC(c, signer) {
			sink.Add(1)
		}
	}), nsProbeRounds*sc.probeBatch)
	// Cold: every call sees a certificate instance that has never been
	// verified, as one just decoded off the wire is.
	put("cert.verify_cold_ns", "ns", batched(nsProbeRounds, sc.probeBatch/4, func() {
		fresh := &cert.RMC{Service: c.Service, Rolefile: c.Rolefile, Roles: c.Roles, Args: c.Args, Client: c.Client, CRR: c.CRR, Sig: c.Sig}
		if fresh.Verify(signer) {
			sink.Add(1)
		}
	}), nsProbeRounds*sc.probeBatch/4)
	return nil
}

func probeCredrec(put putFunc, def workloadDef, sc scale, dir, gatewayAddr string) error {
	st := credrec.NewStore()
	refs := make([]credrec.Ref, 1024)
	for i := range refs {
		refs[i] = st.NewFact(credrec.True)
	}
	i := 0
	put("credrec.lookup_ns", "ns", batched(nsProbeRounds, sc.probeBatch, func() {
		if s, err := st.Lookup(refs[i&1023]); err == nil {
			sink.Add(uint64(s))
		}
		i++
	}), nsProbeRounds*sc.probeBatch)

	ss, err := credrec.NewShardedStore([]string{"s00", "s01", "s02", "s03"}, 0)
	if err != nil {
		return err
	}
	for i := range refs {
		refs[i] = ss.NewFact(credrec.True)
	}
	put("credrec.sharded_lookup_ns", "ns", batched(nsProbeRounds, sc.probeBatch, func() {
		if s, err := ss.Lookup(refs[i&1023]); err == nil {
			sink.Add(uint64(s))
		}
		i++
	}), nsProbeRounds*sc.probeBatch)

	a, b := st.NewFact(credrec.True), st.NewFact(credrec.True)
	put("credrec.new_derived_ns", "ns", batched(nsProbeRounds, sc.probeBatch/4, func() {
		sink.Add(st.NewDerived(credrec.OpAnd, credrec.Of(a), credrec.Of(b)).Uint64())
	}), nsProbeRounds*sc.probeBatch/4)

	// One fact with K conjunction children, each also resting on a fact
	// of its own: the graph one storm login builds at Login.
	k := sc.stormK
	var root credrec.Ref
	build := func(s *credrec.Store) credrec.Ref {
		root := s.NewFact(credrec.True)
		for n := 0; n < k; n++ {
			s.NewDerived(credrec.OpAnd, credrec.Of(root), credrec.Of(s.NewFact(credrec.True)))
		}
		return root
	}
	cascade, err := perOp(sc.probeOps, func(int) error { root = build(st); return nil }, func(int) error { return st.Invalidate(root) })
	if err != nil {
		return err
	}
	put("credrec.invalidate_us_per_dep", "us", cascade/1e3/float64(k), sc.probeOps)

	// Sweep: a store of revoked logins, as the durable workload's store
	// looks just before a snapshot.
	const sweepRecords = 4000
	sweep, err := perOp(9, func(int) error {
		st = credrec.NewStore()
		for n := 0; n < sweepRecords; n++ {
			if err := st.Invalidate(st.NewFact(credrec.True)); err != nil {
				return err
			}
		}
		return nil
	}, func(int) error {
		if freed := st.Sweep(); freed != sweepRecords {
			return fmt.Errorf("probe: sweep freed %d of %d revoked records", freed, sweepRecords)
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("credrec.sweep_us_per_krec", "us", sweep/1e3/(sweepRecords/1000), 9)
	return nil
}

// liveSize is how many records the storage probes snapshot and
// recover: the workload's live population.
func liveSize(def workloadDef, sc scale) int {
	switch def.name {
	case "introspect_hot":
		return sc.hotTokens
	case "peer_validate":
		return sc.peerCerts
	default:
		return sc.keptTokens
	}
}

func probeStorage(put putFunc, def workloadDef, sc scale, dir, gatewayAddr string) error {
	storeDir := filepath.Join(dir, "store")
	opts := storage.Options{Sync: credrec.SyncBatched}
	be, err := storage.OpenDir(storeDir)
	if err != nil {
		return err
	}
	eng, err := storage.Open(be, opts)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			_ = eng.Close() // error path only; the success path checks Close below
		}
	}()
	ls := eng.Store()
	live := liveSize(def, sc)
	for i := 0; i < live; i++ {
		ls.NewFact(credrec.True)
	}
	// One journaled mutation under batched sync: the insert plus
	// whatever the caller waits for the group commit.
	appendNS, err := perOp(4*sc.probeOps, nil, func(int) error {
		ls.NewFact(credrec.True)
		return nil
	})
	if err != nil {
		return err
	}
	put("storage.append_us", "us", appendNS/1e3, 4*sc.probeOps)
	snap, err := perOp(3, nil, func(int) error { return eng.Snapshot() })
	if err != nil {
		return err
	}
	put("storage.snapshot_ms", "ms", snap/1e6, 3)
	// Journal growth per mutation, on a fresh segment after the
	// snapshots: exact, because every NewFact record has one size.
	mid, err := dirBytes(storeDir)
	if err != nil {
		return err
	}
	const grown = 1000
	for i := 0; i < grown; i++ {
		ls.NewFact(credrec.True)
	}
	if err := eng.Close(); err != nil {
		return fmt.Errorf("probe: closing the store: %w", err)
	}
	closed = true
	end, err := dirBytes(storeDir)
	if err != nil {
		return err
	}
	put("storage.journal_bytes_per_op", "B", float64(end-mid)/grown, grown)
	put("storage.dir_bytes_end", "B", float64(end), 1)

	recover, err := perOp(3, nil, func(int) error {
		be, err := storage.OpenDir(storeDir)
		if err != nil {
			return err
		}
		e, err := storage.Open(be, opts)
		if err != nil {
			return err
		}
		if got := e.Store().Live(); got < live {
			_ = e.Close()
			return fmt.Errorf("probe: recovered %d records, want at least %d", got, live)
		}
		return e.Close()
	})
	if err != nil {
		return err
	}
	put("storage.recover_ms", "ms", recover/1e6, 3)
	return nil
}

// countingEndpoint is a bus endpoint that counts what is delivered and
// says so on arrived, which a probe blocks on.
type countingEndpoint struct {
	delivered atomic.Int64
	arrived   chan struct{}
}

func newCountingEndpoint() *countingEndpoint {
	// One slot: a signal sent while the probe is not yet waiting is
	// kept, and further ones add nothing to it.
	return &countingEndpoint{arrived: make(chan struct{}, 1)}
}

func (c *countingEndpoint) note(n int) {
	c.delivered.Add(int64(n))
	select {
	case c.arrived <- struct{}{}:
	default:
	}
}

func (c *countingEndpoint) Call(from, op string, arg any) (any, error) { return nil, nil }
func (c *countingEndpoint) Deliver(n event.Notification)               { c.note(1) }
func (c *countingEndpoint) DeliverBatch(notes []event.Notification)    { c.note(len(notes)) }

// modifiedRule is the coalescing rule every oasis service installs on
// its network (a later Modified event for the same record supersedes
// an earlier one; a permanent False is sticky), restated here because
// the probe's networks carry no service.
var modifiedRule = bus.CoalesceRule{
	Key: func(ev event.Event) string {
		if ev.Name != oasis.ModifiedEvent || len(ev.Args) != 3 {
			return ""
		}
		return ev.Args[0].S
	},
	Sticky: func(ev event.Event) bool {
		return len(ev.Args) == 3 && ev.Args[1].I == 0 && ev.Args[2].I != 0
	},
}

func modifiedNote(ref uint64, seq uint64) event.Notification {
	return event.Notification{
		Source: "Login", SessionID: 1, Seq: seq, RegID: ref,
		Event: event.New(oasis.ModifiedEvent, value.Str(fmt.Sprintf("%x", ref)), value.Int(0), value.Int(1)),
	}
}

func probeBus(put putFunc, def workloadDef, sc scale, dir, gatewayAddr string) error {
	oasis.RegisterWireTypes()
	// Codec: the validate argument as peer_validate sends it.
	w, err := newPeerWorld()
	if err != nil {
		return err
	}
	defer w.close()
	crt, err := w.svc.Enter(oasis.EnterRequest{
		Client: benchClient(7), Rolefile: "main", Role: "LoggedOn",
		Args: []value.Value{value.Object("Login.userid", "probe"), value.Object("Login.host", "bench")},
	})
	if err != nil {
		return err
	}
	arg := oasis.ValidateArg{Cert: crt, Client: crt.Client}
	var buf bytes.Buffer
	enc := bus.NewWireEnc(&buf)
	if err := bus.EncodePayload(enc, arg); err != nil {
		return err
	}
	wire := append([]byte(nil), buf.Bytes()...)
	put("bus.validate_wire_bytes", "B", float64(len(wire)), 1)
	put("bus.encode_validate_ns", "ns", batched(nsProbeRounds, sc.probeBatch/4, func() {
		buf.Reset()
		if bus.EncodePayload(enc, arg) == nil {
			sink.Add(uint64(buf.Len()))
		}
	}), nsProbeRounds*sc.probeBatch/4)
	rd := bytes.NewReader(wire)
	dec := bus.NewWireDec(rd)
	put("bus.decode_validate_ns", "ns", batched(nsProbeRounds, sc.probeBatch/4, func() {
		rd.Reset(wire)
		if v, err := bus.DecodePayload(dec); err == nil && v != nil {
			sink.Add(1)
		}
	}), nsProbeRounds*sc.probeBatch/4)

	// A call over loopback TCP minus the same call with no wire.
	overTCP, err := perOp(4*sc.probeOps, nil, func(int) error {
		reply, err := validateCall(w.caller, crt)
		if err == nil && reply.State != credrec.True {
			err = fmt.Errorf("probe: validate over TCP answered %v", reply.State)
		}
		return err
	})
	if err != nil {
		return err
	}
	direct, err := perOp(4*sc.probeOps, nil, func(int) error {
		_, err := w.svc.Call(peerCaller, "validate", arg)
		return err
	})
	if err != nil {
		return err
	}
	put("bus.call_self_us", "us", (overTCP-direct)/1e3, 4*sc.probeOps)

	// K notifications to a TCP remote, batched as a cascade sends them,
	// until the far endpoint has them all.
	k := sc.stormK
	far := bus.NewNetwork(clock.Real())
	farEnd := newCountingEndpoint()
	if err := far.Register("Watcher", farEnd); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() { _ = far.ServeTCP(ln) }() // returns when the listener closes
	near := bus.NewNetwork(clock.Real())
	near.SetCoalesceRule(modifiedRule)
	if err := near.AddRemote("Watcher", ln.Addr().String()); err != nil {
		return err
	}
	defer near.CloseRemotes()
	var seq uint64
	notify, err := perOp(sc.probeOps, nil, func(int) error {
		want := farEnd.delivered.Load() + int64(k)
		near.StartBatch("Login")
		for n := 0; n < k; n++ {
			seq++
			near.Send("Login", "Watcher", modifiedNote(seq, seq))
		}
		near.EndBatch("Login")
		timeout := time.After(requestTimeout)
		for farEnd.delivered.Load() < want {
			select {
			case <-farEnd.arrived:
			case <-timeout:
				return fmt.Errorf("probe: %d of %d notifications delivered over TCP", farEnd.delivered.Load()-want+int64(k), k)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("bus.notify_us_per_note", "us", notify/1e3/float64(k), sc.probeOps)
	put("bus.coalesce_ratio", "ratio", float64(farEnd.delivered.Load())/float64(near.Count("notify")), near.Count("notify"))

	// The parked ring workload's stand-in: one burst down a 4-member
	// in-process dissemination tree.
	members := []string{"m0", "m1", "m2", "m3"}
	treeNet := bus.NewNetwork(clock.Real())
	ends := make([]*countingEndpoint, len(members))
	for i, m := range members {
		ends[i] = newCountingEndpoint()
		if err := treeNet.Register(m, ends[i]); err != nil {
			return err
		}
	}
	tree, err := bus.NewTree(members, 0)
	if err != nil {
		return err
	}
	diss := make([]*bus.Disseminator, len(members))
	for i, m := range members {
		diss[i] = bus.NewDisseminator(treeNet, tree, m, false)
	}
	burst := make([]event.Notification, k)
	for n := range burst {
		burst[n] = modifiedNote(uint64(n+1), uint64(n+1))
	}
	forward, err := perOp(sc.probeOps, nil, func(int) error {
		// Every member relays what reached it, root first, so the burst
		// crosses every edge of the tree.
		for _, d := range diss {
			d.Forward(members[0], burst)
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("bus.tree_forward_us", "us", forward/1e3, sc.probeOps)
	return nil
}

func probeEvent(put putFunc, def workloadDef, sc scale, dir, gatewayAddr string) error {
	k := sc.stormK
	broker := event.NewBroker("Login", clock.Real(), event.BrokerOptions{})
	var got atomic.Int64
	for s := 0; s < 2; s++ {
		sess, err := broker.OpenSession(event.SinkFunc(func(event.Notification) { got.Add(1) }), nil)
		if err != nil {
			return err
		}
		for n := 0; n < k/2; n++ {
			tmpl := event.NewTemplate(oasis.ModifiedEvent, event.Lit(value.Str("1")), event.Wildcard(), event.Wildcard())
			if _, err := broker.Register(sess, tmpl); err != nil {
				return err
			}
		}
	}
	ev := event.New(oasis.ModifiedEvent, value.Str("1"), value.Int(0), value.Int(1))
	signal, err := perOp(4*sc.probeOps, nil, func(int) error {
		before := got.Load()
		broker.Signal(ev)
		if d := got.Load() - before; d != int64(k/2*2) {
			return fmt.Errorf("probe: one signal reached %d of %d registrations", d, k/2*2)
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("event.signal_us", "us", signal/1e3, 4*sc.probeOps)
	a, _ := allocsPerOp(sc.probeOps, func(int) { broker.Signal(ev) })
	put("event.signal_allocs", "count", a, sc.probeOps)
	return nil
}

// probeStormEngine times the engine calls of the storm with no wire:
// cross-service entry and the cascading revocation.
func probeStormEngine(put putFunc, def workloadDef, sc scale, dir, gatewayAddr string) error {
	w, err := newStormWorld(false, sc.stormK)
	if err != nil {
		return err
	}
	defer w.close()
	const rounds = 60
	var rd *stormRound
	cascade, err := perOp(rounds, func(i int) error {
		var err error
		rd, err = w.enterRound(userName(i))
		return err
	}, func(int) error { return w.login.RevokeDirect(rd.login) })
	if err != nil {
		return err
	}
	put("oasis.cascade_us_per_dep", "us", cascade/1e3/float64(sc.stormK), rounds)

	// Entry with a foreign credential: each call validates a Session
	// certificate it has not seen, so the callback to Login and the
	// watch registration are paid every time, as in the storm.
	lo, err := w.enterRound("remote")
	if err != nil {
		return err
	}
	uid := value.Object("Login.userid", "remote")
	var sess *cert.RMC
	remote, err := perOp(sc.probeOps/2, func(i int) error {
		var err error
		sess, err = w.login.Enter(oasis.EnterRequest{
			Client: w.id, Rolefile: "main", Role: "Session",
			Args: []value.Value{uid, value.Int(int64(1000 + i))}, Creds: []*cert.RMC{lo.login},
		})
		return err
	}, func(int) error {
		_, err := w.confs[0].Enter(oasis.EnterRequest{Client: w.id, Rolefile: "main", Role: "R", Creds: []*cert.RMC{sess}})
		return err
	})
	if err != nil {
		return err
	}
	put("oasis.enter_remote_us", "us", remote/1e3, sc.probeOps/2)
	return nil
}
