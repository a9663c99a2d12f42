package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"oasis/internal/cert"
	"oasis/internal/clock"
	"oasis/internal/credrec"
	"oasis/internal/event"
	"oasis/internal/oasis"
	"oasis/internal/value"
)

// The traced pass. Spans are recorded from the benchmark's own files,
// around the calls into each layer; nothing inside the program is
// instrumented (in-program tracing is a later change). One operation
// is therefore not followed through the layers in a single execution:
// it is replayed at successive depths — the client call against the
// real daemon, the same request into an in-process replica's handler
// (or bus network), the engine call that handler makes, the leaf calls
// the engine makes — and the spans of one operation share a trace id,
// each depth's span naming the depth above as its parent. A layer's
// self time is the median of its span minus the median of its child's.

// span is one timed call.
type span struct {
	Trace    uint64 `json:"trace"`
	Span     uint64 `json:"span"`
	Parent   uint64 `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the pass ends.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

// add records a span that ended now and lasted d, and returns its id.
func (t *tracer) add(trace, parent uint64, layer, name string, d time.Duration) uint64 {
	end := time.Since(t.epoch)
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		Trace: trace, Span: id, Parent: parent, Layer: layer, Name: name,
		StartNS: int64(end - d), EndNS: int64(end), Workload: t.workload,
	})
	return id
}

// write appends the spans to path as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// opTrace is one operation of the replay: its trace id and the span of
// the deepest depth recorded so far, which the next depth names as its
// parent.
type opTrace struct {
	trace  uint64
	parent uint64
}

// classTrace gathers one operation class's durations (µs) by depth.
type classTrace struct {
	class  opClass
	mid    string // the layer at depth 1: "gateway" or "bus"
	depth  [3][]float64
	leaves map[string][]float64
	ops    []opTrace
}

func newClassTrace(class opClass, mid string) *classTrace {
	return &classTrace{class: class, mid: mid, leaves: map[string][]float64{}}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// at records op i's span at a depth (1 or 2) and returns nothing: the
// span becomes the op's parent for the next depth.
func (c *classTrace) at(t *tracer, i, depth int, d time.Duration) {
	layer := c.mid
	if depth == 2 {
		layer = "oasis"
	}
	op := &c.ops[i]
	op.parent = t.add(op.trace, op.parent, layer, opClassNames[c.class], d)
	c.depth[depth] = append(c.depth[depth], us(d))
}

// leaf records one of op i's leaf calls, under its depth-2 span.
func (c *classTrace) leaf(t *tracer, i int, layer, name string, d time.Duration) {
	op := c.ops[i]
	t.add(op.trace, op.parent, layer, name, d)
	c.leaves[layer] = append(c.leaves[layer], us(d))
}

// budget renders the class's layered budget: every layer's self time,
// summing to the depth-0 median.
func (c *classTrace) budget() string {
	m0, m1, m2 := median(c.depth[0]), median(c.depth[1]), median(c.depth[2])
	var leafSum float64
	var parts []string
	names := make([]string, 0, len(c.leaves))
	for name := range c.leaves {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := median(c.leaves[name])
		leafSum += m
		parts = append(parts, fmt.Sprintf("%s %.2f", name, m))
	}
	return fmt.Sprintf("%s: oasisd %.1f us = oasisd.self %.1f + %s.self %.1f + oasis.self %.2f + leaves[%s] (n=%d)",
		opClassNames[c.class], m0, m0-m1, c.mid, m1-m2, m2-leafSum, strings.Join(parts, " + "), len(c.depth[0]))
}

// timed runs f and returns how long it took.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// runTraced is the traced pass for one workload: a short untraced
// window for the process-level diagnostics, the depth-0 replay against
// the live daemons with span recording off and on (the difference is
// the tracing overhead), the deeper replays against in-process
// replicas, and the layer probes.
func runTraced(h *harness, def workloadDef, cfg runConfig) (*workloadResult, error) {
	cfg.window /= 3
	cfg.minSetups, cfg.maxSetups = 1, 1
	cfg.clients = 1
	cfg.diagnosticOnly = true
	r, err := deployWorkload(h, def, cfg)
	if err != nil {
		return nil, err
	}
	defer r.close(h)
	w, before, after, hwmKB, err := r.drive(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	res, err := r.assemble(w, before, after, hwmKB, cfg)
	if err != nil {
		return nil, err
	}

	t := &tracer{workload: def.name, epoch: time.Now()}
	classes, overhead, err := depth0(r, def, t, cfg.sc.traceSample)
	if err != nil {
		return nil, fmt.Errorf("%s: traced replay: %w", def.name, err)
	}
	res.PerLayer["oasisd.trace_overhead_share"] = metric{overhead, "ratio", len(classes[0].depth[0])}

	dir, err := h.tmpDir("trace")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var live int
	switch def.name {
	case "introspect_hot":
		live, err = replayGateway(t, classes, shardedStore, "", rng)
	case "token_lifecycle_durable":
		live, err = replayGateway(t, classes, durableStore, filepath.Join(dir, "store"), rng)
	case "peer_validate":
		live, err = replayPeer(t, classes[0], rng)
	case "revoke_storm":
		live, err = replayStorm(t, classes[0], cfg.sc.stormK, rng)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: traced replay: %w", def.name, err)
	}
	res.PerLayer["credrec.live_records"] = metric{float64(live), "count", 1}
	for _, c := range classes {
		res.Budget = append(res.Budget, c.budget())
	}

	probes, err := layerProbes(h, def, cfg.sc, r.dep.daemons()[0].httpAddr)
	if err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", def.name, err)
	}
	for name, m := range probes {
		res.PerLayer[name] = m
	}
	if err := t.write(filepath.Join(h.outDir, "trace.jsonl")); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}

// tracedClasses are the operation classes a workload's budget covers,
// headline first.
func tracedClasses(def workloadDef) []*classTrace {
	switch def.name {
	case "token_lifecycle_durable":
		return []*classTrace{newClassTrace(opIssue, "gateway"), newClassTrace(opIntrospect, "gateway"), newClassTrace(opRevoke, "gateway")}
	case "peer_validate":
		return []*classTrace{newClassTrace(opPeerValidate, "bus")}
	case "revoke_storm":
		return []*classTrace{newClassTrace(opRevokeVisible, "bus")}
	default:
		return []*classTrace{newClassTrace(opIntrospect, "gateway")}
	}
}

// depth0 replays the workload's own closed loop against the live
// daemons until sample requests have completed, twice over in
// alternating blocks: with span recording off, then on. The recorded
// blocks are depth 0; the ratio of the two medians of the first class,
// less one, is what recording costs.
func depth0(r *running, def workloadDef, t *tracer, sample int) ([]*classTrace, float64, error) {
	classes := tracedClasses(def)
	byClass := map[opClass]*classTrace{}
	for _, c := range classes {
		byClass[c.class] = c
	}
	rec := scratchRecorder()
	var untraced []float64
	recording := false
	rec.onObserve = func(class opClass, d time.Duration) {
		c := byClass[class]
		if c == nil {
			return
		}
		if !recording {
			if c == classes[0] {
				untraced = append(untraced, us(d))
			}
			return
		}
		trace := uint64(len(t.spans) + 1)
		id := t.add(trace, 0, "oasisd", opClassNames[class], d)
		c.ops = append(c.ops, opTrace{trace: trace, parent: id})
		c.depth[0] = append(c.depth[0], us(d))
	}
	const blocks = 10
	client := r.clients[0]
	for b := 0; b < 2*blocks; b++ {
		recording = b%2 == 1
		target := rec.sh.done.Load() + int64(sample/blocks)
		for rec.sh.done.Load() < target {
			if err := client.round(rec); err != nil {
				return nil, 0, err
			}
		}
	}
	if rec.cur.failed > 0 {
		return nil, 0, fmt.Errorf("%d of %d replayed requests failed", rec.cur.failed, rec.cur.attempted)
	}
	for _, c := range classes {
		if len(c.depth[0]) == 0 {
			return nil, 0, fmt.Errorf("no %s completed in the replay", opClassNames[c.class])
		}
	}
	return classes, median(classes[0].depth[0])/median(untraced) - 1, nil
}

// replayGateway replays the gateway workloads' classes at depths 1 to
// 3 on a replica whose store matches the daemon's. It returns the
// replica's live record count at the end.
func replayGateway(t *tracer, classes []*classTrace, kind replicaKind, dir string, rng *rand.Rand) (int, error) {
	r, err := newReplica(kind, dir)
	if err != nil {
		return 0, err
	}
	defer r.close()
	prog, err := compileRolefile(loginRolefile)
	if err != nil {
		return 0, err
	}
	machine := prog.NewMachine()
	verified := cert.NewVerifyCache()
	signer, store := r.svc.Signer(), r.svc.Store()

	// A population to introspect, as set-up gives the daemon.
	const population = 1000
	tokens := make([]string, population)
	certs := make([]*cert.RMC, population)
	for i := range tokens {
		if tokens[i], certs[i], err = r.issueToken(userName(i)); err != nil {
			return 0, err
		}
	}
	for _, c := range classes {
		for i := range c.ops {
			switch c.class {
			case opIntrospect:
				j := rng.Intn(population)
				crt := certs[j]
				body := tokenJSON(tokens[j])
				d, err := timed(func() error {
					if status, resp := r.post("/v1/introspect", body); status != http.StatusOK || !isActive(resp, rolesLoggedOn) {
						return fmt.Errorf("replica introspect answered %d %s", status, resp)
					}
					return nil
				})
				if err != nil {
					return 0, err
				}
				c.at(t, i, 1, d)
				d, err = timed(func() error { return r.svc.Validate(crt, crt.Client) })
				if err != nil {
					return 0, err
				}
				c.at(t, i, 2, d)
				if err := c.validateLeaves(t, i, crt, verified, signer, store); err != nil {
					return 0, err
				}

			case opIssue:
				user := userName(rng.Intn(100000000))
				body := tokenBody(r.id, "LoggedOn", loggedOnArgs(user), nil)
				d, err := timed(func() error {
					if status, resp := r.post("/v1/token", body); status != http.StatusOK {
						return fmt.Errorf("replica issue answered %d %s", status, resp)
					}
					return nil
				})
				if err != nil {
					return 0, err
				}
				c.at(t, i, 1, d)
				req := r.loggedOnRequest(user)
				d, err = timed(func() error {
					_, err := r.svc.Enter(req)
					return err
				})
				if err != nil {
					return 0, err
				}
				c.at(t, i, 2, d)
				d, _ = timed(func() error {
					if !evalRule(prog, machine, "LoggedOn", req.Args, nil) {
						return fmt.Errorf("rule does not apply")
					}
					return nil
				})
				c.leaf(t, i, "rdl", "entry rule plan", d)
				d, err = timed(func() error { return store.MarkDirectUse(store.NewFact(credrec.True)) })
				if err != nil {
					return 0, err
				}
				c.leaf(t, i, storeLayer(kind), "NewFact+MarkDirectUse", d)
				d, _ = timed(func() error {
					crt := &cert.RMC{Service: "Login", Rolefile: "main", Roles: 1, Args: req.Args, Client: r.id, CRR: credrec.Ref{Index: 1, Magic: 1}}
					crt.Sign(signer)
					return nil
				})
				c.leaf(t, i, "cert", "RMC.Sign", d)

			case opRevoke:
				tok, _, err := r.issueToken(userName(rng.Intn(100000000)))
				if err != nil {
					return 0, err
				}
				body := tokenJSON(tok)
				d, err := timed(func() error {
					if status, resp := r.post("/v1/revoke", body); status != http.StatusOK {
						return fmt.Errorf("replica revoke answered %d %s", status, resp)
					}
					return nil
				})
				if err != nil {
					return 0, err
				}
				c.at(t, i, 1, d)
				_, crt, err := r.issueToken(userName(rng.Intn(100000000)))
				if err != nil {
					return 0, err
				}
				d, err = timed(func() error { return r.svc.RevokeDirect(crt) })
				if err != nil {
					return 0, err
				}
				c.at(t, i, 2, d)
				ref := store.NewFact(credrec.True)
				d, err = timed(func() error { return store.Invalidate(ref) })
				if err != nil {
					return 0, err
				}
				c.leaf(t, i, storeLayer(kind), "Invalidate", d)
			}
		}
	}
	return store.Live(), nil
}

// validateLeaves records the two leaf calls of validating a live
// certificate: the cached signature check and the record lookup.
func (c *classTrace) validateLeaves(t *tracer, i int, crt *cert.RMC, verified *cert.VerifyCache, signer cert.Signer, store credrec.Recorder) error {
	d, err := timed(func() error {
		if !verified.VerifyRMC(crt, signer) {
			return fmt.Errorf("certificate does not verify")
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.leaf(t, i, "cert", "VerifyCache.VerifyRMC", d)
	d, err = timed(func() error {
		_, err := store.Lookup(crt.CRR)
		return err
	})
	if err != nil {
		return err
	}
	c.leaf(t, i, "credrec", "Lookup", d)
	return nil
}

// storeLayer names the layer a store mutation is charged to: on the
// durable replica it goes through the journal, so it is storage's.
func storeLayer(kind replicaKind) string {
	if kind == durableStore {
		return "storage"
	}
	return "credrec"
}

// replayPeer replays peer_validate at depths 1 to 3: the call over
// loopback TCP between two networks in this process, the engine call
// with no wire, and the leaves.
func replayPeer(t *tracer, c *classTrace, rng *rand.Rand) (int, error) {
	w, err := newPeerWorld()
	if err != nil {
		return 0, err
	}
	defer w.close()
	const population = 1000
	certs := make([]*cert.RMC, population)
	for i := range certs {
		certs[i], err = w.svc.Enter(oasis.EnterRequest{
			Client: benchClient(1), Rolefile: "main", Role: "LoggedOn",
			Args: []value.Value{value.Object("Login.userid", userName(i)), value.Object("Login.host", "bench")},
		})
		if err != nil {
			return 0, err
		}
	}
	verified := cert.NewVerifyCache()
	signer, store := w.svc.Signer(), w.svc.Store()
	for i := range c.ops {
		crt := certs[rng.Intn(population)]
		d, err := timed(func() error {
			reply, err := validateCall(w.caller, crt)
			if err == nil && reply.State != credrec.True {
				err = fmt.Errorf("validate over TCP answered %v", reply.State)
			}
			return err
		})
		if err != nil {
			return 0, err
		}
		c.at(t, i, 1, d)
		arg := oasis.ValidateArg{Cert: crt, Client: crt.Client}
		d, err = timed(func() error {
			_, err := w.svc.Call(peerCaller, "validate", arg)
			return err
		})
		if err != nil {
			return 0, err
		}
		c.at(t, i, 2, d)
		if err := c.validateLeaves(t, i, crt, verified, signer, store); err != nil {
			return 0, err
		}
	}
	return store.Live(), nil
}

// replayStorm replays revoke-to-visible at depths 1 to 3: the three
// services joined over loopback TCP in this process (revocation at
// Login until both Confs' stores have flipped), the same with one
// shared network and no wire, and the leaves: the cascade through the
// login's K dependents, the K Modified signals to two watchers, and
// the 2K surrogate records flipping at the far side.
func replayStorm(t *tracer, c *classTrace, k int, rng *rand.Rand) (int, error) {
	wired, err := newStormWorld(true, k)
	if err != nil {
		return 0, err
	}
	defer wired.close()
	direct, err := newStormWorld(false, k)
	if err != nil {
		return 0, err
	}
	defer direct.close()

	for i := range c.ops {
		user := userName(rng.Intn(100000000))
		sentinel := rng.Intn(k)
		rd, err := wired.enterRound(user)
		if err != nil {
			return 0, err
		}
		d, err := timed(func() error {
			if err := wired.login.RevokeDirect(rd.login); err != nil {
				return err
			}
			return wired.awaitFlip(rd, sentinel, time.Now().Add(lateBudget))
		})
		if err != nil {
			return 0, err
		}
		c.at(t, i, 1, d)

		if rd, err = direct.enterRound(user); err != nil {
			return 0, err
		}
		d, err = timed(func() error { return direct.login.RevokeDirect(rd.login) })
		if err != nil {
			return 0, err
		}
		if err := direct.awaitFlip(rd, sentinel, time.Now()); err != nil {
			return 0, fmt.Errorf("with no wire the cascade is synchronous, yet: %w", err)
		}
		c.at(t, i, 2, d)

		// Leaves, each on a structure of the round's shape.
		st := credrec.NewStore()
		root := st.NewFact(credrec.True)
		for n := 0; n < k; n++ {
			st.NewDerived(credrec.OpAnd, credrec.Of(root), credrec.Of(st.NewFact(credrec.True)))
		}
		d, err = timed(func() error { return st.Invalidate(root) })
		if err != nil {
			return 0, err
		}
		c.leaf(t, i, "credrec", "Invalidate (K dependents)", d)

		broker := event.NewBroker("Login", clock.Real(), event.BrokerOptions{})
		for s := 0; s < 2; s++ {
			sess, err := broker.OpenSession(event.SinkFunc(func(event.Notification) {}), nil)
			if err != nil {
				return 0, err
			}
			for n := 0; n < k; n++ {
				tmpl := event.NewTemplate(oasis.ModifiedEvent, event.Lit(value.Str(fmt.Sprint(n))), event.Wildcard(), event.Wildcard())
				if _, err := broker.Register(sess, tmpl); err != nil {
					return 0, err
				}
			}
		}
		d, _ = timed(func() error {
			for n := 0; n < k; n++ {
				broker.Signal(event.New(oasis.ModifiedEvent, value.Str(fmt.Sprint(n)), value.Int(0), value.Int(1)))
			}
			return nil
		})
		c.leaf(t, i, "event", "Signal x K", d)

		far := credrec.NewStore()
		refs := make([]credrec.Ref, 2*k)
		for n := range refs {
			refs[n] = far.NewExternal("Login", credrec.True)
		}
		d, err = timed(func() error {
			for _, ref := range refs {
				if err := far.Invalidate(ref); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		c.leaf(t, i, "credrec.remote", "Invalidate x 2K surrogates", d)
	}
	return wired.login.Store().Live(), nil
}
