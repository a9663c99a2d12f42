GO ?= go

.PHONY: build test test-shard race chaos bench bench-smoke \
	bench-check vet lint reach ci all help

all: build vet test

# ci is the gate a change must pass: build, vet, the custom static
# analysis (rdlcheck over every example policy, oasislint over the
# tree), the full test suite, the race detector over every
# concurrency-sensitive package, the seeded chaos suite (internal/fault,
# whole and under the race detector, once), then one
# iteration of every row of bench_test.go so it cannot rot, and the
# end-to-end benchmark's own vet + tests (bench/ is a module of its
# own that tier-1 never compiles).
ci: build vet lint test test-shard race chaos bench-smoke bench-check

help:
	@echo "build       compile everything"
	@echo "test        full test suite"
	@echo "test-shard  sharding suites: the record model over the sharded store at 1,2,4,8 shards, in memory and journaled, plus the sharded-store/placement/cluster suites and the bus tree only bench/ builds"
	@echo "race        race-detector suite over the concurrent packages (internal/fault excepted: chaos runs it)"
	@echo "chaos       all of internal/fault under the race detector: seeded chaos suite (partitions, loss, duplication), storage kill points, the plane's own tests"
	@echo "lint        oasislint (L002-L005 + L007: no exported identifier oasisd links that only its own tests reference) + rdlcheck static analysis (includes reach) + no encoding/gob and no internal/fault in oasisd, no http.TimeoutHandler, no RDL interpreter in the engine, no os.Getenv, no LoggedStore, no -shards/-store-dir refusal, no second benchmark harness, no per-instance certificate cache, no readstate op and one way into a surrogate, no record half of the shard ring, no receiver-side revive or second surrogate name format, no broker registration beside the issuer's watch row, no signature verdict cache in the engine, gateway or daemon beside oasis.Held, no GOMAXPROCS change in a library package, two http.Servers (the gateway loop's fallback, oasisd's admin port) and no http.DefaultServeMux, one net/http adapter in the gateway (Handler), one way an authority's word reaches a mirror record (Apply: no ResyncEntry, mirror or MakePermanent beside it), no notification batch in the engine or daemon (a mutation is one event per watcher, sent before the call returns), no consistent-hash ring placing records (a leaf goes by a hash of the allocation count), no claim half of the shard ring (no ring join, backlog claim, treeforward op or -shard-ring flag), one counter registry (Service.Vars: no AuditSnapshot, striped call counters, Network.Dropped, Engine.Recovered or gateway test probes), no -http-pressure flag or shed wiring in oasisd (a notification send never waits, so no backlog fills), no bufio.Reader in internal/bus (a connection's one read buffer is its decoder's window), one op table per endpoint (no InlineEndpoint, generic serve adapter or NeverWaits over an any), one way a link delivers a note (inline on its read loop: no inbound pump, no unheard bit), every tracked .go file gofmt-clean, every test/benchmark/metric the docs name exists"
	@echo "reach       rdlcheck -reach scenario reachability over every example"
	@echo "bench       bench_test.go at -cpu 1,4,8: the rows bench/oasisload cannot express (EXPERIMENTS.md E39)"
	@echo "bench-smoke   compile-and-run every row of bench_test.go once (part of ci)"
	@echo "bench-check   vet + test the bench/ module against this tree's internal/ API (part of ci)"
	@echo "ci          build vet lint test test-shard race chaos bench-smoke bench-check"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The sharding suites (part of ci): leaf placement and the constructors'
# refusals, the record model's compositions — the plain store and the
# sharded store at 1/2/4/8 shards, in memory and journaled-closed-
# reopened, against the reference model (FuzzRecorderModel) — the
# sharded store's store-wide fail-stop when one shard's journal
# fails, the bridge source format recovery reads, the cross-member
# service suites, the retired ring payloads' refusal and the daemon's
# `-shards N -store-dir` restart and shape guard — everything `-shards`
# deploys, run explicitly and uncached — and the bus's tree and
# disseminator, which only bench/ builds now.
test-shard:
	$(GO) test -run 'Sharded|BridgeSource|Tree|Disseminator|ForwardBatch|RecorderModel' -count=1 \
		./internal/credrec/ ./internal/bus/
	$(GO) test -run 'Sharded|StoreShape' -count=1 ./cmd/oasisd/
	$(GO) test -run 'Shard|ClusterPending|RelayedHeartbeat' -count=1 \
		./internal/oasis/

# The concurrency regression suite: the striped store, read-mostly
# service engine, sharded bus, and batched broker are only meaningfully
# tested with the race detector on. The last line hammers the
# gateway's pooled request/response buffers — one pool, shared by
# issue, introspect and revoke since PR 18 — from eight goroutines,
# introspecting, and issuing and revoking, ten times over, the last of
# them beside a sweeper as the daemon's duty loop runs one (PR 25); the
# same line restarts a watcher over its store, over one store and over
# four shards, ten times over, shares one certificate among eight
# validators through the verify cache's misses, admissions, a roll and
# hits, has eight goroutines introspect and revoke held tokens while
# the secret table rolls, has eight watchers validate and watch one
# record while it is revoked, three watch every record of a cascade
# while its root is revoked, drives seeded random cascades to three
# watchers of unlike watch sets, and sends the same bytes to the
# gateway's serving loop and to net/http over some sixty connections at
# once, the loop's hand-offs sharing one http.Server (PR 35), and logs
# one user out at an issuer while another's logout is held inside the
# store, whose events must still leave before its Exit returns; it
# serves calls declared never to wait on the peer port's read loop, one
# with another buffered behind it and 64 callers on one link, and
# validates at an issuer over that loop; and it holds a signaller in
# one watcher's sink while a heartbeat runs, which must reach the other
# watcher behind the event. It also drives every store composition
# through generated sequences beside a goroutine sweeping it as fast as
# it can, against the record model; has a sweeper beside a mutation
# whose observer must have run when it returns, and beside derivations
# over a final parent on another shard, whose bridge it must not take
# before the child is linked; and has an issuer whose
# watcher answers the hello and reads nothing, on whose socket neither
# heartbeats nor a logout may wait; has notification sends find a link
# whose redial a call holds, which must neither wait for the dial nor
# start more than one redial; fills a stalled link's queue to its
# bound, which must kill the writer before its write deadline; and
# queues three calls behind one dial on a broken link, which must all
# take that dial's outcome and dial nothing of their own; and holds a
# served connection's reply behind a flusher stuck in a socket write
# while the next validate is read, and a call on a worker while the
# read loop decodes and answers the next, neither of which may find
# its block reused. It runs a watcher's duties while a source it
# resyncs holds the hello, which may delay none of its heartbeats;
# serves a reviving note and then a validate on one connection, the
# second undelayed by the resync the first starts; flips a record at
# the issuer after its resync snapshot is read, which the snapshot may
# not roll back; resyncs over the link the reviving heartbeat came in
# on; and overflows the notes a resync holds, which must leave the
# source degraded until the next tick's resync.
# internal/fault is not listed: `chaos` runs that whole package under
# the detector.
race:
	$(GO) test -race ./internal/bus/... ./internal/event/... \
		./internal/oasis/... ./internal/credrec/... ./internal/cert/... \
		./internal/gateway/... ./cmd/rdlcheck/...
	$(GO) test -race -count=10 -run 'HeldSourceDelaysNoHeartbeat|ServedDeliveryNeverWaits|ResyncSnapshotBeforeLaterNotes|RevivalResyncsOverItsOwnLink|HoldBound|ConcurrentIntrospect|ConcurrentMutations|SweepUnderChurn|WatcherRestart|VerifyCacheConcurrent|VerifyRMCHitIsReadOnly|HeldTokensUnderRoll|WatchersRaceRevocation|GeneratedCascades|WatchersRaceCascade|LoopMatchesNetHTTP|RevocationLeavesBeforeItReturns|BufferedCallGoesToWorker|PipelinedInlineCallersAllAnswered|InlineValidateCallsNobody|HeartbeatWaitsBehindEvent|RecorderModelBesideSweep|ObserverHeardWhenMutationReturns|FinalBridgeOutlivesSweep|StalledWatcherHoldsNoSignaller|NotifySendNeverDials|NoteQueueBoundKillsWriter|QueuedCallsShareOneDial|QueuedReplyKeepsItsBlock|WorkerCallOwnsItsArgument' \
		./internal/gateway/ ./internal/oasis/ ./internal/cert/ ./internal/bus/ ./internal/event/ ./internal/credrec/

# The seeded chaos suite (internal/fault/chaos_test.go) plus the
# storage kill-point suite (persist_chaos_test.go): whole deployments
# driven through scripted partitions, loss and duplication, and the
# persistence engine crashed at every operation boundary — one store,
# and four journaled shards each cut at a watermark of its own; every
# run reproduces from its seed/schedule/kill point, so failures are
# deterministic. Always under the race detector — the fault plane
# exists to shake out exactly the interleavings it would catch — and
# the whole package, uncached: this is also the one race run of the
# plane's own tests (fault_test.go, pipeline_test.go).
chaos:
	$(GO) test -race -count=1 ./internal/fault/...

# The Go-bench suite, one invocation: the paper's comparisons and the
# -cpu / shard-count sweeps that bench/oasisload (`bash bench/run.sh`,
# BENCHMARK.json) cannot express. bench_test.go's header states the two
# rules a row is kept under; EXPERIMENTS.md E39 is the inventory.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -cpu 1,4,8 .

# One iteration of every benchmark: catches benchmarks that no longer
# compile or crash without paying for a measurement. Part of ci.
bench-smoke:
	$(GO) test -benchtime=1x -run '^$$' -bench . .

# The end-to-end benchmark (bench/, BENCHMARK.json) is a module of its
# own reaching internal/ through a replace, so `go build ./...` and
# `go test ./...` never compile it: an internal/ API change would break
# it silently. Its tests include a 1 s smoke run of every workload
# against real daemons. Part of ci.
bench-check:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# vet is also the copied-lock check (copylocks): oasislint's L001 did
# the same job over the same packages and is retired.
vet:
	$(GO) vet ./...

# The repository's own static analysis (see DESIGN.md "Static
# analysis"): oasislint enforces the concurrency discipline with
# stdlib go/ast + go/types; rdlcheck analyzes every shipped policy for
# unrevocable roles, dead rules and unreachable roles. Error-level
# findings fail the build. Because cmd/oasisd is among the packages it
# is given, oasislint also runs L007 — an exported identifier of a
# package oasisd links that nothing outside its own package's tests
# references — counted over the whole module and bench/, and prints
# what only bench/ holds and what a //oasislint:keep directive keeps.
# The greps keep out what was deleted on purpose: the reflective gob
# decoder on the daemon's unauthenticated peer port, the chaos suite's
# fault plane in the production binary, a per-request deadline goroutine over waits internal/bus
# bounds itself, a second rule evaluator beside the compiled plan in
# the engine, behaviour switched by an environment variable, a journaling
# wrapper type beside the one store, the start-up refusal of
# -shards with -store-dir, a benchmark driver beside bench/oasisload
# and the one root bench_test.go, hidden state on a certificate — a
# per-instance canonical cache or verify memo beside cert.VerifyCache —
# the peer op nothing sent with the two extra ways an issuer's
# assertion reached a surrogate beside applyRemote, and the ring's
# record half: a ring subscription op, its import, and the tree edges
# it fed, and its claim half: the ring join, the backlog claims relayed
# down the tree on every duty tick, their op and payload and the
# -shard-ring flag (nothing deployed filled the backlog they carried,
# and a ring member that stopped reading held its tree parents' duty
# loops for a call deadline per child), the receiver's copy of suspicion, the lookup by source that
# surrogates were never bound by, the bridges' own name format and
# index beside credrec.SurrogateName and the edge table, and a second
# watch table at the issuer: broker registrations beside the row a
# Modified event fans out from, the gateway's shed in the daemon: the
# -http-pressure flag and its wiring (a notification send never waits
# on a dial and a link's queue is bounded, so no backlog in oasisd grows
# with the traffic it serves; the shed stays a library option), and a
# second signature verdict memory beside oasis.Held's epoch memo: the
# engine, the gateway and the daemon verify a presented certificate on
# every use, and cert.VerifyCache stays only while bench/ constructs it. No library
# package changes the process's P count (runtime.GOMAXPROCS): tests run
# many services in one process, so only the daemon decides, and it gives
# a journal that fsyncs its one spare P. The gateway's one http.Server is
# built in internal/gateway/server.go: the gateway's serving loop frames the
# requests it recognises and hands every other connection to it, so
# net/http stays the one definition of HTTP/1.1 and the fallback. And
# one adapter sits between net/http and the routes: a route takes the
# path and the body's bytes and fills a reply, so among the gateway's
# non-test files only gateway.go, where Handler lives, names
# *http.Request or http.ResponseWriter.
# One way an authority's word reaches a record that mirrors it:
# Recorder.Apply, a batch of changes in one critical section per
# shard. The engine's applyRemote and the sharded store's bridge
# fan-out both write through it, so the resync entry type beside
# credrec.Change, the bridges' own mirror and a MakePermanent in the
# engine stay out (the *Store keeps MakePermanent for journal replay).
# A mutation is the unit of notification: every store mutation's events
# leave, one per watcher, before the mutating call returns, so neither
# the engine nor the daemon opens a bus notification batch or installs
# a coalescing rule (the bus keeps its batch only while bench/ drives
# it; oasislint names the batch calls for L003 until then).
# A sharded store's shape is fixed for its life, so nothing joins that a
# consistent-hash ring would spare a move: a leaf goes to the shard a
# hash of the allocation count names, and the ring, its replicas and
# its owner lookup stay out of the code and the docs.
# One counter registry: each service's unpublished expvar.Map
# (oasis.Service.Vars), so the one-off accessors it replaced — the audit
# snapshot, the bus's striped call counters and Dropped, the journal
# engine's Recovered, and the gateway's test-only token and dropped-write
# probes — stay out. One admin port reads it: two http.Servers are built,
# the gateway loop's fallback and oasisd's -admin-listen
# (serveAdmin in cmd/oasisd/main.go), and nothing registers on or serves
# http.DefaultServeMux, where expvar and net/http/pprof register
# themselves on import.
# A peer connection has one read buffer, its decoder's own window
# (bus.WireDec): no bufio.Reader in internal/bus stacks a second one
# under it. An endpoint serves its calls from one op table (bus.Op
# rows): no optional interface beside it declares which calls never
# wait, no generic adapter asserts a handler's argument out of `any`,
# and no never-waits predicate takes one.
# A link delivers a notification one way, inline on the read loop that
# decoded it: no inbound pump or queue beside serveConn's, and no
# unheard bit arming a revival resync (a resync is started, never waited
# for, and the source's slot already keeps it to one at a time).
# Every tracked .go file is gofmt-clean.
# The closing loops hold the documents to the tree: every `Test…`/`Benchmark…`/`Fuzz…` name back-quoted in
# DESIGN.md's experiment index, README.md or docs/*.md must be a func in
# some _test.go (a trailing * matches a prefix), and every
# `layer.metric` or workload name in the index's "Bench / harness"
# column must be declared in BENCHMARK.json.
lint: reach
	$(GO) run ./cmd/oasislint ./internal/... ./cmd/...
	$(GO) run ./cmd/rdlcheck -q examples/quickstart/*.rdl
	$(GO) run ./cmd/rdlcheck -q examples/golfclub/*.rdl
	$(GO) run ./cmd/rdlcheck -q examples/login/*.rdl
	$(GO) run ./cmd/rdlcheck -q examples/mssa/*.rdl
	! $(GO) list -deps ./cmd/oasisd | grep -qx encoding/gob
	! $(GO) list -deps ./cmd/oasisd | grep -qx oasis/internal/fault
	! grep -rn TimeoutHandler internal/ cmd/
	! grep -rnE 'rdl\.(Eval|MatchArgs|InstantiateArgs)\b' --include='*.go' \
		--exclude='*_test.go' internal/oasis cmd/oasisd
	! grep -rn 'os\.Getenv' --include='*.go' --exclude='*_test.go' internal/ cmd/
	! grep -rn 'LoggedStore' --include='*.go' internal/ cmd/ *.go
	! grep -rn 'incompatible with -store-dir' cmd/ docs/
	! grep -rnE 'verifyMemo|canonCore|delegCanon|canon +atomic' internal/cert
	! grep -rnE '"readstate"|ReadStateArg|applyShardEdge|applyModified' internal/ cmd/ docs/ README.md
	! grep -rnE '"shardwatch"|ImportShardRecord|coalesceShardEdges|shardNotify' internal/ cmd/ docs/
	! grep -rnE 'JoinShardRing|ShardRingMembers|ShardHeartbeatTick|TreeForwardArg|"treeforward"|shard-ring|shard_ring' \
		--include='*.go' --exclude='*_test.go' internal/ cmd/
	! grep -rnE 'JoinShardRing|ShardRingMembers|ShardHeartbeatTick|TreeForwardArg|"treeforward"|shard-ring|shard_ring' docs/ README.md
	! grep -rnE 'http-pressure|httpPressure' --include='*.go' --exclude='*_test.go' internal/ cmd/
	! grep -rnE 'http-pressure|httpPressure' docs/ README.md
	! grep -rnE '\b(ExternalRefs|MarkSilent|OnRevive|bridgeKey|parseBridgeSource)\b' internal/ cmd/ docs/
	! grep -rnE '\breleaseWatches\b|broker\.(Register|Deregister)\b' internal/oasis
	! grep -rn 'VerifyCache' --include='*.go' --exclude='*_test.go' internal/oasis internal/gateway cmd/oasisd
	! grep -rn 'runtime\.GOMAXPROCS(' --include='*.go' --exclude='*_test.go' internal/
	! grep -rn 'bufio\.NewReader' --include='*.go' --exclude='*_test.go' internal/bus
	! grep -rnE 'InlineEndpoint|func serve\[|NeverWaits\(op string, arg any\)' --include='*.go' --exclude='*_test.go' internal/ cmd/
	! grep -rnE 'enqueueInbound|pumpInbound|inPumping|unheard' --include='*.go' --exclude='*_test.go' internal/ cmd/
	! grep -rln 'http\.Server{' --include='*.go' --exclude='*_test.go' internal/ cmd/ *.go \
		| grep -vxE 'internal/gateway/server.go|cmd/oasisd/main.go'
	! grep -rnE 'http\.DefaultServeMux|http\.Handle\(|http\.HandleFunc\(' --include='*.go' --exclude='*_test.go' internal/ cmd/
	! grep -rlE '\*http\.Request|http\.ResponseWriter' --include='*.go' --exclude='*_test.go' internal/gateway \
		| grep -vx internal/gateway/gateway.go
	! grep -rnE '\bResyncEntry\b|\.mirror\(' --include='*.go' internal/ cmd/
	! grep -rn 'MakePermanent' --include='*.go' --exclude='*_test.go' internal/oasis
	! grep -rnE 'batchNotify|StartBatch|EndBatch|SetCoalesceRule|DeliverBatch|modifiedCoalesceRule' \
		--include='*.go' --exclude='*_test.go' --exclude-dir=oasislint internal/oasis cmd/
	! grep -rnE 'NewRing|OwnerIndex|DefaultRingReplicas|credrec\.Ring\b' internal/ cmd/ docs/
	! grep -rnE 'AuditSnapshot|counterShard|func \(n \*Network\) Dropped\b|Recovered\(\)' --include='*.go' internal/ cmd/
	! grep -rnE --include=export_test.go 'TokenCount|DroppedResponseWrites' internal/ cmd/
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	! test -e cmd/benchharness
	test "$$(ls *_test.go | wc -l)" -eq 1
	@index() { sed -n '/^## Experiment index/,/^## Concurrency model/p' DESIGN.md; }; fail=; \
	for id in $$({ index; cat README.md docs/*.md; } \
		| grep -oE '`(Test|Benchmark|Fuzz)[A-Za-z0-9_]*\*?`' | tr -d '`' | sort -u); do \
		case $$id in *\*) pat="^func $${id%?}" ;; *) pat="^func $$id\(" ;; esac; \
		grep -rqE --include='*_test.go' --exclude-dir=out "$$pat" . \
			|| { echo "docs name $$id: no such func in any _test.go"; fail=1; }; \
	done; \
	for m in $$(index | awk -F'|' '/^\| E/ { print $$(NF-1) }' \
		| grep -oE '`([a-z]+\.[a-z0-9_]+|[a-z]+(_[a-z]+)+)`' | tr -d '`' | sort -u); do \
		grep -q "\"name\": \"$$m\"" BENCHMARK.json \
			|| { echo "DESIGN.md index names $$m: not in BENCHMARK.json"; fail=1; }; \
	done; test -z "$$fail"

# Scenario reachability (docs/RDL.md "Reachability analysis"): each
# example ships a .scn scenario whose expect/possible/deny assertions
# are proved against the policy's symbolic fixpoint; a failed assertion
# is an error-level R010 finding, so drift between a policy and its
# documented access expectations fails the build.
reach:
	$(GO) run ./cmd/rdlcheck -reach -q -severity error \
		examples/quickstart/*.rdl examples/quickstart/*.scn
	$(GO) run ./cmd/rdlcheck -reach -q -severity error \
		examples/golfclub/*.rdl examples/golfclub/*.scn
	$(GO) run ./cmd/rdlcheck -reach -q -severity error \
		examples/login/*.rdl examples/login/*.scn
	$(GO) run ./cmd/rdlcheck -reach -q -severity error \
		examples/mssa/*.rdl examples/mssa/*.scn
