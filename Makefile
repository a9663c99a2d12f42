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
	@echo "test-shard  sharding matrix: ring/sharded-store/tree/cluster suites at 1,2,4,8 shards, in memory and journaled"
	@echo "race        race-detector suite over the concurrent packages (internal/fault excepted: chaos runs it)"
	@echo "chaos       all of internal/fault under the race detector: seeded chaos suite (partitions, loss, duplication), storage kill points, the plane's own tests"
	@echo "lint        oasislint (L002-L005 + L007: no exported identifier oasisd links that only its own tests reference) + rdlcheck static analysis (includes reach) + no encoding/gob and no internal/fault in oasisd, no http.TimeoutHandler, no RDL interpreter in the engine, no os.Getenv, no LoggedStore, no -shards/-store-dir refusal, no second benchmark driver, no per-instance certificate cache, no readstate op and one way into a surrogate, no record half of the shard ring, no receiver-side revive or second surrogate name format, every test/benchmark/metric the docs name exists"
	@echo "reach       rdlcheck -reach scenario reachability over every example"
	@echo "bench       bench_test.go at -cpu 1,4,8: the rows bench/oasisload cannot express (EXPERIMENTS.md E39)"
	@echo "bench-smoke   compile-and-run every row of bench_test.go once (part of ci)"
	@echo "bench-check   vet + test the bench/ module against this tree's internal/ API (part of ci)"
	@echo "ci          build vet lint test test-shard race chaos bench-smoke bench-check"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The sharding matrix (part of ci): the consistent-hash ring, the
# sharded store at 1/2/4/8 shards against the monolithic semantics, in
# memory and journaled-closed-reopened (TestShardedMatrix), its
# store-wide fail-stop when one shard's journal fails, the bridge source
# format recovery reads, the ring's tree, the cross-shard service
# suites, the ring's wire payload and the daemon's
# `-shards N -store-dir` restart and shape guard — everything `-shards`
# and `-shard-ring` deploy, run explicitly and uncached.
test-shard:
	$(GO) test -run 'Sharded|BridgeSource|Ring|Tree|Disseminator|ForwardBatch' -count=1 \
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
# four shards, ten times over, and shares one certificate among eight
# validators through the verify cache's misses, admissions, a roll and
# hits. internal/fault is not listed: `chaos`
# runs that whole package under the detector.
race:
	$(GO) test -race ./internal/bus/... ./internal/event/... \
		./internal/oasis/... ./internal/credrec/... ./internal/cert/... \
		./internal/gateway/... ./cmd/rdlcheck/...
	$(GO) test -race -count=10 -run 'ConcurrentIntrospect|ConcurrentMutations|SweepUnderChurn|WatcherRestart|VerifyCacheConcurrent|VerifyRMCHitIsReadOnly' \
		./internal/gateway/ ./internal/oasis/ ./internal/cert/

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
# it fed, the receiver's copy of suspicion, the lookup by source that
# surrogates were never bound by, and the bridges' own name format and
# index beside credrec.SurrogateName and the edge table.
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
	! grep -rnE '\b(ExternalRefs|MarkSilent|OnRevive|bridgeKey|parseBridgeSource)\b' internal/ cmd/ docs/
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
