GO ?= go

.PHONY: build test test-shard race chaos bench bench-notify \
	bench-persist bench-gateway bench-shard bench-smoke \
	bench-check vet lint reach ci all help

all: build vet test

# ci is the gate a change must pass: build, vet, the custom static
# analysis (rdlcheck over every example policy, oasislint over the
# tree), the full test suite, the race detector over every
# concurrency-sensitive package, the seeded chaos suite, then one
# iteration of every benchmark so the perf suites cannot rot, and the
# end-to-end benchmark's own vet + tests (bench/ is a module of its
# own that tier-1 never compiles).
ci: build vet lint test test-shard race chaos bench-smoke bench-check

help:
	@echo "build       compile everything"
	@echo "test        full test suite"
	@echo "test-shard  sharding matrix: ring/sharded-store/tree/cluster suites at 1,2,4,8 shards, in memory and journaled"
	@echo "race        race-detector suite over the concurrent packages"
	@echo "chaos       seeded chaos suite (partitions, loss, duplication)"
	@echo "lint        oasislint + rdlcheck static analysis (includes reach) + no encoding/gob in oasisd, no http.TimeoutHandler, no RDL interpreter in the engine, no os.Getenv, no LoggedStore, no -shards/-store-dir refusal"
	@echo "reach       rdlcheck -reach scenario reachability over every example"
	@echo "bench       serial + parallel (-cpu 1,4,8) benchmark suites"
	@echo "bench-notify  notification-plane suite (EXPERIMENTS.md E28)"
	@echo "bench-persist  journal append + recovery suites (EXPERIMENTS.md E32)"
	@echo "bench-gateway  HTTP issue/introspect/revoke suite, test2json on stdout (E33; BENCH_9.json is frozen)"
	@echo "bench-shard  shard cascade + tree-vs-flat dissemination, test2json on stdout (E34; BENCH_10.json is frozen)"
	@echo "bench-smoke   compile-and-run every benchmark once (part of ci)"
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
# format recovery reads, the dissemination tree, the cross-shard service
# suites, the sharding wire payloads and the daemon's
# `-shards N -store-dir` restart and shape guard — everything `-shards`
# and `-shard-ring` deploy, run explicitly and uncached.
test-shard:
	$(GO) test -run 'Sharded|BridgeSource|Ring|Tree|Disseminator|ForwardBatch' -count=1 \
		./internal/credrec/ ./internal/bus/
	$(GO) test -run 'Sharded|StoreShape' -count=1 ./cmd/oasisd/
	$(GO) test -run 'Shard|ClusterPending|CoalesceShardEdges' -count=1 \
		./internal/oasis/

# The concurrency regression suite: the striped store, read-mostly
# service engine, sharded bus, and batched broker are only meaningfully
# tested with the race detector on. The last line hammers the
# gateway's pooled request/response buffers — one pool, shared by
# issue, introspect and revoke since PR 18 — from eight goroutines,
# introspecting, and issuing and revoking, ten times over.
race:
	$(GO) test -race ./internal/bus/... ./internal/event/... \
		./internal/oasis/... ./internal/credrec/... ./internal/cert/... \
		./internal/fault/... ./internal/gateway/... ./cmd/rdlcheck/...
	$(GO) test -race -count=10 -run 'ConcurrentIntrospect|ConcurrentMutations' ./internal/gateway/

# The seeded chaos suite (internal/fault/chaos_test.go) plus the
# storage kill-point suite (persist_chaos_test.go): whole deployments
# driven through scripted partitions, loss and duplication, and the
# persistence engine crashed at every operation boundary — one store,
# and four journaled shards each cut at a watermark of its own; every
# run reproduces from its seed/schedule/kill point, so failures are
# deterministic. Always under the race detector — the fault plane
# exists to shake out exactly the interleavings it would catch.
chaos:
	$(GO) test -race -run 'Chaos|KillPoint|RevocationsStay' ./internal/fault/... -count=1

# Serial benchmarks plus the parallel suite at 1, 4 and 8 threads
# (bench_parallel_test.go); results feed EXPERIMENTS.md.
bench:
	$(GO) test -bench . -benchmem -run '^$$' .
	$(GO) test -bench Parallel -benchmem -cpu 1,4,8 -run '^$$' .

# The notification-plane suite (bench_notify_test.go): Modified-event
# storms, heartbeat fan-out, and TCP bursts, batched and unbatched;
# results feed EXPERIMENTS.md E28.
bench-notify:
	$(GO) test -bench 'Notify|Heartbeat' -benchmem -cpu 1,4,8 -run '^$$' .

# The persistence-engine suite (bench_persist_test.go): group-commit
# journal appends onto a real file at 1, 4 and 8 mutators, and
# replay-all versus snapshot+tail recovery across history lengths;
# results feed EXPERIMENTS.md E32.
bench-persist:
	$(GO) test -bench 'PersistAppend' -benchmem -cpu 1,4,8 -run '^$$' .
	$(GO) test -bench 'PersistRecovery' -benchmem -run '^$$' .

# The federation-gateway suite (bench_gateway_test.go): the full
# deployed HTTP handler stack at the issue/introspect/revoke hot paths,
# as test2json on stdout. BENCH_9.json is the PR 9 recording of this
# suite (EXPERIMENTS.md E33) and is frozen history: redirect elsewhere.
bench-gateway:
	$(GO) test -json -benchmem -cpu 1,4,8 -run '^$$' \
		-bench 'Gateway' .

# The sharding suite (bench_shard_test.go): revocation-storm cascade
# throughput over the store at 1/2/4/8 shards, and tree-vs-flat
# dissemination of a storm to 2^10 watchers. The cascade rows run at
# -cpu 1,4,8 (per-shard writer serialisation only shows on real
# cores); the dissemination pair times the origin's blocking cost with
# delivery awaited untimed, so it uses fixed iterations. Both print
# test2json on stdout; BENCH_10.json is the PR 10 recording
# (EXPERIMENTS.md E34) and is frozen history: redirect elsewhere.
bench-shard:
	$(GO) test -json -benchmem -cpu 1,4,8 -run '^$$' \
		-bench 'ShardCascade' .
	$(GO) test -json -benchmem -benchtime=20x -run '^$$' \
		-bench 'Disseminate' .

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

vet:
	$(GO) vet ./...

# The repository's own static analysis (see DESIGN.md "Static
# analysis"): oasislint enforces the concurrency discipline with
# stdlib go/ast + go/types; rdlcheck analyzes every shipped policy for
# unrevocable roles, dead rules and unreachable roles. Error-level
# findings fail the build. The greps keep out what was deleted on
# purpose: the reflective gob decoder on the daemon's unauthenticated
# peer port, a per-request deadline goroutine over waits internal/bus
# bounds itself, a second rule evaluator beside the compiled plan in
# the engine, behaviour switched by an environment variable, a journaling
# wrapper type beside the one store, and the start-up refusal of
# -shards with -store-dir.
lint: reach
	$(GO) run ./cmd/oasislint ./internal/... ./cmd/...
	$(GO) run ./cmd/rdlcheck -q examples/quickstart/*.rdl
	$(GO) run ./cmd/rdlcheck -q examples/golfclub/*.rdl
	$(GO) run ./cmd/rdlcheck -q examples/login/*.rdl
	$(GO) run ./cmd/rdlcheck -q examples/mssa/*.rdl
	! $(GO) list -deps ./cmd/oasisd | grep -qx encoding/gob
	! grep -rn TimeoutHandler internal/ cmd/
	! grep -rnE 'rdl\.(Eval|MatchArgs|InstantiateArgs)\b' --include='*.go' \
		--exclude='*_test.go' internal/oasis cmd/oasisd
	! grep -rn 'os\.Getenv' --include='*.go' --exclude='*_test.go' internal/ cmd/
	! grep -rn 'LoggedStore' --include='*.go' internal/ cmd/ *.go
	! grep -rn 'incompatible with -store-dir' cmd/ docs/

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
