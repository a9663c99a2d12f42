#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build oasisload from
# this directory, then run it with the driver's arguments. oasisload
# builds cmd/oasisd itself. Everything written — binaries, the Go build
# cache, results, traces, scratch store directories — stays under
# bench/out, so a run touches nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$here/out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
mkdir -p "$here/out/bin"
(cd "$here" && go build -o out/bin/oasisload ./oasisload)
exec "$here/out/bin/oasisload" "$@"
