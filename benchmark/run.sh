#!/usr/bin/env bash
# Entry point of the benchmark (the command in BENCHMARK.json): build the
# harness and benchnode from source into .bench_build/ at the checkout
# root, then run the harness there with the arguments given. Everything
# the Go toolchain writes is pointed inside .bench_build/ as well.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
out="$PWD/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd benchmark && go build -o "$out/bin/" . ./cmd/benchnode)
exec "$out/bin/benchmark" "$@"
