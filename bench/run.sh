#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout
# root. Everything the Go toolchain writes (build cache included) stays
# under .bench_build/, which the root .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/fathom-bench" .)
cd "$root"
exec "$build/fathom-bench" "$@"
