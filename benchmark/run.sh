#!/usr/bin/env bash
# Builds the harness inside the checkout and runs it with the arguments
# given (see BENCHMARK.json). Everything the Go toolchain and the harness
# write lands under .bench_build/ or benchmark/out/ of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
(
	cd "$here"
	HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/factorml-bench" .
)
cd "$root"
exec "$build/factorml-bench" "$@"
