#!/usr/bin/env bash
# Prints the size every simplicity PR quotes (ROADMAP.md, CHANGES.md): the
# lines of non-test Go outside benchmark/. Comments and blank lines count —
# it is `wc -l` over the files, nothing cleverer.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.*' -print0 |
    xargs -0 cat | wc -l
