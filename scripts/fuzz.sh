#!/usr/bin/env bash
# Runs every Fuzz* target in the module (benchmark/ and scripts/ab.sh's
# exports under .bench_build/ excluded) for a bounded time each:
# `scripts/fuzz.sh [fuzztime]`, default 10s. Plain `go test`
# only replays each target's seed corpus; this mutates inputs. A failing
# input is written under the package's testdata/fuzz/, where plain `go test`
# replays it from then on — commit it with the fix.
set -euo pipefail
cd "$(dirname "$0")/.."
fuzztime="${1:-10s}"
targets=$(grep -rE --include='*_test.go' --exclude-dir=.bench_build -o '^func Fuzz[A-Za-z0-9_]*' . |
    grep -v '^\./benchmark/' | sort)
if [ -z "$targets" ]; then
    echo "no Fuzz targets found" >&2
    exit 1
fi
while IFS=: read -r file decl; do
    pkg="./$(dirname "${file#./}")"
    name="${decl#func }"
    echo "== $pkg $name ($fuzztime)"
    go test -run '^$' -fuzz "^${name}\$" -fuzztime "$fuzztime" "$pkg"
done <<<"$targets"
