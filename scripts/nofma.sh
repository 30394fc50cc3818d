#!/usr/bin/env bash
# Fails when a cross-compile fuses a multiply-add in the exp/log kernels.
#
# Usage: nofma.sh
#
# internal/linalg/explog.go writes every product explicitly rounded
# (float64(a*b) + c), so that ExpInto and Log return the same bits on every
# architecture. This builds internal/linalg for arm64, ppc64le and s390x
# with -gcflags=-S and counts the fused multiply-add instructions
# (FMADD/FMSUB and their negated and vector forms) whose source line is in
# that file; it must be 0 for each. The other kernels of internal/linalg
# still fuse on these targets (ROADMAP item 6): they are listed per file
# for information and not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

kernel=internal/linalg/explog.go
fma='[[:space:]](F|VF|WF)N?M(ADD|SUB)[A-Z]*[[:space:]]'
status=0
for arch in arm64 ppc64le s390x; do
    asm=$(GOARCH="$arch" go build -gcflags=-S ./internal/linalg 2>&1 >/dev/null)
    fused=$(grep -E "$fma" <<<"$asm" || true)
    n=$(grep -c "/${kernel}:" <<<"$fused" || true)
    other=$(grep -v "/${kernel}:" <<<"$fused" | grep -c . || true)
    echo "$arch: $n fused multiply-adds in $kernel ($other elsewhere in internal/linalg, not counted)"
    if [ "$n" -ne 0 ]; then
        grep "/${kernel}:" <<<"$fused" >&2
        status=1
    fi
done
exit "$status"
