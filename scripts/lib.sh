# Helpers the smoke scripts share. Source it from the repository root:
#
#   cd "$(dirname "$0")/.."
#   . scripts/lib.sh
#
# It makes $tmp and installs the one EXIT trap, which kills every process
# the script left in the background (servers, loadgen) and removes $tmp.

tmp="$(mktemp -d)"

cleanup() {
    local pids
    pids="$(jobs -p)"
    { [ -z "$pids" ] || kill -9 $pids; wait; } 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

# build_cmds NAME...: go build ./cmd/NAME into $tmp/NAME for each NAME.
build_cmds() {
    echo "== building binaries"
    local c
    for c in "$@"; do
        go build -o "$tmp/$c" "./cmd/$c"
    done
}

# boot_serve LOG ARGS...: start $tmp/serve ARGS on a free port with its
# output in LOG, wait until it reports its address and then until /readyz
# answers, and set addr and server_pid.
boot_serve() {
    local log="$1"
    shift
    : >"$log" # truncated first: the wait must never read an earlier boot's address
    "$tmp/serve" "$@" -addr 127.0.0.1:0 >"$log" 2>&1 &
    server_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr="$(sed -n 's/^factorml-serve listening on \([^ ]*\).*/\1/p' "$log")"
        [ -n "$addr" ] && break
        kill -0 "$server_pid" 2>/dev/null || { cat "$log" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "server never reported its address" >&2; cat "$log" >&2; exit 1; }
    # The listener answers before the model registry finishes loading; wait
    # for readiness so the checks see the fully booted server.
    for _ in $(seq 1 50); do
        curl -sf "http://$addr/readyz" >/dev/null && break
        sleep 0.1
    done
    curl -sf "http://$addr/readyz" >/dev/null || { echo "server never became ready" >&2; cat "$log" >&2; exit 1; }
    echo "   serving on $addr"
}

curl_json() { curl -sSf "$@"; }

json_int() { # json_int <field> — first integer value of "field" on stdin
    grep -o "\"$1\": [0-9]*" | head -1 | grep -o '[0-9]*$'
}
