#!/usr/bin/env bash
# Streaming smoke test: datagen → train -save → boot cmd/serve with the
# change feed enabled → ingest deltas over HTTP → verify that a dimension
# update changes served predictions immediately, that the refresh-rows
# policy triggers an automatic incremental refresh which republishes the
# model (version bump, served without a restart), and that /statsz carries
# the stream counters and the maintained statistics' footprint, exactly the
# size the schema gives. A second arm serves a depth-2 snowflake and checks
# that updating one level-2 tuple moves exactly the predictions of the fact
# rows that reach it. Exercises the full path through the real binaries.
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh

build_cmds datagen train serve

echo "== rejecting invalid datagen flags"
if "$tmp/datagen" -db "$tmp/bad" -ns -5 2>"$tmp/err"; then
    echo "datagen accepted -ns -5" >&2; exit 1
fi
grep -q 'ns must be >= 1' "$tmp/err"
if "$tmp/datagen" -db "$tmp/bad" -dr -3 2>"$tmp/err"; then
    echo "datagen accepted -dr -3" >&2; exit 1
fi
grep -q 'dr must be >= 1' "$tmp/err"

echo "== generating tiny synthetic star schema"
"$tmp/datagen" -db "$tmp/db" -ns 600 -nr 20 -ds 3 -dr 3 -seed 1

echo "== training and saving models"
"$tmp/train" -db "$tmp/db" -fact synth_S -dims synth_R1 -model gmm -algo f \
    -k 2 -iters 2 -save smoke-gmm
"$tmp/train" -db "$tmp/db" -fact synth_S -dims synth_R1 -model nn -algo f \
    -hidden 6 -epochs 2 -save smoke-nn

# boot_stream ARGS...: boot_serve with ARGS, and the change feed must be on.
boot_stream() {
    boot_serve "$tmp/serve.log" "$@"
    grep -q 'streaming ingestion enabled' "$tmp/serve.log"
}

echo "== booting serve with streaming ingestion (-fact, auto-refresh at 30 rows)"
boot_stream -db "$tmp/db" -dims synth_R1 -fact synth_S -refresh-rows 30

# has PATTERN: stdin holds it once spaces and newlines are gone, so a check
# reads the same on a compact body (predict) and an indented one (/statsz).
has() { tr -d ' \n' | grep -q "$1"; }

echo "== /healthz"
health="$(curl_json "http://$addr/healthz")"
has '"status":"ok"' <<<"$health"

predict_gmm() {
    curl_json -X POST "http://$addr/v1/models/smoke-gmm/predict" \
        -H 'Content-Type: application/json' \
        -d '{"rows":[{"fact":[0.1,0.2,0.3],"fks":[5]}]}'
}

echo "== baseline prediction (fk 5)"
p1="$(predict_gmm)"
echo "   $p1"
has '"version":1' <<<"$p1"

echo "== dimension update reaches served predictions immediately"
body="$(curl_json -X POST "http://$addr/v1/ingest" -H 'Content-Type: application/json' \
    -d '{"dims":[{"table":"synth_R1","rid":5,"features":[9.5,-9.5,4.0]}]}')"
has '"dim_updates":1' <<<"$body"
p2="$(predict_gmm)"
echo "   $p2"
if [ "$p1" = "$p2" ]; then
    echo "prediction unchanged after dimension update" >&2; exit 1
fi

echo "== ingesting 35 fact rows trips the 30-row auto-refresh"
rows=""
for i in $(seq 0 34); do
    [ -n "$rows" ] && rows="$rows,"
    rows="$rows{\"sid\":$((600+i)),\"fks\":[$((i%20))],\"features\":[0.5,-0.5,1.0],\"target\":1}"
done
ingest="$(curl_json -X POST "http://$addr/v1/ingest" -H 'Content-Type: application/json' \
    -d "{\"facts\":[$rows]}")"
echo "   $ingest"
has '"refresh_triggered":true' <<<"$ingest"

echo "== refreshed model is served without a restart (version bump)"
p3="$(predict_gmm)"
echo "   $p3"
has '"version":2' <<<"$p3"

echo "== invalid batches are rejected"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/ingest" \
    -H 'Content-Type: application/json' -d '{"facts":[{"sid":1,"fks":[999],"features":[1,2,3]}]}')"
[ "$code" = "400" ] || { echo "unknown fk accepted ($code)" >&2; exit 1; }

echo "== /statsz carries the stream counters"
stats="$(curl_json "http://$addr/statsz")"
echo "   $stats"
has '"stream"' <<<"$stats"
has '"facts_ingested":35' <<<"$stats"
has '"dim_updates":1' <<<"$stats"
has '"auto_refreshes":1' <<<"$stats"

echo "== /statsz carries the maintained GMM statistics' footprint, exactly"
# The planner section lists it per mixture as of its last refresh: every
# row absorbed, and a size fixed by the schema alone — the done and open
# sums over the joined row (ll, N_k, s1, s2 per component) and their
# origin, 8 bytes a float, plus the pass index's 4 bytes per dimension
# tuple. K=2 (train -k 2), D = 3 fact + 3 dimension features, 20 tuples.
k=2 d=6 nr=20
want=$((2 * 8 * (1 + k + k * (d + d * d) + k * d) + 4 * nr))
fp="$(tr -d ' \n' <<<"$stats" | sed -n 's/.*"statistics":{\([^}]*\)}.*/\1/p')"
field() { sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p" <<<"$fp"; }
rows="$(field rows)" bytes="$(field bytes)"
echo "   rows=$rows bytes=$bytes"
[ "$rows" = 635 ] || { echo "statistics cover $rows rows, want 635" >&2; exit 1; }
[ "$bytes" = "$want" ] || { echo "statistics retain $bytes bytes, want exactly $want" >&2; exit 1; }

kill "$server_pid"
wait "$server_pid" 2>/dev/null || true

echo "== snowflake: generating a depth-2 schema (synth_R1 -> synth_R1_1)"
"$tmp/datagen" -db "$tmp/sdb" -ns 600 -nr 20 -ds 3 -dr 3 -depth 2 -seed 1
"$tmp/train" -db "$tmp/sdb" -fact synth_S -dims synth_R1 -model nn -algo f \
    -hidden 6 -epochs 2 -save snow-nn
boot_stream -db "$tmp/sdb" -dims synth_R1 -fact synth_S

predict_snow() {
    curl_json -X POST "http://$addr/v1/models/snow-nn/predict" \
        -H 'Content-Type: application/json' \
        -d "{\"rows\":[{\"fact\":[0.1,0.2,0.3],\"fks\":[$1]}]}"
}

echo "== snowflake: point synth_R1 tuple 3 at level-2 tuple 0, tuple 4 at tuple 1"
body="$(curl_json -X POST "http://$addr/v1/ingest" -H 'Content-Type: application/json' \
    -d '{"dims":[{"table":"synth_R1","rid":3,"fks":[0],"features":[0.5,0.5,0.5]},{"table":"synth_R1","rid":4,"fks":[1],"features":[0.5,0.5,0.5]}]}')"
has '"dim_updates":2' <<<"$body"
reach1="$(predict_snow 3)" other1="$(predict_snow 4)"
echo "   reaching: $reach1"
echo "   other:    $other1"

echo "== snowflake: updating level-2 tuple 0 moves only the rows that reach it"
body="$(curl_json -X POST "http://$addr/v1/ingest" -H 'Content-Type: application/json' \
    -d '{"dims":[{"table":"synth_R1_1","rid":0,"features":[9.5,-9.5,4.0]}]}')"
has '"dim_updates":1' <<<"$body"
reach2="$(predict_snow 3)" other2="$(predict_snow 4)"
echo "   reaching: $reach2"
echo "   other:    $other2"
if [ "$reach1" = "$reach2" ]; then
    echo "a row reaching the updated level-2 tuple predicts as before" >&2; exit 1
fi
if [ "$other1" != "$other2" ]; then
    echo "a row not reaching the updated level-2 tuple changed" >&2; exit 1
fi

echo "stream smoke OK"
