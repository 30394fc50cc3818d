#!/usr/bin/env bash
# Multi-process crash smoke: datagen → train -save (baseline captured
# into lineage) → boot cmd/serve with the write-ahead log → drive ingest
# traffic with cmd/loadgen and explicit acked batches → kill -9 the
# server MID-TRAFFIC → reboot on the same directory and assert:
#
#   - /readyz comes back up and the log names the recovered LSN;
#   - zero acked-record loss: the recovered LSN is at least the WAL LSN
#     observed via /statsz after the last acknowledged ingest;
#   - /v1/models/{name}/health still answers with the same lineage
#     (training rows) as before the crash;
#   - the rebooted server keeps serving: dimension updates change
#     predictions and /metrics carries the WAL gauges;
#   - a graceful SIGTERM of the recovered server leaves CLEAN in the WAL
#     directory, and a third boot on it predicts byte-identically with
#     unchanged lineage rows.
#
# The kill is a real SIGKILL on a separate OS process — nothing flushes,
# exactly the failure the WAL exists for.
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh

build_cmds datagen train serve loadgen

echo "== rejecting durability flags without -wal-dir"
if "$tmp/serve" -db "$tmp/nope" -dims synth_R1 -fsync-every 4 2>"$tmp/err"; then
    echo "serve accepted -fsync-every without -wal-dir" >&2; exit 1
fi
grep -q 'wal-dir' "$tmp/err"

echo "== generating tiny synthetic star schema"
"$tmp/datagen" -db "$tmp/db" -ns 600 -nr 20 -ds 3 -dr 3 -seed 1

echo "== training and saving a model (baseline captured into lineage)"
"$tmp/train" -db "$tmp/db" -fact synth_S -dims synth_R1 -model gmm -algo f \
    -k 2 -iters 2 -save smoke-gmm

# boot_wal LOG: boot_serve on the WAL directory, and durability must be on.
boot_wal() {
    boot_serve "$1" -db "$tmp/db" -dims synth_R1 -fact synth_S -refresh-rows 30 \
        -wal-dir "$tmp/db.wal" -fsync-every 1 \
        -drift-warn 0.1 -drift-psi 0.25 -staleness-max-rows 1000000 -health-sample 1
    grep -q 'durability: wal-dir=' "$1"
}

predict_gmm() {
    curl_json -X POST "http://$addr/v1/models/smoke-gmm/predict" \
        -H 'Content-Type: application/json' \
        -d '{"rows":[{"fact":[0.1,0.2,0.3],"fks":[5]}]}'
}

echo "== booting serve with the WAL enabled"
boot_wal "$tmp/serve1.log"

echo "== health lineage before the crash"
h1="$(curl_json "http://$addr/v1/models/smoke-gmm/health")"
rows_before="$(json_int training_rows <<<"$h1")"
[ -n "$rows_before" ] || { echo "no training_rows in health: $h1" >&2; exit 1; }
echo "   training_rows=$rows_before"

echo "== ingest traffic: loadgen in the background, explicit acked batches in front"
"$tmp/loadgen" -url "http://$addr" -mix ingest=1 -rates 150 -step 4s \
    -fact-width 3 -fk-max 20 -ingest-facts 8 -sid-start 2000000 -seed 7 \
    -trace-fraction 0 -out "$tmp/load.json" >"$tmp/loadgen.log" 2>&1 &
loadgen_pid=$!
sleep 1

body="$(curl_json -X POST "http://$addr/v1/ingest" -H 'Content-Type: application/json' \
    -d '{"dims":[{"table":"synth_R1","rid":5,"features":[9.5,-9.5,4.0]}]}')"
grep -q '"dim_updates": 1' <<<"$body"
rows=""
for i in $(seq 0 34); do
    [ -n "$rows" ] && rows="$rows,"
    rows="$rows{\"sid\":$((600+i)),\"fks\":[$((i%20))],\"features\":[0.5,-0.5,1.0],\"target\":1}"
done
body="$(curl_json -X POST "http://$addr/v1/ingest" -H 'Content-Type: application/json' \
    -d "{\"facts\":[$rows]}")"
grep -q '"facts": 35' <<<"$body"

# Every record at or below this LSN has been acknowledged — and with
# -fsync-every 1, fsynced. None of them may be lost. The lineage rows
# observed here came from refreshes over durable batches, so recovery
# may only grow the count (replay re-fires the same refreshes, plus
# whatever loadgen lands between this probe and the kill).
acked_lsn="$(curl_json "http://$addr/statsz" | json_int last_lsn)"
[ -n "$acked_lsn" ] && [ "$acked_lsn" -ge 2 ] || { echo "bad acked LSN: $acked_lsn" >&2; exit 1; }
rows_mid="$(curl_json "http://$addr/v1/models/smoke-gmm/health" | json_int training_rows)"
echo "   acked through LSN $acked_lsn (lineage rows $rows_mid)"

echo "== kill -9 mid-traffic"
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
wait "$loadgen_pid" 2>/dev/null || true # loadgen sees refused connections; that is the point

echo "== rebooting on the crashed directory"
boot_wal "$tmp/serve2.log"
recovered="$(sed -n 's/.*recovered to LSN \([0-9]*\)).*/\1/p' "$tmp/serve2.log")"
echo "   recovered to LSN $recovered (acked through $acked_lsn)"
[ -n "$recovered" ] || { echo "reboot log names no recovered LSN" >&2; cat "$tmp/serve2.log" >&2; exit 1; }
if [ "$recovered" -lt "$acked_lsn" ]; then
    echo "acked-record loss: recovered LSN $recovered < acked LSN $acked_lsn" >&2
    exit 1
fi

echo "== health lineage is consistent after recovery"
h2="$(curl_json "http://$addr/v1/models/smoke-gmm/health")"
rows_after="$(json_int training_rows <<<"$h2")"
if [ -z "$rows_after" ] || [ "$rows_after" -lt "$rows_mid" ]; then
    echo "lineage lost rows across the crash: training_rows $rows_mid -> $rows_after" >&2
    exit 1
fi
echo "   training_rows $rows_before -> $rows_mid (pre-kill) -> $rows_after (recovered)"

echo "== rebooted server keeps serving"
p1="$(predict_gmm)"
body="$(curl_json -X POST "http://$addr/v1/ingest" -H 'Content-Type: application/json' \
    -d '{"dims":[{"table":"synth_R1","rid":5,"features":[-3.0,7.0,-1.5]}]}')"
grep -q '"dim_updates": 1' <<<"$body"
p2="$(predict_gmm)"
if [ "$p1" = "$p2" ]; then
    echo "prediction unchanged after post-recovery dimension update" >&2; exit 1
fi

echo "== WAL telemetry is live on the rebooted server"
stats="$(curl_json "http://$addr/statsz")"
grep -q '"wal"' <<<"$stats"
metrics="$(curl_json "http://$addr/metrics")"
grep -q '^factorml_wal_last_lsn ' <<<"$metrics"

echo "== graceful shutdown of the recovered server marks the WAL clean"
p_before="$(predict_gmm)"
rows_before_stop="$(curl_json "http://$addr/v1/models/smoke-gmm/health" | json_int training_rows)"
kill -TERM "$server_pid"
wait "$server_pid" || { echo "server exited non-zero on SIGTERM" >&2; cat "$tmp/serve2.log" >&2; exit 1; }
[ -f "$tmp/db.wal/CLEAN" ] || { echo "no CLEAN marker after a graceful shutdown" >&2; cat "$tmp/serve2.log" >&2; exit 1; }

echo "== third boot on the clean directory serves the same model"
boot_wal "$tmp/serve3.log"
p_after="$(predict_gmm)"
if [ "$p_before" != "$p_after" ]; then
    echo "prediction changed across the graceful restart:" >&2
    echo "  before: $p_before" >&2
    echo "  after:  $p_after" >&2
    exit 1
fi
rows_after_stop="$(curl_json "http://$addr/v1/models/smoke-gmm/health" | json_int training_rows)"
if [ "$rows_before_stop" != "$rows_after_stop" ]; then
    echo "lineage rows changed across the graceful restart: $rows_before_stop -> $rows_after_stop" >&2
    exit 1
fi
echo "   prediction and training_rows=$rows_after_stop unchanged"

echo "crash smoke OK"
