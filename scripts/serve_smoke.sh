#!/usr/bin/env bash
# Serve smoke test: datagen → train -save → boot cmd/serve → curl /healthz,
# one predict, and /statsz. Exercises the full train→save→reload→serve path
# through the real binaries, the way CI and operators run them, with the
# access log on: the predict's log line must carry its X-Request-Id.
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh

build_cmds datagen train serve

echo "== generating tiny synthetic star schema"
"$tmp/datagen" -db "$tmp/db" -ns 500 -nr 20 -ds 3 -dr 3 -seed 1

echo "== rejecting invalid flags"
if "$tmp/train" -db "$tmp/db" -fact synth_S -dims synth_R1 -model nn -workers -2 2>"$tmp/err"; then
    echo "train accepted -workers -2" >&2; exit 1
fi
grep -q 'workers must be >= 0' "$tmp/err"

echo "== training and saving models"
"$tmp/train" -db "$tmp/db" -fact synth_S -dims synth_R1 -model nn -algo f \
    -hidden 8 -epochs 2 -save smoke-nn
"$tmp/train" -db "$tmp/db" -fact synth_S -dims synth_R1 -model gmm -algo f \
    -k 2 -iters 2 -save smoke-gmm

echo "== booting serve"
boot_serve "$tmp/serve.log" -db "$tmp/db" -dims synth_R1 -log-level info

echo "== /healthz"
health="$(curl_json "http://$addr/healthz")"
echo "   $health"
grep -q '"status": "ok"' <<<"$health"
grep -q '"models": 2' <<<"$health"

echo "== predict (repeated fk so the dimension cache must hit)"
pred="$(curl_json -X POST "http://$addr/v1/models/smoke-nn/predict" -D "$tmp/pred.hdr" \
    -H 'Content-Type: application/json' \
    -d '{"rows":[{"fact":[0.1,0.2,0.3],"fks":[5]},{"fact":[1,1,1],"fks":[5]}]}')"
echo "   $pred"
grep -q '"output"' <<<"$pred"
if grep -q '"error"' <<<"$pred"; then
    echo "predict returned a row error" >&2; exit 1
fi

echo "== access log (the predict's line carries its X-Request-Id as trace_id)"
reqid="$(tr -d '\r' <"$tmp/pred.hdr" | sed -n 's/^[Xx]-[Rr]equest-[Ii]d: *//p')"
[ -n "$reqid" ] || { echo "predict answered without X-Request-Id" >&2; cat "$tmp/pred.hdr" >&2; exit 1; }
line="$(grep '"msg":"http_request"' "$tmp/serve.log" | grep -F "\"trace_id\":\"$reqid\"" || true)"
echo "   $line"
grep -q '"endpoint":"predict"' <<<"$line" || { echo "no predict access-log line with trace_id $reqid" >&2; cat "$tmp/serve.log" >&2; exit 1; }

gpred="$(curl_json -X POST "http://$addr/v1/models/smoke-gmm/predict" \
    -H 'Content-Type: application/json' \
    -d '{"rows":[{"fact":[0.1,0.2,0.3],"fks":[5]}]}')"
echo "   $gpred"
grep -q '"log_prob"' <<<"$gpred"
grep -q '"cluster"' <<<"$gpred"

echo "== /statsz (hit rate must be non-zero)"
stats="$(curl_json "http://$addr/statsz")"
echo "   $stats"
grep -q '"dim_cache_hits"' <<<"$stats"
if grep -q '"dim_cache_hit_rate": 0,' <<<"$stats"; then
    echo "dimension cache hit rate is zero" >&2; exit 1
fi

echo "serve smoke: OK"
