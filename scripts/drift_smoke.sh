#!/usr/bin/env bash
# Drift smoke test: datagen → train -save (which captures the training
# baseline into the model's lineage) → boot cmd/serve with the change
# feed and health monitoring → verify the health endpoint answers
# "fresh" at boot, ingest a deliberately shifted delta over HTTP, and
# assert the verdict flips to "drifting" with the PSI gauges visible in
# /metrics and the health section in /statsz. Exercises the full
# monitoring path through the real binaries.
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh

build_cmds datagen train serve

echo "== generating tiny synthetic star schema"
"$tmp/datagen" -db "$tmp/db" -ns 600 -nr 20 -ds 3 -dr 3 -seed 1

echo "== training and saving a model (baseline captured into lineage)"
"$tmp/train" -db "$tmp/db" -fact synth_S -dims synth_R1 -model gmm -algo f \
    -k 2 -iters 2 -save drift-gmm

echo "== rejecting invalid monitoring flags"
if "$tmp/serve" -db "$tmp/db" -dims synth_R1 -drift-warn 0.5 -drift-psi 0.2 2>"$tmp/err"; then
    echo "serve accepted -drift-warn > -drift-psi" >&2; exit 1
fi
grep -q 'drift-warn' "$tmp/err"
if "$tmp/serve" -db "$tmp/db" -dims synth_R1 -health-sample 1.5 2>"$tmp/err"; then
    echo "serve accepted -health-sample 1.5" >&2; exit 1
fi
grep -q 'health-sample' "$tmp/err"

echo "== booting serve with monitoring (drift-psi 0.25, staleness at 5000 rows)"
boot_serve "$tmp/serve.log" -db "$tmp/db" -dims synth_R1 -fact synth_S \
    -drift-warn 0.1 -drift-psi 0.25 -staleness-max-rows 5000 -health-sample 1
grep -q 'health monitoring:' "$tmp/serve.log"

echo "== lineage rides the models listing"
models="$(curl_json "http://$addr/v1/models")"
grep -q '"strategy": "factorized"' <<<"$models"

echo "== health is fresh at boot"
h1="$(curl_json "http://$addr/v1/models/drift-gmm/health")"
grep -q '"verdict": "fresh"' <<<"$h1"
grep -q '"training_rows": 600' <<<"$h1"

echo "== ingesting a shifted delta (features far outside the baseline)"
rows=""
for i in $(seq 0 79); do
    [ -n "$rows" ] && rows="$rows,"
    rows="$rows{\"sid\":$((600+i)),\"fks\":[$((i%20))],\"features\":[500.0,-500.0,250.0],\"target\":1}"
done
ingest="$(curl_json -X POST "http://$addr/v1/ingest" -H 'Content-Type: application/json' \
    -d "{\"facts\":[$rows]}")"
grep -q '"facts": 80' <<<"$ingest"

echo "== health flips to drifting with the shifted columns named"
h2="$(curl_json "http://$addr/v1/models/drift-gmm/health")"
echo "   $h2"
grep -q '"verdict": "drifting"' <<<"$h2"
grep -q '"status": "drift"' <<<"$h2"
grep -q '"rows_since_refresh": 80' <<<"$h2"

echo "== drift gauges render in /metrics"
metrics="$(curl_json "http://$addr/metrics")"
grep -q 'factorml_model_drift_psi{model="drift-gmm"}' <<<"$metrics"
grep -q 'factorml_model_health{model="drift-gmm",verdict="drifting"} 1' <<<"$metrics"
grep -q 'factorml_model_rows_since_refresh{model="drift-gmm"} 80' <<<"$metrics"

echo "== /statsz carries the health section"
stats="$(curl_json "http://$addr/statsz")"
grep -q '"health"' <<<"$stats"

echo "== a refresh absorbs the delta and restores fresh"
curl_json -X POST "http://$addr/v1/refresh" -d '{}' >/dev/null
h3="$(curl_json "http://$addr/v1/models/drift-gmm/health")"
grep -q '"verdict": "fresh"' <<<"$h3"
grep -q '"version": 2' <<<"$h3"

echo "drift smoke OK"
