#!/usr/bin/env bash
# Load smoke test: datagen → train -save → boot cmd/serve with admission
# control and metrics on → drive a mixed predict/ingest/refresh ramp with
# cmd/loadgen → check the BENCH_load.json report (percentiles present,
# every request answered 200/429/503 — never an unstructured failure) and
# that /metrics serves valid Prometheus text format afterwards. A second
# loadgen pass at 2× the saturated in-flight budget must produce
# structured 429s, proving overload degrades into fast rejections. The
# server batches predicts (-batch-window), and one FMB1 row with a NaN
# feature must come back as a per-row non_finite_feature error from the
# batcher's flush goroutine, with the server still ready afterwards. The
# server's partial cache holds 4 entries per (model, dimension) against a
# 20-tuple dimension, so the ramp's concurrent predicts and ingests evict
# and reuse cache slots all the time; /statsz must show the bound held.
set -euo pipefail

cd "$(dirname "$0")/.."
. scripts/lib.sh

out="${BENCH_LOAD_OUT:-BENCH_load.json}"
slow_out="${TRACE_SLOW_OUT:-TRACE_slow.json}"

build_cmds datagen train serve loadgen

echo "== rejecting invalid loadgen flags"
if "$tmp/loadgen" -model m 2>"$tmp/err"; then
    echo "loadgen accepted a missing -url" >&2; exit 1
fi
grep -q 'url is required' "$tmp/err"
if "$tmp/loadgen" -url http://x -model m -mix "predict=nope" 2>"$tmp/err"; then
    echo "loadgen accepted a bad mix" >&2; exit 1
fi
if "$tmp/loadgen" -url http://x -model m -wire msgpack 2>"$tmp/err"; then
    echo "loadgen accepted a bad -wire" >&2; exit 1
fi
grep -q 'wire must be json, binary or both' "$tmp/err"
if "$tmp/serve" -db x -dims d -max-batch 8 2>"$tmp/err"; then
    echo "serve accepted -max-batch without -batch-window" >&2; exit 1
fi
grep -q 'max-batch needs -batch-window' "$tmp/err"

echo "== generating tiny synthetic star schema"
"$tmp/datagen" -db "$tmp/db" -ns 500 -nr 20 -ds 3 -dr 3 -seed 1

echo "== training and saving a model"
"$tmp/train" -db "$tmp/db" -fact synth_S -dims synth_R1 -model nn -algo f \
    -hidden 8 -epochs 2 -save load-nn

echo "== booting serve with admission control + batching + metrics + streaming + debug listener + an evicting cache"
boot_serve "$tmp/serve.log" -db "$tmp/db" -dims synth_R1 -fact synth_S -cache 4 \
    -max-inflight 4 -max-ingest-queue 8 -batch-window 1ms -max-batch 64 \
    -trace-slow-ms 1 -debug-addr 127.0.0.1:0
debug_addr="$(sed -n 's/^factorml-serve debug listening on \([^ ]*\).*/\1/p' "$tmp/serve.log")"
[ -n "$debug_addr" ] || { echo "server never reported its debug address" >&2; cat "$tmp/serve.log" >&2; exit 1; }

echo "== mixed ramp (predict/ingest/refresh) with traceparent propagation, JSON and binary predict wires"
"$tmp/loadgen" -url "http://$addr" -model load-nn \
    -mix predict=0.9,ingest=0.09,refresh=0.01 \
    -rates 100,300 -step 2s -rows 4 -fact-width 3 -fk-max 20 \
    -trace-fraction 0.5 -wire both \
    -out "$out" | tee "$tmp/loadgen.log"

echo "== checking the report"
grep -q '"saturation_rps"' "$out"
grep -q '"p50_ms"' "$out"
grep -q '"p99_ms"' "$out"
grep -q '"p999_ms"' "$out"
grep -q '"predict_json"' "$out"
grep -q '"predict_binary"' "$out"
python3 - "$out" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
overall = report["overall"]
j, b = overall["predict_json"], overall["predict_binary"]
print(f"   predict_json   p50 {j['p50_ms']:.2f}ms p99 {j['p99_ms']:.2f}ms (n={j['count']})")
print(f"   predict_binary p50 {b['p50_ms']:.2f}ms p99 {b['p99_ms']:.2f}ms (n={b['count']})")
if b["p99_ms"] > j["p99_ms"]:
    # Informational on the tiny smoke steps; the real comparison runs at
    # sustained load where encoding cost dominates.
    print("   note: binary p99 above JSON p99 in this short smoke run")
EOF
if grep -q '"transport_errors": [^0]' "$out"; then
    echo "loadgen saw transport errors (timeouts/connection failures)" >&2
    cat "$out" >&2; exit 1
fi
grep -q '"p999_request_id"' "$out"
grep -q '"max_request_id"' "$out"

echo "== the 4-entry partial cache stayed bounded while it evicted"
curl -sSf "http://$addr/statsz" | python3 -c '
import json, sys
s = json.load(sys.stdin)
entries, misses, models, size = (s[k] for k in ("dim_cache_entries", "dim_cache_misses", "models", "dim_cache_bytes"))
print(f"   dim_cache_entries {entries} over {models} model(s), misses {misses}, bytes {size}")
assert entries <= 4 * models, f"{entries} cache entries exceed 4 per (model, dimension)"
assert misses > 20, f"only {misses} cache misses: the cache did not evict"
'

echo "== a NaN feature in a batched binary predict is a row error, not a crash"
# 52-byte FMB1 request: header (magic, type 1, pad, 1 row, 3 features,
# 1 key), features NaN 0 0 as little-endian float64, key 5.
printf 'FMB1\x01\x00\x00\x00\x01\x00\x00\x00\x03\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf8\x7f\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00' >"$tmp/nan.fmb1"
[ "$(wc -c <"$tmp/nan.fmb1")" -eq 52 ] || { echo "NaN request is not 52 bytes" >&2; exit 1; }
curl -sS -X POST "http://$addr/v1/models/load-nn/predict" \
    -H 'Content-Type: application/x-factorml-binary' \
    --data-binary @"$tmp/nan.fmb1" -o "$tmp/nan.out" || { echo "NaN predict got no response" >&2; cat "$tmp/serve.log" >&2; exit 1; }
grep -aq 'non_finite_feature' "$tmp/nan.out" || { echo "NaN predict answered without a non_finite_feature row error" >&2; exit 1; }
curl -sf "http://$addr/readyz" >/dev/null || { echo "server not ready after the NaN predict" >&2; cat "$tmp/serve.log" >&2; exit 1; }
echo "   NaN row answered non_finite_feature; server still ready"

# Predicts are fast enough (sub-millisecond) that the ramp alone may fill
# the slowest-N list with ingests; one deliberately heavy batch exercises
# the "chase a slow predict by its X-Request-Id" workflow for real.
echo "== heavy predict batch to land in the slow list"
heavy_id="$(python3 - "$addr" <<'EOF'
import json, sys, urllib.request
rows = [{"fact": [0.1, 0.2, 0.3], "fks": [k % 20]} for k in range(4000)]
req = urllib.request.Request(
    "http://%s/v1/models/load-nn/predict" % sys.argv[1],
    data=json.dumps({"rows": rows}).encode(),
    headers={"Content-Type": "application/json"})
with urllib.request.urlopen(req) as resp:
    resp.read()
    print(resp.headers.get("X-Request-Id", ""))
EOF
)"
[ -n "$heavy_id" ] || { echo "heavy predict returned no X-Request-Id" >&2; exit 1; }
echo "   X-Request-Id $heavy_id"

echo "== flight recorder: slow traces are well-formed and join against the report"
curl -sSf "http://$debug_addr/debug/traces/slow" >"$slow_out"
curl -sf "http://$debug_addr/debug/pprof/cmdline" >/dev/null || {
    echo "pprof is not served on the debug listener" >&2; exit 1
}
python3 - "$slow_out" "$out" "$heavy_id" <<'EOF'
import json, sys

slow = json.load(open(sys.argv[1]))
report = json.load(open(sys.argv[2]))
heavy_id = sys.argv[3]

assert slow["stats"]["recorded"] > 0, "flight recorder recorded no traces"
traces = slow["traces"]
assert traces, "/debug/traces/slow returned no traces"
for tr in traces:
    assert tr["trace_id"] == tr["request_id"], f"trace_id != request_id in {tr['trace_id']}"
    assert tr["spans"], f"trace {tr['trace_id']} has no spans"

# The heavy predict must be retrievable by the X-Request-Id its response
# carried, and its span tree must cover every instrumented level:
# admission -> engine batch -> per-worker chunk -> dimension cache lookup.
covered = next((tr for tr in traces if tr["request_id"] == heavy_id), None)
assert covered, f"heavy predict {heavy_id} is not in the slow list"
assert covered["name"] == "predict", f"trace {heavy_id} routed as {covered['name']!r}"
want = {"admission", "engine.predict", "engine.chunk", "cache.lookup"}
names = {s["name"] for s in covered["spans"]}
assert want <= names, f"trace {heavy_id} missing span levels {sorted(want - names)}"
print(f"   predict trace {covered['request_id']}: {len(covered['spans'])} spans, "
      f"{covered['duration_ms']:.2f} ms")

# The report's tail request ids are handles into the flight recorder:
# the worst request of the run must be retrievable by its X-Request-Id.
tail_ids = {
    v
    for step in report.get("steps", [])
    for ep in step.get("endpoints", {}).values()
    for v in (ep.get("p999_request_id"), ep.get("max_request_id"))
    if v
}
assert tail_ids, "report carries no tail request ids"
recorded = {tr["request_id"] for tr in traces}
joined = tail_ids & recorded
assert joined, "no tail request id from the report is present in the slow traces"
print(f"   {len(joined)}/{len(tail_ids)} tail request ids resolved in /debug/traces/slow")
EOF

echo "== overload: tiny in-flight budget must answer structured 429s"
pred_body='{"rows":[{"fact":[0.1,0.2,0.3],"fks":[5]}]}'
codes="$tmp/codes"
: >"$codes"
curl_pids=()
for _ in $(seq 1 40); do
    curl -s -o /dev/null -w '%{http_code}\n' -X POST \
        "http://$addr/v1/models/load-nn/predict" \
        -H 'Content-Type: application/json' -d "$pred_body" >>"$codes" &
    curl_pids+=("$!")
done
# Wait for the curls only — a bare `wait` would also wait on the server.
wait "${curl_pids[@]}"
sort "$codes" | uniq -c >&2
if grep -qv '^\(200\|429\)$' "$codes"; then
    echo "overload produced a status other than 200/429" >&2; exit 1
fi
echo "== /metrics is valid Prometheus text format"
metrics="$(curl -sSf "http://$addr/metrics")"
grep -q '^# TYPE factorml_http_requests_total counter' <<<"$metrics"
grep -q '^# TYPE factorml_http_request_duration_seconds histogram' <<<"$metrics"
grep -q '^factorml_http_request_duration_seconds_bucket{endpoint="predict",le="+Inf"}' <<<"$metrics"
grep -q '^factorml_engine_dim_cache_hit_rate' <<<"$metrics"
grep -q '^factorml_stream_ingest_queue_depth' <<<"$metrics"
# Every non-comment line must parse as name{labels} value.
if grep -v '^#' <<<"$metrics" | grep -qv '^[a-zA-Z_:][a-zA-Z0-9_:]*\({[^}]*}\)\? [0-9eE.+-]\+$\|^$'; then
    echo "malformed exposition line:" >&2
    grep -v '^#' <<<"$metrics" | grep -v '^[a-zA-Z_:][a-zA-Z0-9_:]*\({[^}]*}\)\? [0-9eE.+-]\+$\|^$' >&2
    exit 1
fi
# 429 rejections the overload pass produced must be visible to Prometheus.
if grep -q 'factorml_admission_rejections_total' <<<"$metrics"; then
    echo "   admission rejections are exported"
fi

echo "load smoke: OK (report in $out)"
