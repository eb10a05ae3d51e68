#!/usr/bin/env bash
# Serving-tier saturation benchmark.
#
# Boots the same daemon configuration twice on ephemeral ports and runs
# the *same* loadgen harness against both: once as the baseline (the
# loadgen holding one request in flight per connection with no
# batching), once driven with pipelining and batched points-to queries.
# Merges the two reports into one artifact (default BENCH_SERVE_7.json)
# recording the QPS ratio at saturation. Exits non-zero if either run
# sees a protocol error or if the pipelined run is not at least
# MIN_SPEEDUP (default 2.0) times the baseline QPS.
#
# Knobs (env): BENCH_SECONDS, BENCH_CONNECTIONS, BENCH_PIPELINE,
# BENCH_BATCH, MIN_SPEEDUP.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_SERVE_7.json}"
SECS="${BENCH_SECONDS:-3}"
CONNS="${BENCH_CONNECTIONS:-8}"
PIPELINE="${BENCH_PIPELINE:-8}"
BATCH="${BENCH_BATCH:-32}"
MIN_SPEEDUP="${MIN_SPEEDUP:-2.0}"

cargo build --release -p ctxform-server >&2
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# run_one OUT-JSON "loadgen flags"
run_one() {
  local out="$1" loadgen_flags="$2"
  local port_file pid port
  port_file="$WORK/port"
  rm -f "$port_file"
  ./target/release/ctxform-serve --port 0 --port-file "$port_file" \
    --queue 256 &
  pid=$!
  for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    sleep 0.1
  done
  port="$(cat "$port_file")"
  # shellcheck disable=SC2086
  ./target/release/ctxform-client --addr "127.0.0.1:$port" loadgen \
    --connections "$CONNS" --seconds "$SECS" $loadgen_flags --out "$out" >&2
  ./target/release/ctxform-client --addr "127.0.0.1:$port" shutdown >&2
  wait "$pid"
}

echo "== baseline: pipeline 1, no batching ==" >&2
run_one "$WORK/baseline.json" "--pipeline 1 --batch 0"

echo "== pipelined: pipeline $PIPELINE, batch $BATCH ==" >&2
run_one "$WORK/pipelined.json" "--pipeline $PIPELINE --batch $BATCH"

WORK="$WORK" OUT="$OUT" MIN_SPEEDUP="$MIN_SPEEDUP" python3 - <<'EOF'
import json, os

work = os.environ['WORK']
baseline = json.load(open(f'{work}/baseline.json'))
pipelined = json.load(open(f'{work}/pipelined.json'))
for name, run in (('baseline', baseline), ('pipelined', pipelined)):
    assert run['errors'] == 0, f'{name} run saw {run["errors"]} protocol errors'

speedup_qps = pipelined['throughput_qps'] / baseline['throughput_qps']
speedup_rps = pipelined['throughput_rps'] / baseline['throughput_rps']
artifact = {
    'schema': 'ctxform-serve-bench-pair/1',
    'baseline': baseline,
    'pipelined': pipelined,
    'speedup_qps': round(speedup_qps, 2),
    'speedup_rps': round(speedup_rps, 2),
}
out = os.environ['OUT']
json.dump(artifact, open(out, 'w'), indent=2)
print(f'{out}: baseline {baseline["throughput_qps"]:.0f} qps -> '
      f'pipelined {pipelined["throughput_qps"]:.0f} qps '
      f'({speedup_qps:.2f}x qps, {speedup_rps:.2f}x rps)')
floor = float(os.environ['MIN_SPEEDUP'])
assert speedup_qps >= floor, (
    f'pipelined run is only {speedup_qps:.2f}x baseline QPS (floor {floor}x)')
EOF
