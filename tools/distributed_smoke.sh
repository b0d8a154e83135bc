#!/usr/bin/env bash
# Loopback multi-process distributed smoke: two real shard-worker processes
# (progxe_server --worker) serve a K=4 query submitted by progxe_cli, and
# the delivered result set's canonical hash must equal the in-process run's
# — the end-to-end form of the bit-identity contract (wire serde, worker
# pump slicing, coordinator merge and watermark release all on the path).
# A server leg first checks that a sharded query's done line reports the
# same result count as the unsharded one, and that its `metrics` output is
# well-formed Prometheus text naming every ProgXeStats field
# (tools/check_metrics.py).
#
# Usage: tools/distributed_smoke.sh [build_dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
server="$build_dir/progxe_server"
cli="$build_dir/progxe_cli"

[[ -x "$server" && -x "$cli" ]] || {
  echo "build progxe_server and progxe_cli first (in $build_dir)" >&2
  exit 2
}

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

# Malformed numeric flags must be rejected, not truncated ("4x" -> 4).
if "$cli" --shards=4x --n=100 --series=0 >/dev/null 2>&1; then
  echo "FAIL: progxe_cli accepted --shards=4x" >&2
  exit 1
fi

# The server's done line reports the delivered count, so the same query
# served with shards=4 and shards=1 must end with the same results=.
done_results() {
  printf 'submit n=500 shards=%s\ndrain\nquit\n' "$1" | "$server" 2>/dev/null \
    | sed -n 's/^done id=[0-9]* state=finished results=\([0-9]*\).*/\1/p'
}
sharded_results="$(done_results 4)"
unsharded_results="$(done_results 1)"
echo "server done results: shards=4 $sharded_results, shards=1 $unsharded_results"
if [[ -z "$sharded_results" || "$sharded_results" != "$unsharded_results" ]]; then
  echo "FAIL: done results= differs between shards=4 and shards=1" >&2
  exit 1
fi

printf 'submit n=500 shards=2\ndrain\nmetrics\nquit\n' | "$server" 2>/dev/null \
  | python3 "$repo_root/tools/check_metrics.py" -

# Start two workers on ephemeral ports and read the announced ports back.
endpoints=()
for i in 1 2; do
  "$server" --worker --listen=0 </dev/null >"$workdir/worker$i.out" 2>/dev/null &
  pids+=($!)
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^worker listening port=//p' "$workdir/worker$i.out" | head -1)"
    [[ -n "$port" ]] && break
    sleep 0.05
  done
  [[ -n "$port" ]] || { echo "worker $i never announced its port" >&2; exit 1; }
  endpoints+=("127.0.0.1:$port")
done
workers="$(IFS=,; echo "${endpoints[*]}")"
echo "workers: $workers"

flags=(--dist=anticorrelated --n=4000 --dims=4 --sigma=0.002 --seed=7
       --shards=4 --result_hash --series=0)

local_hash="$("$cli" "${flags[@]}" | sed -n 's/^result_hash=\([0-9a-f]*\).*/\1/p')"
dist_hash="$("$cli" "${flags[@]}" --shard_workers="$workers" \
             | sed -n 's/^result_hash=\([0-9a-f]*\).*/\1/p')"

echo "in-process  result_hash=$local_hash"
echo "distributed result_hash=$dist_hash"
[[ -n "$local_hash" && -n "$dist_hash" ]] || {
  echo "FAIL: missing result hash output" >&2
  exit 1
}
if [[ "$local_hash" != "$dist_hash" ]]; then
  echo "FAIL: distributed run diverged from the in-process run" >&2
  exit 1
fi

# Worker-kill leg: kill worker 1 mid-setup and rerun against both endpoints
# (one now dead). Endpoint rotation must recover every shard on the
# survivor and the hash must still match.
kill "${pids[0]}" 2>/dev/null || true
wait "${pids[0]}" 2>/dev/null || true
recovered_hash="$("$cli" "${flags[@]}" --shard_workers="$workers" \
                  --max_retries=8 --retry_backoff_ms=1 \
                  | sed -n 's/^result_hash=\([0-9a-f]*\).*/\1/p')"
echo "post-kill   result_hash=$recovered_hash"
if [[ "$local_hash" != "$recovered_hash" ]]; then
  echo "FAIL: recovery after worker death changed the result set" >&2
  exit 1
fi

echo "OK distributed smoke (hash $local_hash, worker-kill recovery green)"
