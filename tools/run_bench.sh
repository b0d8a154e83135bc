#!/usr/bin/env bash
# Runs the perf-trajectory benches and writes BENCH_progxe.json at the repo
# root: Fig-10/13-style per-config total time, time-to-first-result and
# dominance-comparison counts, the multi-query serving-layer sweep
# (bench_multiquery), the shard-count sweep of the sharded executor
# (bench_sharded), plus the insert-path, CombineBatch, grid-binning,
# key-index and cold-prepare microbenchmarks when google-benchmark is
# available.
#
# Usage: tools/run_bench.sh [build_dir] [extra bench_json_summary flags...]
#   tools/run_bench.sh                 # uses ./build, CI-scale sizes
#   tools/run_bench.sh build --quick   # smoke-sized run
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
shift || true

if [[ ! -x "$build_dir/bench_json_summary" ]]; then
  echo "building benches in $build_dir ..."
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
  cmake --build "$build_dir" -j --target bench_json_summary >/dev/null
  cmake --build "$build_dir" -j --target bench_multiquery >/dev/null
  cmake --build "$build_dir" -j --target bench_sharded >/dev/null
  cmake --build "$build_dir" -j --target bench_distributed >/dev/null
  cmake --build "$build_dir" -j --target bench_micro_components >/dev/null 2>&1 || true
fi

out="$repo_root/BENCH_progxe.json"
"$build_dir/bench_json_summary" --out="$out.tmp" "$@"

multiquery_json=""
if [[ -x "$build_dir/bench_multiquery" ]]; then
  echo "running multi-query serving bench ..."
  "$build_dir/bench_multiquery" --json="$out.multiquery.tmp" "$@"
  multiquery_json="$(cat "$out.multiquery.tmp")"
  rm -f "$out.multiquery.tmp"
fi

sharded_json=""
if [[ -x "$build_dir/bench_sharded" ]]; then
  echo "running sharded-execution bench ..."
  "$build_dir/bench_sharded" --json="$out.sharded.tmp" "$@"
  sharded_json="$(cat "$out.sharded.tmp")"
  rm -f "$out.sharded.tmp"
fi

distributed_json=""
if [[ -x "$build_dir/bench_distributed" ]]; then
  echo "running distributed-execution bench ..."
  "$build_dir/bench_distributed" --json="$out.distributed.tmp" "$@"
  distributed_json="$(cat "$out.distributed.tmp")"
  rm -f "$out.distributed.tmp"
fi

micro_json=""
if [[ -x "$build_dir/bench_micro_components" ]]; then
  echo "running insert-path and prepare microbenchmarks ..."
  micro_json="$("$build_dir/bench_micro_components" \
      --benchmark_filter='OutputTableInsert|CombineBatch|GridCoordsOf|KeyIndexJoin|BuildPreparedInputs' \
      --benchmark_format=json 2>/dev/null)"
fi

# Run metadata for the history entry: timings from different scales, core
# counts, compilers or commits are not comparable.
scale=full
for arg in "$@"; do
  [[ "$arg" == "--quick" ]] && scale=quick
done
cores="$(nproc 2>/dev/null || echo unknown)"
compiler="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' \
    "$build_dir/CMakeCache.txt" 2>/dev/null | head -1)"
compiler="$("${compiler:-c++}" --version 2>/dev/null | head -1 || true)"
sha="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [[ -n "$(git -C "$repo_root" status --porcelain --untracked-files=no \
    2>/dev/null)" ]]; then
  sha="$sha-dirty"
fi

# Merge the multi-query, sharded, distributed and micro results (if any)
# into the summary JSON, and carry forward the run history: each invocation
# appends one timestamped headline entry to a bounded "history" array
# instead of wiping the previous runs' trajectory.
MICRO_JSON="$micro_json" \
MULTIQUERY_JSON="$multiquery_json" SHARDED_JSON="$sharded_json" \
DISTRIBUTED_JSON="$distributed_json" RUN_SCALE="$scale" RUN_NPROC="$cores" \
RUN_COMPILER="$compiler" RUN_SHA="$sha" \
python3 - "$out.tmp" "$out" <<'EOF'
import datetime, json, os, sys
summary = json.load(open(sys.argv[1]))
multiquery_raw = os.environ.get("MULTIQUERY_JSON", "")
if multiquery_raw.strip():
    summary["multiquery"] = json.loads(multiquery_raw)
sharded_raw = os.environ.get("SHARDED_JSON", "")
if sharded_raw.strip():
    summary["sharded"] = json.loads(sharded_raw)
distributed_raw = os.environ.get("DISTRIBUTED_JSON", "")
if distributed_raw.strip():
    summary["distributed"] = json.loads(distributed_raw)
micro_raw = os.environ.get("MICRO_JSON", "")
if micro_raw.strip():
    micro = json.loads(micro_raw)
    summary["micro_insert"] = [
        {
            "name": b["name"],
            "items_per_second": b.get("items_per_second"),
            "cpu_time_ns": b.get("cpu_time"),
        }
        for b in micro.get("benchmarks", [])
    ]

# One compact headline per run: enough to plot a trend, small enough that
# dozens of entries stay readable. The full per-run detail lives in the
# top-level keys, which describe only the latest run. Every timing here is
# one run, not a repeated measurement: perfbench/ is the timing authority.
entry = {"timestamp":
         datetime.datetime.now(datetime.timezone.utc)
         .strftime("%Y-%m-%dT%H:%M:%SZ"),
         "timing": "single-shot",
         "scale": os.environ["RUN_SCALE"],
         "nproc": os.environ["RUN_NPROC"],
         "compiler": os.environ["RUN_COMPILER"],
         "git_sha": os.environ["RUN_SHA"]}
sharded = summary.get("sharded")
if isinstance(sharded, dict):
    for key in ("fault_hook_ns_per_call", "trace_hook_ns_per_call"):
        if key in sharded:
            entry[key] = sharded[key]
    for run in sharded.get("runs", []):
        if run.get("shards") == 4:
            for key in ("merge_comparisons", "coverage_cells_walked",
                        "makespan_s", "t_first_s", "t_first_ratio"):
                if key in run:
                    entry[f"k4_{key}"] = run[key]
multiquery = summary.get("multiquery")
reuse = multiquery.get("reuse") if isinstance(multiquery, dict) else None
if isinstance(reuse, dict):
    for key in ("prepare_skipped", "results_match"):
        if key in reuse:
            entry[f"reuse_{key}"] = reuse[key]
distributed = summary.get("distributed")
if isinstance(distributed, dict):
    for key in ("distributed_makespan_s", "bytes_sent", "results_match"):
        if key in distributed:
            entry[f"distributed_{key}" if not key.startswith("distributed")
                  else key] = distributed[key]
    recovery = distributed.get("recovery")
    if isinstance(recovery, dict):
        for key in ("retries", "results_match"):
            if key in recovery:
                entry[f"recovery_{key}"] = recovery[key]

history = []
if os.path.exists(sys.argv[2]):
    try:
        prev = json.load(open(sys.argv[2]))
        history = prev.get("history", [])
        if not isinstance(history, list):
            history = []
    except (ValueError, OSError):
        history = []
history.append(entry)
summary["history"] = history[-100:]  # bound unbounded growth

json.dump(summary, open(sys.argv[2], "w"), indent=2)
print(f"wrote {sys.argv[2]} (history: {len(summary['history'])} entries)")
EOF
rm -f "$out.tmp"
