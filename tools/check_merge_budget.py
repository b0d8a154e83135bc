#!/usr/bin/env python3
"""CI gate on the sharded merge sink's dominance-comparison counter and the
disabled fault-injection hook's overhead.

The merge sink's work is measured by a deterministic counter
(`merge_comparisons` in the `bench_sharded` JSON), so unlike a timing
threshold this gate is stable across runners: a regression back toward the
flat O(accepted x arrivals) scan multiplies the counter by orders of
magnitude and trips the budget regardless of machine speed.

`coverage_cells_walked` (the same run's region-coverage bookkeeping counter:
cells visited by the coverage build and release row walks, cells examined
for ProgCount upkeep, and EL-Graph watch-list entries, summed over shards)
is held under `--coverage_budget` when that flag is given. The one counter,
cover_lo, is built by prefix sums and maintained by one up-set walk per
removed region, over an output grid each shard sizes to its slice's
expected join output; a second per-cell counter with its own box walk,
per-region build walks, per-call ProgCount box walks, cone walks or a fixed
full-size grid multiplies it — on any runner.

`--engine_budget=K:N` (repeatable) holds the K-run's engine
`comparisons` (the shards' `dominance_comparisons`, summed) under N. The
output table's slice sweeps skip cells on their per-cell value bounds and
answer cell-level domination from the up-closed marked set, so a
regression of either — sweeping cells whose bounds rule them out, or
comparing against dominated cells — raises this deterministic counter on
any runner.

`fault_hook_ns_per_call` (when present in the JSON) is additionally held
under a per-call nanosecond budget: the disabled MaybeInjectFault hook is
contractually one predicted branch, and a regression that consults the rule
table on the hot path costs 10-100x, far above runner jitter.
`trace_hook_ns_per_call` is gated the same way with its own budget: a
disabled TraceSpan must stay one predicted branch, never a thread-local
ring-buffer append.

The cross-query reuse burst (the `reuse` key, written by bench_multiquery)
is gated on two machine-independent booleans: the warm run must have hit
the prepared-state cache at least once (`prepare_skipped >= 1` — zero
means fingerprinting broke and every refinement silently re-prepares) and
the warm children's result hashes must equal the cold run's
(`results_match` — reuse must never change what a query returns).

The distributed loopback run (the `distributed` key, written by
bench_distributed) is gated on its own `results_match`: a K-shard query
served by remote worker processes must deliver exactly the in-process
result set — distribution is a placement decision, never a results
decision. Its nested `recovery` key (a worker killed mid-stream, its
shards replaying from scratch on the other worker) is gated the same way,
plus `retries >= 1`: a run that never retried never lost its worker, so
its match proves nothing about recovery.

`--match=<json>` compares every K-run's deterministic counters (results,
join pairs, engine and merge comparisons, held peak, coverage cells,
resolved grids) with another bench_sharded JSON of the
same workload, e.g. a sanitizer build against a plain one: the shards'
pool may interleave differently in each, and none of these may move.
`--counters_only` skips the two disabled-hook timing gates, for builds
whose instrumentation makes nanosecond timings meaningless (sanitizers);
the plain build keeps them.

Accepts a bare bench_sharded JSON ({"runs": [...]}), a full
BENCH_progxe.json (takes its "sharded" key, plus "multiquery.reuse" and
"distributed" when present), or a bare bench_multiquery JSON (its
top-level "reuse"; no sharded runs — only the "reuse" gate applies;
missing sharded data is an error only when there is no reuse section
either).

Usage: check_merge_budget.py <json> [--shards=4] [--budget=200000]
                                    [--coverage_budget=N]
                                    [--engine_budget=K:N ...]
                                    [--hook_budget_ns=15]
                                    [--trace_budget_ns=15]
                                    [--match=<json>] [--counters_only]
"""

# bench_sharded run fields that are deterministic work counts, not timings.
DETERMINISTIC_RUN_KEYS = (
    "results", "join_pairs", "comparisons", "merge_comparisons", "held_peak",
    "coverage_cells_walked", "output_cells_per_dim")


def load_runs(doc):
    data = doc if "runs" in doc else doc.get("sharded", {})
    return data, {run["shards"]: run
                  for run in data.get("runs", []) if "shards" in run}


def check_match(runs, path, other_path):
    with open(other_path) as f:
        _, other = load_runs(json.load(f))
    if sorted(runs) != sorted(other):
        raise SystemExit(f"FAIL: {path} runs K={sorted(runs)} but "
                         f"{other_path} runs K={sorted(other)}")
    for k in sorted(runs):
        for key in DETERMINISTIC_RUN_KEYS:
            a, b = runs[k].get(key), other[k].get(key)
            if a != b:
                raise SystemExit(
                    f"FAIL: K={k} {key} is {a} in {path} but {b} in "
                    f"{other_path} — a deterministic counter moved between "
                    f"builds, so shard scheduling leaked into the results")
    print(f"match: deterministic counters identical to {other_path} "
          f"(K={sorted(runs)})")

import json
import sys


def main(argv):
    path = None
    shards = 4
    budget = 200000
    coverage_budget = None
    engine_budgets = {}
    hook_budget_ns = 15.0
    trace_budget_ns = 15.0
    match_path = None
    timing = True
    for arg in argv[1:]:
        if arg.startswith("--shards="):
            shards = int(arg.split("=", 1)[1])
        elif arg.startswith("--budget="):
            budget = int(arg.split("=", 1)[1])
        elif arg.startswith("--coverage_budget="):
            coverage_budget = int(arg.split("=", 1)[1])
        elif arg.startswith("--engine_budget="):
            k, n = arg.split("=", 1)[1].split(":")
            engine_budgets[int(k)] = int(n)
        elif arg.startswith("--hook_budget_ns="):
            hook_budget_ns = float(arg.split("=", 1)[1])
        elif arg.startswith("--trace_budget_ns="):
            trace_budget_ns = float(arg.split("=", 1)[1])
        elif arg.startswith("--match="):
            match_path = arg.split("=", 1)[1]
        elif arg == "--counters_only":
            timing = False
        elif path is None:
            path = arg
        else:
            raise SystemExit(f"unexpected argument: {arg}")
    if path is None:
        raise SystemExit(__doc__)

    with open(path) as f:
        doc = json.load(f)
    data, runs = load_runs(doc)
    reuse = doc.get("reuse")
    if reuse is None and isinstance(doc.get("multiquery"), dict):
        reuse = doc["multiquery"].get("reuse")
    distributed = doc.get("distributed")
    if distributed is None and doc.get("bench") == "distributed":
        distributed = doc  # bare bench_distributed JSON

    if shards in runs:
        run = runs[shards]
        cmps = run["merge_comparisons"]
        print(f"K={shards}: merge_comparisons={cmps} budget={budget}")
        if cmps > budget:
            raise SystemExit(
                f"FAIL: merge_comparisons at K={shards} exceeded the budget "
                f"({cmps} > {budget}) — the merge sink is scanning instead "
                f"of using the dominance index")
        if coverage_budget is not None:
            walked = run.get("coverage_cells_walked")
            if walked is None:
                raise SystemExit(
                    f"FAIL: --coverage_budget given but the K={shards} run "
                    f"records no coverage_cells_walked")
            print(f"K={shards}: coverage_cells_walked={walked} "
                  f"budget={coverage_budget}")
            if walked > coverage_budget:
                raise SystemExit(
                    f"FAIL: coverage_cells_walked at K={shards} exceeded the "
                    f"budget ({walked} > {coverage_budget}) — region "
                    f"coverage upkeep is walking more than one up-set per "
                    f"removed region, or the output grid is no longer "
                    f"sized to the shard's join output")
    elif reuse is None and distributed is None:
        raise SystemExit(f"{path}: no K={shards} run recorded")

    for k, engine_budget in sorted(engine_budgets.items()):
        if k not in runs:
            raise SystemExit(
                f"FAIL: --engine_budget given for K={k} but {path} records "
                f"no K={k} run")
        cmps = runs[k]["comparisons"]
        print(f"K={k}: comparisons={cmps} budget={engine_budget}")
        if cmps > engine_budget:
            raise SystemExit(
                f"FAIL: engine comparisons at K={k} exceeded the budget "
                f"({cmps} > {engine_budget}) — the output table's slice "
                f"sweeps are comparing against cells their value bounds or "
                f"the marked set rule out")

    if match_path is not None:
        check_match(runs, path, match_path)

    hook_ns = data.get("fault_hook_ns_per_call") if timing else None
    if hook_ns is not None:
        print(f"fault_hook_ns_per_call={hook_ns} budget={hook_budget_ns}")
        if hook_ns > hook_budget_ns:
            raise SystemExit(
                f"FAIL: the disabled fault-injection hook costs {hook_ns}ns "
                f"per call (> {hook_budget_ns}ns) — it must stay a single "
                f"predicted branch when no injector is installed")

    trace_ns = data.get("trace_hook_ns_per_call") if timing else None
    if trace_ns is not None:
        print(f"trace_hook_ns_per_call={trace_ns} budget={trace_budget_ns}")
        if trace_ns > trace_budget_ns:
            raise SystemExit(
                f"FAIL: a disabled TraceSpan costs {trace_ns}ns per call "
                f"(> {trace_budget_ns}ns) — with tracing off it must stay a "
                f"single predicted branch, not touch the ring buffer")

    if isinstance(distributed, dict):
        match = distributed.get("results_match", False)
        retries = distributed.get("retries", 0)
        print(f"distributed: results_match={match} retries={retries}")
        if not match:
            raise SystemExit(
                "FAIL: the distributed loopback run delivered a different "
                "result set than the in-process run — remote shard workers "
                "must be bit-identical to local execution")
        recovery = distributed.get("recovery")
        if isinstance(recovery, dict):
            rec_match = recovery.get("results_match", False)
            rec_retries = recovery.get("retries", 0)
            print(f"recovery: results_match={rec_match} "
                  f"retries={rec_retries}")
            if not rec_match:
                raise SystemExit(
                    "FAIL: the worker-kill recovery run delivered a different "
                    "result set than the in-process run — replaying a "
                    "retried shard must never change what a query returns")
            if rec_retries < 1:
                raise SystemExit(
                    "FAIL: the worker-kill recovery run performed no shard "
                    "retry (retries < 1) — the kill never reached a live "
                    "shard, so recovery went unchecked")

    if reuse is not None:
        skipped = reuse.get("prepare_skipped", 0)
        match = reuse.get("results_match", False)
        print(f"reuse: prepare_skipped={skipped} results_match={match}")
        if skipped < 1:
            raise SystemExit(
                "FAIL: the warm refinement burst never hit the "
                "prepared-state cache (prepare_skipped < 1) — every "
                "refinement is silently re-running the prepare phase")
        if not match:
            raise SystemExit(
                "FAIL: the warm refinement burst served a different result "
                "set than the cold run — cross-query reuse must never "
                "change query results")
    print("OK")


if __name__ == "__main__":
    main(sys.argv)
