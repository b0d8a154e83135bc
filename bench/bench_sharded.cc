// Sharded-execution bench: makespan and time-to-first-result of one query
// served through the ShardedStream, swept over the shard count K.
//
// Each K-run drives the identical workload through OpenProgXeStream with
// K ∈ {1, 2, 4, 8}: K = 1 is the plain session baseline, larger K measures
// the sharded executor's overheads (K PreparePhases over 1/K-sized slices,
// the merge sink's dominance filtering and finality checks) and its
// benefits (smaller per-shard grids, and shards prepared and pumped
// concurrently on the process-wide shard pool of at most one thread per
// core). Each K > 1
// run also reports its time to first result relative to K = 1
// (t_first_ratio), the paper's progressiveness metric for sharding. The
// region loops' coverage bookkeeping (coverage build, release row walks,
// ProgCount, EL-Graph watch lists) is reported as coverage_cells_walked,
// summed over shards. Each shard sizes its own output grid from its slice's
// expected join output; the resolved cells per dimension are reported per
// shard as output_cells_per_dim. The result *set* is checked identical to
// the K = 1 run on every configuration.
//
// Extra flags over bench_common: --json=<path>.
#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "obs/trace.h"
#include "progxe/session.h"
#include "progxe/stream.h"
#include "shard/sharded_stream.h"

using namespace progxe;
using namespace progxe::bench;

namespace {

struct ShardRun {
  int num_shards = 0;
  double makespan = 0.0;
  double t_first = 0.0;
  size_t results = 0;
  uint64_t join_pairs = 0;
  uint64_t comparisons = 0;        // per-shard engine counters, summed
  uint64_t merge_comparisons = 0;  // merge-sink filtering/finality checks
  size_t held_peak = 0;            // merge-sink held-queue high-water mark
  double merge_time = 0.0;         // seconds spent inside the merge sink
  uint64_t coverage_cells = 0;     // region-coverage bookkeeping work
  std::vector<int> output_cells;   // resolved output grid, per shard
  double t_first_ratio = 1.0;      // t_first / t_first at K = 1
};

/// "5/5/6/5": one resolved cells-per-dimension entry per shard.
std::string JoinCells(const std::vector<int>& cells, const char* sep) {
  std::string out;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += sep;
    out += std::to_string(cells[i]);
  }
  return out;
}

using IdSet = std::vector<std::pair<RowId, RowId>>;

/// ns/call of the *disabled* fault-injection hook — the price every
/// NextBatch/open site pays in a production (injector-free) build. The
/// contract is "one predicted branch": CI gates this number so a future
/// refactor can't silently put a rule-table scan on the hot path.
double MeasureDisabledHookNs() {
  constexpr int kCalls = 1 << 22;
  // Volatile load per call: real sites read the injector from options, so a
  // literal nullptr here would let the compiler fold the whole loop away.
  FaultInjector* volatile no_injector = nullptr;
  size_t ok = 0;
  Stopwatch watch;
  for (int i = 0; i < kCalls; ++i) {
    ok += MaybeInjectFault(no_injector, fault_sites::kShardNextBatch, i).ok();
  }
  const double elapsed = watch.ElapsedSeconds();
  if (ok != static_cast<size_t>(kCalls)) std::abort();  // keep the loop live
  return elapsed * 1e9 / static_cast<double>(kCalls);
}

/// ns/call of a *disabled* trace span — construct + destruct with tracing
/// off, the price every instrumented site pays when no trace is being
/// recorded. Same "one predicted branch" contract (and the same CI gate)
/// as the fault hook above.
double MeasureDisabledTraceHookNs() {
  constexpr int kCalls = 1 << 22;
  // Volatile name per call: a compile-time-constant argument would let the
  // whole span pair fold away instead of exercising the active() check.
  const char* volatile name = "bench.disabled";
  size_t live = 0;
  Stopwatch watch;
  for (int i = 0; i < kCalls; ++i) {
    TraceSpan span(trace_cats::kSched, name);
    live += name != nullptr;
  }
  const double elapsed = watch.ElapsedSeconds();
  if (live != static_cast<size_t>(kCalls)) std::abort();  // keep the loop live
  return elapsed * 1e9 / static_cast<double>(kCalls);
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  WorkloadParams params;
  params.distribution = Distribution::kAntiCorrelated;
  params.cardinality = args.ResolveN(args.quick ? 4000 : 20000);
  params.dims = args.ResolveDims(4);
  params.sigma = args.quick ? 0.01 : 0.004;
  params.seed = args.seed;
  const Workload workload = MustMakeWorkload(params);

  std::printf("sharded: %s\n", params.ToString().c_str());

  std::vector<ShardRun> runs;
  IdSet reference;
  for (int num_shards : {1, 2, 4, 8}) {
    ShardOptions shard_options;
    shard_options.num_shards = num_shards;

    Stopwatch watch;
    auto stream =
        OpenProgXeStream(workload.query(), ProgXeOptions(), shard_options);
    if (!stream.ok()) {
      std::fprintf(stderr, "open K=%d: %s\n", num_shards,
                   stream.status().ToString().c_str());
      return 1;
    }
    ShardRun run;
    run.num_shards = num_shards;
    IdSet ids;
    std::vector<ResultTuple> batch;
    while ((*stream)->NextBatch(0, &batch) > 0) {
      if (run.results == 0) run.t_first = watch.ElapsedSeconds();
      run.results += batch.size();
      for (const ResultTuple& res : batch) {
        ids.emplace_back(res.r_id, res.t_id);
      }
    }
    run.makespan = watch.ElapsedSeconds();
    run.join_pairs = (*stream)->stats().join_pairs_generated;
    run.comparisons = (*stream)->stats().dominance_comparisons;
    if (const auto* sharded =
            dynamic_cast<const ShardedStream*>(stream->get())) {
      run.merge_comparisons = sharded->merge_comparisons();
      run.held_peak = sharded->held_peak();
      run.merge_time = sharded->merge_seconds();
      run.coverage_cells = sharded->coverage_cells_walked();
      run.output_cells = sharded->output_cells_per_dim();
    } else if (const auto* session =
                   dynamic_cast<const ProgXeSession*>(stream->get())) {
      run.coverage_cells = session->coverage_cells_walked();
      run.output_cells = {session->options().output_cells_per_dim};
    }

    if (!runs.empty() && runs.front().t_first > 0.0) {
      run.t_first_ratio = run.t_first / runs.front().t_first;
    }
    std::sort(ids.begin(), ids.end());
    if (num_shards == 1) {
      reference = std::move(ids);
    } else if (ids != reference) {
      std::fprintf(stderr,
                   "FATAL: K=%d delivered %zu results, K=1 delivered %zu "
                   "(sets differ)\n",
                   num_shards, ids.size(), reference.size());
      return 1;
    }
    runs.push_back(run);

    std::printf(
        "  K=%-2d makespan=%8.4fs t_first=%8.4fs (x%.2f) results=%-7zu "
        "pairs=%-10llu cmps=%-10llu merge_cmps=%-9llu held_peak=%-6zu "
        "merge_t=%.4fs cov_cells=%llu grid=%s^%d\n",
        run.num_shards, run.makespan, run.t_first, run.t_first_ratio,
        run.results,
        static_cast<unsigned long long>(run.join_pairs),
        static_cast<unsigned long long>(run.comparisons),
        static_cast<unsigned long long>(run.merge_comparisons),
        run.held_peak, run.merge_time,
        static_cast<unsigned long long>(run.coverage_cells),
        JoinCells(run.output_cells, "/").c_str(), params.dims);
  }

  const double hook_ns = MeasureDisabledHookNs();
  std::printf("  fault_hook(disabled)=%.3fns/call\n", hook_ns);
  const double trace_ns = MeasureDisabledTraceHookNs();
  std::printf("  trace_hook(disabled)=%.3fns/call\n", trace_ns);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"sharded\",\n  \"n\": %zu,\n"
                 "  \"dims\": %d,\n  \"sigma\": %g,\n  \"seed\": %llu,\n"
                 "  \"fault_hook_ns_per_call\": %.3f,\n"
                 "  \"trace_hook_ns_per_call\": %.3f,\n"
                 "  \"runs\": [\n",
                 params.cardinality, params.dims, params.sigma,
                 static_cast<unsigned long long>(params.seed), hook_ns,
                 trace_ns);
    for (size_t i = 0; i < runs.size(); ++i) {
      const ShardRun& r = runs[i];
      std::fprintf(out,
                   "    {\"shards\": %d, \"makespan_s\": %.6f, "
                   "\"t_first_s\": %.6f, \"t_first_ratio\": %.4f, "
                   "\"results\": %zu, "
                   "\"join_pairs\": %llu, \"comparisons\": %llu, "
                   "\"merge_comparisons\": %llu, \"held_peak\": %zu, "
                   "\"merge_time_s\": %.6f, "
                   "\"coverage_cells_walked\": %llu, "
                   "\"output_cells_per_dim\": [%s]}%s\n",
                   r.num_shards, r.makespan, r.t_first, r.t_first_ratio,
                   r.results,
                   static_cast<unsigned long long>(r.join_pairs),
                   static_cast<unsigned long long>(r.comparisons),
                   static_cast<unsigned long long>(r.merge_comparisons),
                   r.held_peak, r.merge_time,
                   static_cast<unsigned long long>(r.coverage_cells),
                   JoinCells(r.output_cells, ", ").c_str(),
                   i + 1 == runs.size() ? "" : ",");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
