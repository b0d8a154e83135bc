// Multi-query serving bench: aggregate throughput and time-to-first-result
// for a mixed light/heavy workload served through the QueryScheduler.
//
// The workload is the serving-layer stress the paper's aggregator scenario
// implies: a few heavy analytical queries submitted first, then a burst of
// light interactive ones. The interesting numbers are the light queries'
// time-to-first-result under each scheduling configuration — with budget
// slicing off (budget=0, one flush per slice) a heavy region can hold a
// worker, with it on every query progresses every round — plus the
// aggregate makespan, which measures the scheduler's switching overhead.
//
// Every query's result count is checked against a solo session run; the
// full bit-level stream/counter equivalence lives in tests/service_test.cc.
//
// Extra flags over bench_common: --json=<path>, --workers=<n>.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "progxe/session.h"
#include "service/scheduler.h"

using namespace progxe;
using namespace progxe::bench;

namespace {

struct QueryTiming {
  bool heavy = false;
  double t_first = 0.0;
  double t_done = 0.0;
  size_t results = 0;
};

class TimingSink : public QuerySink {
 public:
  void Reset(const Stopwatch* watch, bool heavy) {
    watch_ = watch;
    timing_ = QueryTiming{};
    timing_.heavy = heavy;
  }
  void OnBatch(const std::vector<ResultTuple>& batch) override {
    if (timing_.results == 0) timing_.t_first = watch_->ElapsedSeconds();
    timing_.results += batch.size();
  }
  void OnDone(QueryState state, const Status& status,
              const ProgXeStats&) override {
    timing_.t_done = watch_->ElapsedSeconds();
    if (state != QueryState::kFinished) {
      std::fprintf(stderr, "query ended %s: %s\n", QueryStateName(state),
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  const QueryTiming& timing() const { return timing_; }

 private:
  const Stopwatch* watch_ = nullptr;
  QueryTiming timing_;
};

struct Scenario {
  const char* name;
  /// Slice weight of each light query; heavy queries weigh 1.
  double light_weight;
  size_t budget;
  int workers;
};

/// Sink for the refinement-burst runs: timing plus an order-insensitive
/// hash of the delivered id pairs, so cold and warm (cache + seeded) runs
/// can be checked for identical result sets.
class CollectSink : public QuerySink {
 public:
  void Reset(const Stopwatch* watch) {
    watch_ = watch;
    t_first_ = 0.0;
    pairs_.clear();
  }
  void OnBatch(const std::vector<ResultTuple>& batch) override {
    if (pairs_.empty()) t_first_ = watch_->ElapsedSeconds();
    for (const ResultTuple& res : batch) pairs_.emplace_back(res.r_id, res.t_id);
  }
  void OnDone(QueryState state, const Status& status,
              const ProgXeStats&) override {
    if (state != QueryState::kFinished) {
      std::fprintf(stderr, "reuse query ended %s: %s\n", QueryStateName(state),
                   status.ToString().c_str());
      std::exit(1);
    }
  }
  double t_first() const { return t_first_; }
  size_t results() const { return pairs_.size(); }
  /// FNV-1a over the sorted id pairs: equal iff the result *sets* match.
  uint64_t Hash() const {
    std::vector<std::pair<RowId, RowId>> sorted = pairs_;
    std::sort(sorted.begin(), sorted.end());
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
      for (int b = 0; b < 64; b += 8) {
        h = (h ^ ((v >> b) & 0xff)) * 1099511628211ull;
      }
    };
    for (const auto& [r, t] : sorted) {
      mix(static_cast<uint64_t>(r));
      mix(static_cast<uint64_t>(t));
    }
    return h;
  }

 private:
  const Stopwatch* watch_ = nullptr;
  double t_first_ = 0.0;
  std::vector<std::pair<RowId, RowId>> pairs_;
};

constexpr size_t kBurstChildren = 8;

struct BurstResult {
  double makespan = 0.0;
  double child_ttfr_mean = 0.0;
  std::vector<uint64_t> hashes;
  uint64_t prepare_hits = 0;
  uint64_t prepare_misses = 0;
};

/// One refinement burst: a parent query over `workload` runs to completion,
/// then kBurstChildren refinements of it are served concurrently. Warm runs
/// engage cross-query reuse (prepared-state cache + frontier seeding);
/// cold runs disable the cache and submit plain independent queries. The
/// children perturb serving-side parameters only (weight), so the result
/// sets must match the cold run's exactly.
BurstResult RunBurst(const Workload& workload, bool warm, int workers,
                     size_t budget) {
  ServiceOptions sopts;
  sopts.num_workers = workers;
  sopts.batch_budget = budget;
  if (!warm) sopts.prepare_cache_bytes = 0;  // reuse fully disabled

  QueryScheduler scheduler(sopts);
  Stopwatch parent_watch;
  CollectSink parent_sink;
  parent_sink.Reset(&parent_watch);
  SubmitOptions parent_submit;
  parent_submit.retain_results = warm;
  auto parent = scheduler.Submit(workload.query(), ProgXeOptions(),
                                 &parent_sink, parent_submit);
  if (!parent.ok()) {
    std::fprintf(stderr, "parent submit: %s\n",
                 parent.status().ToString().c_str());
    std::exit(1);
  }
  parent->Wait();  // children refine a frozen frontier

  std::vector<CollectSink> sinks(kBurstChildren);
  Stopwatch watch;  // burst clock: child TTFR measured from here
  for (size_t i = 0; i < kBurstChildren; ++i) {
    sinks[i].Reset(&watch);
    SubmitOptions submit;
    submit.weight = 1.0 + static_cast<double>(i);  // perturbed serving knob
    if (warm) {
      submit.parent = *parent;
      submit.seed_from_parent = true;
    }
    auto handle = scheduler.Submit(workload.query(), ProgXeOptions(),
                                   &sinks[i], submit);
    if (!handle.ok()) {
      std::fprintf(stderr, "child submit: %s\n",
                   handle.status().ToString().c_str());
      std::exit(1);
    }
  }
  scheduler.Drain();

  BurstResult result;
  result.makespan = watch.ElapsedSeconds();
  for (const CollectSink& sink : sinks) {
    result.child_ttfr_mean += sink.t_first();
    result.hashes.push_back(sink.Hash());
  }
  result.child_ttfr_mean /= static_cast<double>(kBurstChildren);
  const SchedulerStats stats = scheduler.stats();
  result.prepare_hits = stats.prepare_hits;
  result.prepare_misses = stats.prepare_misses;
  return result;
}

struct ScenarioResult {
  Scenario scenario;
  double makespan = 0.0;
  double ttfr_p50 = 0.0;
  double ttfr_p99 = 0.0;
  double light_ttfr_p50 = 0.0;
  double light_ttfr_worst = 0.0;
  size_t results_total = 0;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);
  std::string json_path;
  int workers_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers_override = std::atoi(argv[i] + 10);
    }
  }

  const size_t heavy_n = args.ResolveN(args.quick ? 2500 : 12000);
  const size_t light_n = std::max<size_t>(heavy_n / 10, 200);
  const int dims = args.ResolveDims(4);
  const double sigma = args.quick ? 0.01 : 0.004;
  constexpr size_t kHeavy = 3;
  constexpr size_t kLight = 9;

  // Heavy queries first, then the light burst — the worst case for a
  // FIFO-ish server and the motivating one for budget slicing.
  std::vector<Workload> workloads;
  std::vector<bool> heavy_flags;
  for (size_t i = 0; i < kHeavy + kLight; ++i) {
    const bool heavy = i < kHeavy;
    WorkloadParams params;
    params.distribution = Distribution::kAntiCorrelated;
    params.cardinality = heavy ? heavy_n : light_n;
    params.dims = dims;
    params.sigma = sigma;
    params.seed = args.seed + i;
    workloads.push_back(MustMakeWorkload(params));
    heavy_flags.push_back(heavy);
  }

  // Solo reference result counts (also warms the page cache evenly).
  std::vector<size_t> solo_results;
  for (const Workload& workload : workloads) {
    auto session = ProgXeSession::Open(workload.query(), ProgXeOptions());
    if (!session.ok()) {
      std::fprintf(stderr, "open: %s\n", session.status().ToString().c_str());
      return 1;
    }
    size_t count = 0;
    std::vector<ResultTuple> batch;
    while ((*session)->NextBatch(0, &batch) > 0) count += batch.size();
    solo_results.push_back(count);
  }

  std::printf(
      "multiquery: %zu heavy (n=%zu) + %zu light (n=%zu), dims=%d sigma=%g\n",
      kHeavy, heavy_n, kLight, light_n, dims, sigma);

  const int workers = workers_override > 0 ? workers_override : 1;
  // The last scenario contrasts the base worker count with a 4x pool (the
  // JSON records the exact count per run).
  const Scenario scenarios[] = {
      {"unsliced", 1.0, 0, workers},
      {"sliced", 1.0, 4096, workers},
      {"weighted_sliced", 4.0, 4096, workers},
      {"sliced_mw", 1.0, 4096, workers * 4},
  };

  std::vector<ScenarioResult> results;
  std::vector<TimingSink> sinks(workloads.size());
  for (const Scenario& scenario : scenarios) {
    ServiceOptions sopts;
    sopts.num_workers = scenario.workers;
    sopts.batch_budget = scenario.budget;
    sopts.max_concurrent = 0;

    Stopwatch watch;
    {
      QueryScheduler scheduler(sopts);
      for (size_t i = 0; i < workloads.size(); ++i) {
        sinks[i].Reset(&watch, heavy_flags[i]);
        SubmitOptions submit;
        submit.weight = heavy_flags[i] ? 1.0 : scenario.light_weight;
        auto handle = scheduler.Submit(workloads[i].query(), ProgXeOptions(),
                                       &sinks[i], submit);
        if (!handle.ok()) {
          std::fprintf(stderr, "submit: %s\n",
                       handle.status().ToString().c_str());
          return 1;
        }
      }
      scheduler.Drain();
    }

    ScenarioResult result;
    result.scenario = scenario;
    result.makespan = watch.ElapsedSeconds();
    std::vector<double> all_first;
    std::vector<double> light_first;
    for (size_t i = 0; i < sinks.size(); ++i) {
      const QueryTiming& timing = sinks[i].timing();
      if (timing.results != solo_results[i]) {
        std::fprintf(stderr,
                     "FATAL: query %zu served %zu results, solo %zu\n", i,
                     timing.results, solo_results[i]);
        return 1;
      }
      result.results_total += timing.results;
      all_first.push_back(timing.t_first);
      if (!timing.heavy) light_first.push_back(timing.t_first);
    }
    result.ttfr_p50 = Percentile(all_first, 0.50);
    result.ttfr_p99 = Percentile(all_first, 0.99);
    result.light_ttfr_p50 = Percentile(light_first, 0.50);
    result.light_ttfr_worst = Percentile(light_first, 1.0);
    results.push_back(result);

    std::printf(
        "  %-15s workers=%d budget=%-5zu makespan=%.4fs ttfr_p50=%.4fs "
        "ttfr_p99=%.4fs light_p50=%.4fs light_worst=%.4fs\n",
        scenario.name, scenario.workers, scenario.budget, result.makespan,
        result.ttfr_p50, result.ttfr_p99, result.light_ttfr_p50,
        result.light_ttfr_worst);
  }

  // Refinement burst: one parent + kBurstChildren refinements of the same
  // query, cold (reuse off) vs warm (prepared-state cache + frontier
  // seeding). The headline number is the mean per-child time-to-first-
  // result; identical result hashes are a hard correctness gate. The burst
  // workload is prepare-heavy (large correlated inputs: push-through and
  // the skyline leave little join work, so validation/sort/grid/look-ahead
  // dominate time-to-first-result) — the interactive-refinement shape
  // cross-query reuse exists for.
  WorkloadParams burst_params;
  burst_params.distribution = Distribution::kIndependent;
  burst_params.cardinality = heavy_n * 5;
  burst_params.dims = dims;
  burst_params.sigma = sigma / 40.0;  // sparse join: prepare-bound serving
  burst_params.seed = args.seed + 100;
  const Workload burst_workload = MustMakeWorkload(burst_params);
  const int burst_workers = std::max(workers, 4);
  const BurstResult cold =
      RunBurst(burst_workload, /*warm=*/false, burst_workers, 4096);
  const BurstResult warm =
      RunBurst(burst_workload, /*warm=*/true, burst_workers, 4096);
  bool reuse_match = cold.hashes == warm.hashes;
  const double ttfr_speedup =
      warm.child_ttfr_mean > 0.0 ? cold.child_ttfr_mean / warm.child_ttfr_mean
                                 : 0.0;
  std::printf(
      "  reuse_burst     workers=%d children=%zu cold_ttfr=%.4fs "
      "warm_ttfr=%.4fs speedup=%.2fx prepare_skipped=%llu match=%s\n",
      burst_workers, kBurstChildren, cold.child_ttfr_mean,
      warm.child_ttfr_mean, ttfr_speedup,
      static_cast<unsigned long long>(warm.prepare_hits),
      reuse_match ? "yes" : "NO");
  if (!reuse_match) {
    std::fprintf(stderr,
                 "FATAL: warm refinement burst served a different result set "
                 "than the cold run\n");
    return 1;
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"multiquery\",\n  \"heavy_n\": %zu,\n"
                 "  \"light_n\": %zu,\n  \"num_heavy\": %zu,\n"
                 "  \"num_light\": %zu,\n  \"dims\": %d,\n  \"sigma\": %g,\n"
                 "  \"runs\": [\n",
                 heavy_n, light_n, kHeavy, kLight, dims, sigma);
    for (size_t i = 0; i < results.size(); ++i) {
      const ScenarioResult& r = results[i];
      std::fprintf(
          out,
          "    {\"scenario\": \"%s\", \"light_weight\": %g, \"budget\": %zu, "
          "\"workers\": %d, \"makespan_s\": %.6f, \"ttfr_p50_s\": %.6f, "
          "\"ttfr_p99_s\": %.6f, \"light_ttfr_p50_s\": %.6f, "
          "\"light_ttfr_worst_s\": %.6f, \"results\": %zu}%s\n",
          r.scenario.name, r.scenario.light_weight,
          r.scenario.budget, r.scenario.workers, r.makespan, r.ttfr_p50,
          r.ttfr_p99, r.light_ttfr_p50, r.light_ttfr_worst, r.results_total,
          i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(
        out,
        "  \"reuse\": {\"children\": %zu, \"workers\": %d, "
        "\"cold_makespan_s\": %.6f, \"warm_makespan_s\": %.6f, "
        "\"cold_child_ttfr_mean_s\": %.6f, \"warm_child_ttfr_mean_s\": %.6f, "
        "\"child_ttfr_speedup\": %.4f, \"prepare_skipped\": %llu, "
        "\"prepare_misses\": %llu, \"results_match\": %s}\n",
        kBurstChildren, burst_workers, cold.makespan, warm.makespan,
        cold.child_ttfr_mean, warm.child_ttfr_mean, ttfr_speedup,
        static_cast<unsigned long long>(warm.prepare_hits),
        static_cast<unsigned long long>(warm.prepare_misses),
        reuse_match ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
