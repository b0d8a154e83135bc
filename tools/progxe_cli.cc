// progxe_cli — run any algorithm on a synthetic SkyMapJoin workload from
// the command line and inspect progressiveness interactively.
//
//   $ progxe_cli --dist=anti --n=20000 --dims=4 --sigma=0.001 --algo=ProgXe
//   $ progxe_cli --algo=all --csv=series.csv
//
// Every flag is --key or --key=value. The shared submission and serving
// keys are listed, with their ranges and meaning, once in
// harness/submit_spec.h and parsed there, as in progxe_server:
//   --dist --n --dims --sigma --seed --algo --max_results
//   --deadline_ms --shards --shard_workers --max_retries
//   --retry_backoff_ms --allow_partial --faults --fault_seed
//   --workers --budget --max_concurrent
// Here --algo also takes `all` (every algorithm in turn, each with a fresh
// fault injector, so each meets the same fault schedule); the shard keys
// act on the ProgXe variants (baselines run unsharded); --deadline_ms and
// the serving keys act on the --queries path (defaults 2 workers,
// unbounded admission), whose queries share one fault injector.
// --deadline_ms needs --queries > 1 and --max_results a ProgXe variant.
// --weight and --max_queue are rejected: every query here has the same
// weight and all are submitted at once.
//
// Tool-only flags:
//   --result_hash      print "result_hash=<hex>" — an order-insensitive
//                      FNV-1a hash of the canonical (r_id, t_id) result
//                      pairs, for comparing runs across processes
//   --csv=<path>       append per-emission series rows to a CSV file
//   --series=<k>       print at most k series samples (default 10, 0 = none)
//   --trace_out=<path> record a span trace of the whole run and write it
//                      as Chrome trace_event JSON (load in Perfetto /
//                      chrome://tracing); works for single runs and
//                      multi-query serving alike
//   --queries=<N>      serve N workloads (seeds seed..seed+N-1, ProgXe
//                      variants only) concurrently through the
//                      QueryScheduler, printing per-query stats as each
//                      one finishes; --shards serves each query as one
//                      sharded stream behind its QueryHandle
//   --reuse            cross-query reuse demo: all N queries serve ONE
//                      shared workload; query 0 runs first and retains its
//                      results, queries 1..N-1 are then submitted as
//                      refinements of it (the prepared-state cache skips
//                      their prepare phase and their region loops are
//                      seeded from query 0's accepted frontier). Prints
//                      the scheduler's cache counters at the end.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/csv_writer.h"
#include "common/stopwatch.h"
#include "harness/experiment.h"
#include "harness/submit_spec.h"
#include "obs/trace.h"
#include "service/scheduler.h"

using namespace progxe;

namespace {

struct CliArgs {
  SubmitSpec spec;
  ServiceOptions serve{.num_workers = 2, .max_concurrent = 0};
  bool all_algos = false;

  bool result_hash = false;
  std::string csv_path;
  std::string trace_path;
  int series_samples = 10;
  size_t queries = 1;
  bool reuse = false;
  bool help = false;
};

/// The tool-only flags.
Status ApplyCliSetting(const Setting& setting, CliArgs* args) {
  const std::string_view key = setting.key;
  std::string_view value;
  if (key == "result_hash") return SettingFlag(setting, &args->result_hash);
  if (key == "csv" || key == "trace_out") {
    PROGXE_RETURN_NOT_OK(SettingValue(setting, &value));
    (key == "csv" ? args->csv_path : args->trace_path) = value;
    return Status::OK();
  }
  if (key == "series") {
    return SettingNumber(setting, 0, std::numeric_limits<int>::max(),
                         &args->series_samples);
  }
  if (key == "queries") {
    return SettingNumber(setting, size_t{1},
                         std::numeric_limits<size_t>::max(), &args->queries);
  }
  if (key == "reuse") return SettingFlag(setting, &args->reuse);
  if (key == "help") return SettingFlag(setting, &args->help);
  return UnknownSetting(setting);
}

Status ParseArgs(const std::vector<std::string>& argv, CliArgs* args) {
  std::vector<Setting> settings;
  PROGXE_RETURN_NOT_OK(SplitSettings(argv, "--", &settings));
  bool deadline = false;
  for (const Setting& setting : settings) {
    const std::string key(setting.key);
    if (key == "weight" || key == "max_queue") {
      return Status::InvalidArgument("--" + key +
                                     " has no effect in progxe_cli");
    }
    deadline |= key == "deadline_ms";
    if (key == "algo" && setting.value == "all") {
      // "all" is a CLI loop over every algorithm, not one Algo.
      args->all_algos = true;
      continue;
    }
    Status st = ApplySubmitSetting(setting, &args->spec);
    if (st.IsNotFound()) st = ApplyServeSetting(setting, &args->serve);
    if (st.IsNotFound()) st = ApplyCliSetting(setting, args);
    PROGXE_RETURN_NOT_OK(st);
  }
  if (deadline && args->queries == 1) {
    return Status::InvalidArgument("--deadline_ms needs --queries > 1");
  }
  if (args->spec.options.max_results != 0 &&
      (args->all_algos || !IsProgXeVariant(args->spec.algo))) {
    return Status::InvalidArgument(
        "--max_results applies to ProgXe variants only");
  }
  return Status::OK();
}

/// FNV-1a over the canonical (r_id, t_id) pairs. Order-insensitive by
/// construction — CanonicalIdPairs sorts first — so two runs agree iff
/// their result *sets* agree, which is what the distributed smoke compares
/// across processes.
uint64_t ResultHash(const std::vector<ResultTuple>& results) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& pair : CanonicalIdPairs(results)) {
    mix(static_cast<uint64_t>(pair.first));
    mix(static_cast<uint64_t>(pair.second));
  }
  return h;
}

/// The resolved output grid of a ProgXe run as " grid=7^4", or per shard
/// as " grid=5/6/5/5^4" ("?" for a remote shard, whose grid is resolved on
/// its worker). Empty for the baselines.
std::string GridLabel(const std::vector<int>& cells_per_dim, int dims) {
  if (cells_per_dim.empty()) return "";
  const bool uniform =
      std::all_of(cells_per_dim.begin(), cells_per_dim.end(),
                  [&](int c) { return c == cells_per_dim.front(); });
  std::string label = " grid=";
  for (size_t i = 0; i < (uniform ? 1 : cells_per_dim.size()); ++i) {
    if (i > 0) label += "/";
    label += cells_per_dim[i] > 0 ? std::to_string(cells_per_dim[i]) : "?";
  }
  return label + "^" + std::to_string(dims);
}

int RunOne(Algo algo, const Workload& workload, const CliArgs& args,
           CsvWriter* csv) {
  ShardOptions shards = args.spec.submit.shards;
  if ((shards.num_shards > 1 || !shards.workers.empty()) &&
      !IsProgXeVariant(algo)) {
    // Keeps --algo=all --shards=K usable: ProgXe variants run sharded,
    // baselines (which have no shard path) run as-is.
    std::fprintf(stderr, "%s: --shards/--shard_workers apply to ProgXe "
                 "variants only; running unsharded\n",
                 AlgoName(algo));
    shards.num_shards = 1;
    shards.workers.clear();
  }
  auto run = RunAlgorithm(algo, workload, args.spec.EngineOptions(), shards);
  if (!run.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", AlgoName(algo),
                 run.status().ToString().c_str());
    return 1;
  }
  std::printf("%-20s results=%-8zu t_first=%.6fs t_50%%=%.6fs total=%.6fs "
              "cmps=%llu pairs=%llu%s\n",
              AlgoName(algo), run->metrics.total_results,
              run->metrics.time_to_first, run->metrics.time_to_50pct,
              run->metrics.total_time,
              static_cast<unsigned long long>(run->dominance_comparisons),
              static_cast<unsigned long long>(run->join_pairs),
              GridLabel(run->output_cells_per_dim, args.spec.params.dims)
                  .c_str());
  if (run->coverage.retries > 0 || !run->coverage.complete()) {
    std::printf("  coverage: %s%s\n", run->coverage.ToString().c_str(),
                run->coverage.complete() ? "" : " (PARTIAL result set)");
  }
  if (args.result_hash) {
    std::printf("result_hash=%016llx results=%zu\n",
                static_cast<unsigned long long>(ResultHash(run->results)),
                run->results.size());
  }
  if (args.series_samples > 0 && !run->series.empty()) {
    std::vector<SeriesPoint> pts = run->series;
    const size_t max_pts = static_cast<size_t>(args.series_samples);
    if (pts.size() > max_pts) {
      // Evenly spaced over the series, ending at its final point (the
      // only point when max_pts is 1).
      std::vector<SeriesPoint> sampled;
      const size_t last = pts.size() - 1;
      for (size_t i = 0; i < max_pts; ++i) {
        sampled.push_back(pts[max_pts == 1 ? last : i * last / (max_pts - 1)]);
      }
      pts = std::move(sampled);
    }
    std::printf("  series:");
    for (const SeriesPoint& p : pts) {
      std::printf(" %.4f:%zu", p.t_sec, p.count);
    }
    std::printf("\n");
  }
  if (csv != nullptr) {
    const WorkloadParams& params = args.spec.params;
    for (const SeriesPoint& p : run->series) {
      csv->WriteValues(std::string(AlgoName(algo)),
                       std::string(DistributionName(params.distribution)),
                       params.cardinality, params.dims, params.sigma, p.t_sec,
                       p.count);
    }
  }
  return 0;
}

/// The workload the CLI flags describe; multi-query serving offsets the
/// seed per query.
WorkloadParams MakeParams(const CliArgs& args, size_t seed_offset) {
  WorkloadParams params = args.spec.params;
  params.seed += seed_offset;
  return params;
}

/// Serves `args.queries` workloads (seeds seed..seed+N-1) concurrently
/// through the QueryScheduler, printing per-query progressive stats.
int RunMultiQuery(Algo algo, const CliArgs& args) {
  struct CliSink : QuerySink {
    size_t index = 0;
    const Stopwatch* watch = nullptr;
    double t_first = 0.0;
    double t_done = 0.0;
    size_t batches = 0;
    size_t results = 0;
    ProgXeStats stats;
    QueryState final_state = QueryState::kQueued;
    void OnBatch(const std::vector<ResultTuple>& batch) override {
      if (results == 0) t_first = watch->ElapsedSeconds();
      results += batch.size();
      ++batches;
    }
    void OnDone(QueryState state, const Status& status,
                const ProgXeStats& final_stats) override {
      t_done = watch->ElapsedSeconds();
      final_state = state;
      stats = final_stats;
      if (!status.ok()) {
        std::fprintf(stderr, "query %zu failed: %s\n", index,
                     status.ToString().c_str());
      }
    }
  };

  // --reuse serves one shared workload (pointer-identical sources are what
  // let the prepared-state cache and frontier seeding engage); otherwise
  // each query gets its own seed-offset workload.
  const size_t distinct_workloads = args.reuse ? 1 : args.queries;
  std::vector<std::unique_ptr<Workload>> workloads;
  for (size_t i = 0; i < distinct_workloads; ++i) {
    auto workload = Workload::Make(MakeParams(args, i));
    if (!workload.ok()) {
      std::fprintf(stderr, "workload %zu: %s\n", i,
                   workload.status().ToString().c_str());
      return 1;
    }
    workloads.push_back(std::make_unique<Workload>(workload.MoveValue()));
  }

  const ServiceOptions& sopts = args.serve;
  std::printf("serving %zu x %s: workers=%d budget=%zu shards=%d\n",
              args.queries, AlgoName(algo), sopts.num_workers,
              sopts.batch_budget, args.spec.submit.shards.num_shards);

  std::vector<CliSink> sinks(args.queries);
  std::vector<QueryHandle> handles(args.queries);
  Stopwatch watch;
  QueryScheduler scheduler(sopts);
  const ProgXeOptions options =
      OptionsForAlgo(algo, args.spec.EngineOptions());
  for (size_t i = 0; i < args.queries; ++i) {
    sinks[i].index = i;
    sinks[i].watch = &watch;
    const Workload& workload = args.reuse ? *workloads[0] : *workloads[i];
    SubmitOptions qsubmit = args.spec.submit;
    if (args.reuse) {
      if (i == 0) {
        qsubmit.retain_results = true;
      } else {
        qsubmit.parent = handles[0];
        qsubmit.seed_from_parent = true;
      }
    }
    auto handle =
        scheduler.Submit(workload.query(), options, &sinks[i], qsubmit);
    if (!handle.ok()) {
      std::fprintf(stderr, "submit %zu: %s\n", i,
                   handle.status().ToString().c_str());
      return 1;
    }
    handles[i] = *handle;
    // Let the parent finish before submitting refinements: children seed
    // from a frozen frontier (a still-running parent would just mean an
    // unseeded child).
    if (args.reuse && i == 0) handles[0].Wait();
  }
  scheduler.Drain();
  const double makespan = watch.ElapsedSeconds();

  int rc = 0;
  size_t total_results = 0;
  double worst_first = 0.0;
  for (const CliSink& sink : sinks) {
    std::printf("  query=%-3zu seed=%-6llu state=%-9s results=%-7zu "
                "batches=%-5zu t_first=%.6fs t_done=%.6fs pairs=%llu "
                "cmps=%llu\n",
                sink.index,
                static_cast<unsigned long long>(
                    args.spec.params.seed + (args.reuse ? 0 : sink.index)),
                QueryStateName(sink.final_state), sink.results, sink.batches,
                sink.t_first, sink.t_done,
                static_cast<unsigned long long>(
                    sink.stats.join_pairs_generated),
                static_cast<unsigned long long>(
                    sink.stats.dominance_comparisons));
    const ShardCoverage& coverage = handles[sink.index].coverage();
    if (coverage.retries > 0 || !coverage.complete()) {
      std::printf("    coverage: %s\n", coverage.ToString().c_str());
    }
    // A partial completion is a success exactly when the caller opted into
    // degraded coverage.
    const bool ok_state =
        sink.final_state == QueryState::kFinished ||
        (args.spec.submit.shards.allow_partial &&
         sink.final_state == QueryState::kPartial);
    if (!ok_state) rc = 1;
    total_results += sink.results;
    if (sink.t_first > worst_first) worst_first = sink.t_first;
  }
  std::printf("aggregate: results=%zu makespan=%.6fs worst_t_first=%.6fs\n",
              total_results, makespan, worst_first);
  if (args.reuse) {
    const SchedulerStats sstats = scheduler.stats();
    std::printf("reuse: prepare_hits=%llu prepare_misses=%llu "
                "prepare_evictions=%llu cache_entries=%zu cache_bytes=%zu\n",
                static_cast<unsigned long long>(sstats.prepare_hits),
                static_cast<unsigned long long>(sstats.prepare_misses),
                static_cast<unsigned long long>(sstats.prepare_evictions),
                sstats.prepare_cache_entries, sstats.prepare_cache_bytes);
  }
  return rc;
}

/// The whole CLI run behind one exit code, so main can wrap it with trace
/// capture regardless of which path (single, all-algo, multi-query) runs.
int RunCli(const CliArgs& args) {
  if (args.queries > 1) {
    if (args.all_algos || !IsProgXeVariant(args.spec.algo)) {
      std::fprintf(stderr,
                   "--queries=%zu requires a ProgXe variant --algo (got %s)\n",
                   args.queries,
                   args.all_algos ? "all" : AlgoName(args.spec.algo));
      return 2;
    }
    return RunMultiQuery(args.spec.algo, args);
  }

  const WorkloadParams params = MakeParams(args, 0);
  auto workload = Workload::Make(params);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  std::printf("workload: %s\n", params.ToString().c_str());

  std::unique_ptr<CsvWriter> csv;
  if (!args.csv_path.empty()) {
    auto writer = CsvWriter::Open(args.csv_path);
    if (!writer.ok()) {
      std::fprintf(stderr, "%s\n", writer.status().ToString().c_str());
      return 1;
    }
    csv = std::make_unique<CsvWriter>(std::move(*writer));
    csv->WriteRow({"algo", "dist", "n", "dims", "sigma", "t_sec", "count"});
  }

  int rc = 0;
  if (args.all_algos) {
    for (Algo algo : AllAlgos()) {
      rc |= RunOne(algo, *workload, args, csv.get());
    }
  } else {
    rc = RunOne(args.spec.algo, *workload, args, csv.get());
  }
  if (csv != nullptr) csv->Close();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  const Status parsed = ParseArgs({argv + 1, argv + argc}, &args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }
  if (args.help) {
    std::printf("see the header comment of tools/progxe_cli.cc\n");
    return 0;
  }

  if (!args.trace_path.empty()) Tracing::Start();
  int rc = RunCli(args);
  if (!args.trace_path.empty()) {
    Tracing::Stop();
    Status st = Tracing::WriteJson(args.trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "--trace_out: %s\n", st.ToString().c_str());
      if (rc == 0) rc = 1;
    } else {
      std::printf("trace: wrote %s (%llu events, %llu dropped)\n",
                  args.trace_path.c_str(),
                  static_cast<unsigned long long>(Tracing::buffered()),
                  static_cast<unsigned long long>(Tracing::dropped()));
    }
  }
  return rc;
}
