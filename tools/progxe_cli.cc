// progxe_cli — run any algorithm on a synthetic SkyMapJoin workload from
// the command line and inspect progressiveness interactively.
//
//   $ progxe_cli --dist=anti --n=20000 --dims=4 --sigma=0.001 --algo=ProgXe
//   $ progxe_cli --algo=all --csv=series.csv
//
// Flags:
//   --dist=independent|correlated|anticorrelated   (default independent)
//   --n=<N>            source cardinality            (default 10000)
//   --dims=<d>         skyline dimensions            (default 4)
//   --sigma=<s>        join selectivity              (default 0.001)
//   --seed=<s>         workload seed                 (default 42)
//   --algo=<name|all>  ProgXe, ProgXe+, ProgXe-NoOrder, ProgXe+-NoOrder,
//                      JF-SL, JF-SL+, SSMJ, SAJ, all  (default ProgXe)
//   --kd               use the kd-tree partitioner for ProgXe variants
//   --shards=<K>       hash-partition the join across K engine shards
//                      (ProgXe variants; default 1 = unsharded, the result
//                      set is identical at any K)
//   --shard_workers=host:port,...  run the shards on remote worker
//                      processes (progxe_server --worker) instead of
//                      in-process sessions; shard i's incarnation n dials
//                      workers[(i + n) % len]. Results stay bit-identical
//                      to the in-process run. (--workers=<n> below is the
//                      unrelated scheduler thread count.)
//   --result_hash      print "result_hash=<hex>" — an order-insensitive
//                      FNV-1a hash of the canonical (r_id, t_id) result
//                      pairs, for comparing runs across processes
//   --csv=<path>       append per-emission series rows to a CSV file
//   --series=<k>       print at most k series samples (default 10)
//   --trace_out=<path> record a span trace of the whole run and write it
//                      as Chrome trace_event JSON (load in Perfetto /
//                      chrome://tracing); works for single runs and
//                      multi-query serving alike
//
// Fault tolerance (ProgXe variants; see common/fault_injection.h):
//   --faults=<spec>        inject deterministic faults, e.g.
//                          "shard.open:p=1,max=2" fails the first two
//                          shard opens (then recovery retries them)
//   --fault_seed=<s>       seed for probabilistic fault rules (default 0)
//   --max_retries=<n>      consecutive per-shard failures tolerated
//                          (default 2)
//   --retry_backoff_ms=<ms> base shard re-open backoff (default 1)
//   --allow_partial        complete with reduced coverage instead of
//                          failing when a shard exhausts its retries
//
// Multi-query serving (ProgXe variants only): with --queries=N > 1 the
// workloads (seeds seed..seed+N-1) are served concurrently through the
// QueryScheduler and per-query stats are printed as each one finishes.
//   --queries=<N>         number of concurrent queries     (default 1)
//   --workers=<n>         scheduler worker threads         (default 2)
//   --budget=<pairs>      join pairs per NextBatch slice   (default 4096)
//   --policy=rr|wf        round-robin | weighted-fair      (default rr)
//   --max_concurrent=<n>  admission slots, 0 = unbounded   (default 0)
//   --reuse               cross-query reuse demo: all N queries serve ONE
//                         shared workload; query 0 runs first and retains
//                         its results, queries 1..N-1 are then submitted
//                         as refinements of it (the prepared-state cache
//                         skips their prepare phase and their region loops
//                         are seeded from query 0's accepted frontier).
//                         Prints the scheduler's cache counters at the end.
// --shards also applies here: each query is served as one sharded stream
// behind its QueryHandle.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/csv_writer.h"
#include "common/fault_injection.h"
#include "common/parse_number.h"
#include "common/stopwatch.h"
#include "harness/experiment.h"
#include "net/worker_pool.h"
#include "obs/trace.h"
#include "service/scheduler.h"

using namespace progxe;

namespace {

struct CliArgs {
  Distribution dist = Distribution::kIndependent;
  size_t n = 10000;
  int dims = 4;
  double sigma = 0.001;
  uint64_t seed = 42;
  std::string algo = "ProgXe";
  bool kd = false;
  int shards = 1;
  std::vector<std::string> shard_workers;
  bool result_hash = false;
  std::string csv_path;
  std::string trace_path;
  int series_samples = 10;

  // Fault tolerance.
  std::string faults;
  uint64_t fault_seed = 0;
  int max_retries = 2;
  int retry_backoff_ms = 1;
  bool allow_partial = false;

  // Multi-query serving.
  size_t queries = 1;
  int workers = 2;
  size_t budget = 4096;
  size_t max_concurrent = 0;
  FairnessPolicy policy = FairnessPolicy::kRoundRobin;
  bool reuse = false;
};

/// Prints the flag's malformed value and returns false.
bool BadNumber(const char* flag, const char* value) {
  std::fprintf(stderr, "%s: malformed or out-of-range number '%s'\n", flag,
               value);
  return false;
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (const char* v = value("--dist=")) {
      auto dist = ParseDistribution(v);
      if (!dist.ok()) {
        std::fprintf(stderr, "%s\n", dist.status().ToString().c_str());
        return false;
      }
      args->dist = *dist;
    } else if (const char* v = value("--n=")) {
      if (!ParseSize(v, &args->n)) return BadNumber("--n", v);
    } else if (const char* v = value("--dims=")) {
      if (!ParseI32(v, &args->dims)) return BadNumber("--dims", v);
    } else if (const char* v = value("--sigma=")) {
      if (!ParseF64(v, &args->sigma)) return BadNumber("--sigma", v);
    } else if (const char* v = value("--seed=")) {
      if (!ParseU64(v, &args->seed)) return BadNumber("--seed", v);
    } else if (const char* v = value("--algo=")) {
      args->algo = v;
    } else if (const char* v = value("--csv=")) {
      args->csv_path = v;
    } else if (const char* v = value("--trace_out=")) {
      args->trace_path = v;
    } else if (const char* v = value("--shards=")) {
      if (!ParseI32(v, &args->shards)) return BadNumber("--shards", v);
      if (args->shards < 1) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        return false;
      }
    } else if (const char* v = value("--shard_workers=")) {
      auto list = ParseWorkerList(v);
      if (!list.ok()) {
        std::fprintf(stderr, "--shard_workers: %s\n",
                     list.status().ToString().c_str());
        return false;
      }
      args->shard_workers = list.MoveValue();
      if (args->shard_workers.empty()) {
        std::fprintf(stderr,
                     "--shard_workers needs at least one host:port\n");
        return false;
      }
    } else if (std::strcmp(arg, "--result_hash") == 0) {
      args->result_hash = true;
    } else if (const char* v = value("--series=")) {
      if (!ParseI32(v, &args->series_samples)) {
        return BadNumber("--series", v);
      }
    } else if (const char* v = value("--faults=")) {
      args->faults = v;
    } else if (const char* v = value("--fault_seed=")) {
      if (!ParseU64(v, &args->fault_seed)) {
        return BadNumber("--fault_seed", v);
      }
    } else if (const char* v = value("--max_retries=")) {
      if (!ParseI32(v, &args->max_retries)) {
        return BadNumber("--max_retries", v);
      }
      if (args->max_retries < 0) {
        std::fprintf(stderr, "--max_retries must be >= 0\n");
        return false;
      }
    } else if (const char* v = value("--retry_backoff_ms=")) {
      if (!ParseI32(v, &args->retry_backoff_ms)) {
        return BadNumber("--retry_backoff_ms", v);
      }
      if (args->retry_backoff_ms < 0) {
        std::fprintf(stderr, "--retry_backoff_ms must be >= 0\n");
        return false;
      }
    } else if (std::strcmp(arg, "--allow_partial") == 0) {
      args->allow_partial = true;
    } else if (const char* v = value("--queries=")) {
      if (!ParseSize(v, &args->queries)) return BadNumber("--queries", v);
      if (args->queries < 1) {
        std::fprintf(stderr, "--queries must be >= 1\n");
        return false;
      }
    } else if (const char* v = value("--workers=")) {
      if (!ParseI32(v, &args->workers)) return BadNumber("--workers", v);
    } else if (const char* v = value("--budget=")) {
      if (!ParseSize(v, &args->budget)) return BadNumber("--budget", v);
    } else if (const char* v = value("--max_concurrent=")) {
      if (!ParseSize(v, &args->max_concurrent)) {
        return BadNumber("--max_concurrent", v);
      }
    } else if (const char* v = value("--policy=")) {
      if (!FairnessPolicyFromName(v, &args->policy)) {
        std::fprintf(stderr, "--policy must be rr or wf\n");
        return false;
      }
    } else if (std::strcmp(arg, "--reuse") == 0) {
      args->reuse = true;
    } else if (std::strcmp(arg, "--kd") == 0) {
      args->kd = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf("see the header comment of tools/progxe_cli.cc\n");
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return false;
    }
  }
  return true;
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

/// Compiles the --faults/--max_retries/--allow_partial flags into the
/// engine and shard options. False (with a message) on a malformed spec.
bool ApplyFaultArgs(const CliArgs& args, ProgXeOptions* tuning,
                    ShardOptions* shards) {
  shards->max_retries = args.max_retries;
  shards->retry_backoff = std::chrono::milliseconds(args.retry_backoff_ms);
  shards->allow_partial = args.allow_partial;
  shards->workers = args.shard_workers;
  if (args.faults.empty()) return true;
  auto injector = FaultInjector::Parse(args.faults, args.fault_seed);
  if (!injector.ok()) {
    std::fprintf(stderr, "--faults: %s\n",
                 injector.status().ToString().c_str());
    return false;
  }
  tuning->faults = injector.MoveValue();
  return true;
}

int RunOne(Algo algo, const Workload& workload, const CliArgs& args,
           CsvWriter* csv) {
  ProgXeOptions tuning;
  if (args.kd) tuning.partitioning = PartitioningScheme::kKdTree;
  ShardOptions shards;
  shards.num_shards = args.shards;
  if (!ApplyFaultArgs(args, &tuning, &shards)) return 2;
  if ((args.shards > 1 || !args.shard_workers.empty()) &&
      !IsProgXeVariant(algo)) {
    // Keeps --algo=all --shards=K usable: ProgXe variants run sharded,
    // baselines (which have no shard path) run as-is.
    std::fprintf(stderr, "%s: --shards/--shard_workers apply to ProgXe "
                 "variants only; running unsharded\n",
                 AlgoName(algo));
    shards.num_shards = 1;
    shards.workers.clear();
  }
  auto run = RunAlgorithm(algo, workload, tuning, shards);
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
              GridLabel(run->output_cells_per_dim, args.dims).c_str());
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
      std::vector<SeriesPoint> sampled;
      const double step = static_cast<double>(pts.size() - 1) /
                          static_cast<double>(max_pts - 1);
      for (size_t i = 0; i < max_pts; ++i) {
        sampled.push_back(
            pts[std::min(static_cast<size_t>(step * static_cast<double>(i)),
                         pts.size() - 1)]);
      }
      sampled.back() = pts.back();
      pts = std::move(sampled);
    }
    std::printf("  series:");
    for (const SeriesPoint& p : pts) {
      std::printf(" %.4f:%zu", p.t_sec, p.count);
    }
    std::printf("\n");
  }
  if (csv != nullptr) {
    for (const SeriesPoint& p : run->series) {
      csv->WriteValues(std::string(AlgoName(algo)),
                       std::string(DistributionName(args.dist)), args.n,
                       args.dims, args.sigma, p.t_sec, p.count);
    }
  }
  return 0;
}

/// The workload the CLI flags describe; multi-query serving offsets the
/// seed per query.
WorkloadParams MakeParams(const CliArgs& args, size_t seed_offset) {
  WorkloadParams params;
  params.distribution = args.dist;
  params.cardinality = args.n;
  params.dims = args.dims;
  params.sigma = args.sigma;
  params.seed = args.seed + seed_offset;
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

  ProgXeOptions tuning;
  if (args.kd) tuning.partitioning = PartitioningScheme::kKdTree;
  SubmitOptions submit;
  submit.shards.num_shards = args.shards;
  if (!ApplyFaultArgs(args, &tuning, &submit.shards)) return 2;

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

  ServiceOptions sopts;
  sopts.num_workers = args.workers;
  sopts.batch_budget = args.budget;
  sopts.max_concurrent = args.max_concurrent;
  sopts.policy = args.policy;

  std::printf("serving %zu x %s: workers=%d budget=%zu policy=%s shards=%d\n",
              args.queries, AlgoName(algo), sopts.num_workers,
              sopts.batch_budget, FairnessPolicyName(sopts.policy),
              args.shards);

  std::vector<CliSink> sinks(args.queries);
  std::vector<QueryHandle> handles(args.queries);
  Stopwatch watch;
  QueryScheduler scheduler(sopts);
  for (size_t i = 0; i < args.queries; ++i) {
    sinks[i].index = i;
    sinks[i].watch = &watch;
    const Workload& workload = args.reuse ? *workloads[0] : *workloads[i];
    SubmitOptions qsubmit = submit;
    if (args.reuse) {
      if (i == 0) {
        qsubmit.retain_results = true;
      } else {
        qsubmit.parent = handles[0];
        qsubmit.seed_from_parent = true;
      }
    }
    auto handle = scheduler.Submit(workload.query(),
                                   OptionsForAlgo(algo, tuning), &sinks[i],
                                   qsubmit);
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
                    args.seed + (args.reuse ? 0 : sink.index)),
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
        (args.allow_partial && sink.final_state == QueryState::kPartial);
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
    Algo algo;
    if (!AlgoFromName(args.algo, &algo) || !IsProgXeVariant(algo)) {
      std::fprintf(stderr,
                   "--queries=%zu requires a ProgXe variant --algo "
                   "(got %s)\n",
                   args.queries, args.algo.c_str());
      return 2;
    }
    return RunMultiQuery(algo, args);
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
  if (args.algo == "all") {
    for (Algo algo : AllAlgos()) {
      rc |= RunOne(algo, *workload, args, csv.get());
    }
  } else {
    Algo algo;
    if (!AlgoFromName(args.algo, &algo)) {
      std::fprintf(stderr,
                   "unknown --algo=%s (try ProgXe, ProgXe+, ProgXe-NoOrder, "
                   "ProgXe+-NoOrder, JF-SL, JF-SL+, SSMJ, SAJ, all)\n",
                   args.algo.c_str());
      return 2;
    }
    rc = RunOne(algo, *workload, args, csv.get());
  }
  if (csv != nullptr) csv->Close();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) return 2;

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
