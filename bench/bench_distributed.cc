// Distributed-execution bench: one K-sharded query served by loopback
// shard workers versus the same query run fully in-process.
//
// Two WorkerServer instances (real TCP on 127.0.0.1, in-process threads)
// serve the four shards of an anticorrelated workload; the coordinator
// side is the ordinary ShardedStream with a worker list. The bench reports
// both makespans, the transport volume (bytes/frames both ways) and RTT
// quantiles, and — the correctness headline CI gates on — whether the
// distributed run delivered exactly the in-process result set
// (`results_match`). Distribution is a placement decision, never a results
// decision. A worker-kill leg then stops one worker mid-stream and checks
// that the retried shards, which replay their slices from scratch on the
// surviving worker, still deliver exactly that set.
//
// Extra flags over bench_common: --json=<path>.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "net/net_stats.h"
#include "net/worker_service.h"
#include "progxe/stream.h"
#include "shard/sharded_stream.h"

using namespace progxe;
using namespace progxe::bench;

namespace {

using IdSet = std::vector<std::pair<RowId, RowId>>;

struct DrainResult {
  double makespan = 0.0;
  double t_first = 0.0;
  size_t results = 0;
  uint64_t join_pairs = 0;
  IdSet ids;
};

bool DrainTimed(ProgXeStream* stream, DrainResult* out) {
  Stopwatch watch;
  std::vector<ResultTuple> batch;
  while (stream->NextBatch(0, &batch) > 0) {
    if (out->results == 0) out->t_first = watch.ElapsedSeconds();
    out->results += batch.size();
    for (const ResultTuple& res : batch) {
      out->ids.emplace_back(res.r_id, res.t_id);
    }
  }
  out->makespan = watch.ElapsedSeconds();
  out->join_pairs = stream->stats().join_pairs_generated;
  std::sort(out->ids.begin(), out->ids.end());
  return stream->last_status().ok();
}

// The worker-kill recovery run: fresh loopback workers, budgeted drain,
// worker 0 stopped mid-stream, shard retries allowed to finish the query.
struct RecoveryResult {
  bool ok = false;
  bool results_match = false;
  double makespan = 0.0;
  uint64_t join_pairs = 0;
  uint64_t retries = 0;
};

RecoveryResult RunRecoveryLeg(const Workload& workload, const IdSet& reference,
                              uint64_t baseline_pairs, int num_shards) {
  RecoveryResult out;
  std::vector<std::unique_ptr<WorkerServer>> servers;
  ShardOptions opts;
  opts.num_shards = num_shards;
  opts.max_retries = 8;
  opts.retry_backoff = std::chrono::milliseconds(1);
  for (int i = 0; i < 2; ++i) {
    WorkerServerOptions wopts;
    wopts.port = 0;
    auto server = WorkerServer::Start(wopts);
    if (!server.ok()) {
      std::fprintf(stderr, "recovery worker %d: %s\n", i,
                   server.status().ToString().c_str());
      return out;
    }
    opts.workers.push_back("127.0.0.1:" +
                           std::to_string((*server)->port()));
    servers.push_back(server.MoveValue());
  }
  auto stream = OpenProgXeStream(workload.query(), ProgXeOptions(), opts);
  if (!stream.ok()) {
    std::fprintf(stderr, "recovery open: %s\n",
                 stream.status().ToString().c_str());
    return out;
  }
  // Pump budget scaled to the workload so the drain crosses many region
  // boundaries at any bench size. The kill triggers on *delivery* progress,
  // not a pump count: two fifths of the skyline leaves delivered results
  // for the replay to re-deliver (and the dedup set to drop) as well as
  // real work ahead of it.
  const size_t pump_budget = static_cast<size_t>(
      std::max<uint64_t>(256, baseline_pairs / 24));
  Stopwatch watch;
  std::vector<ResultTuple> batch;
  IdSet ids;
  while (!(*stream)->Finished()) {
    (*stream)->NextBatch(0, pump_budget, &batch);
    for (const ResultTuple& res : batch) {
      ids.emplace_back(res.r_id, res.t_id);
    }
    if (servers[0] != nullptr && ids.size() >= reference.size() * 2 / 5) {
      servers[0]->Stop();
      servers[0].reset();
    }
  }
  out.makespan = watch.ElapsedSeconds();
  if (!(*stream)->last_status().ok()) {
    std::fprintf(stderr, "recovery run failed: %s\n",
                 (*stream)->last_status().ToString().c_str());
    return out;
  }
  std::sort(ids.begin(), ids.end());
  out.results_match = ids == reference;
  out.join_pairs = (*stream)->stats().join_pairs_generated;
  const ShardCoverage coverage = (*stream)->coverage();
  out.retries = coverage.retries;
  out.ok = true;
  return out;
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
  params.cardinality = args.ResolveN(args.quick ? 3000 : 12000);
  params.dims = args.ResolveDims(4);
  params.sigma = args.quick ? 0.01 : 0.004;
  params.seed = args.seed;
  const Workload workload = MustMakeWorkload(params);
  constexpr int kShards = 4;
  constexpr int kWorkers = 2;

  std::printf("distributed: %s shards=%d workers=%d\n",
              params.ToString().c_str(), kShards, kWorkers);

  ShardOptions local;
  local.num_shards = kShards;
  auto in_process =
      OpenProgXeStream(workload.query(), ProgXeOptions(), local);
  if (!in_process.ok()) {
    std::fprintf(stderr, "in-process open: %s\n",
                 in_process.status().ToString().c_str());
    return 1;
  }
  DrainResult baseline;
  if (!DrainTimed(in_process->get(), &baseline)) {
    std::fprintf(stderr, "in-process run failed: %s\n",
                 (*in_process)->last_status().ToString().c_str());
    return 1;
  }

  std::vector<std::unique_ptr<WorkerServer>> servers;
  ShardOptions distributed;
  distributed.num_shards = kShards;
  for (int i = 0; i < kWorkers; ++i) {
    WorkerServerOptions wopts;
    wopts.port = 0;
    auto server = WorkerServer::Start(wopts);
    if (!server.ok()) {
      std::fprintf(stderr, "worker %d: %s\n", i,
                   server.status().ToString().c_str());
      return 1;
    }
    distributed.workers.push_back("127.0.0.1:" +
                                  std::to_string((*server)->port()));
    servers.push_back(server.MoveValue());
  }

  const NetStatsSnapshot before = SnapshotNetStats();
  auto remote =
      OpenProgXeStream(workload.query(), ProgXeOptions(), distributed);
  if (!remote.ok()) {
    std::fprintf(stderr, "distributed open: %s\n",
                 remote.status().ToString().c_str());
    return 1;
  }
  DrainResult dist;
  if (!DrainTimed(remote->get(), &dist)) {
    std::fprintf(stderr, "distributed run failed: %s\n",
                 (*remote)->last_status().ToString().c_str());
    return 1;
  }
  const NetStatsSnapshot after = SnapshotNetStats();
  const ShardCoverage coverage = (*remote)->coverage();

  // Loopback counts both directions of both processes-worth of traffic in
  // this one process; halving would undercount a real deployment, so the
  // raw deltas are reported as-is and labeled loopback.
  const uint64_t bytes_sent = after.bytes_sent - before.bytes_sent;
  const uint64_t bytes_received = after.bytes_received - before.bytes_received;
  const uint64_t frames = after.frames_sent - before.frames_sent;

  const bool results_match = dist.ids == baseline.ids;
  std::printf(
      "  in-process  makespan=%8.4fs t_first=%8.4fs results=%zu\n"
      "  distributed makespan=%8.4fs t_first=%8.4fs results=%zu "
      "remote=%d/%d retries=%llu\n"
      "  transport   bytes_sent=%llu bytes_received=%llu frames=%llu "
      "rtt_p50<%lluus rtt_p99<%lluus\n"
      "  results_match=%s\n",
      baseline.makespan, baseline.t_first, baseline.results, dist.makespan,
      dist.t_first, dist.results, coverage.remote, coverage.shards,
      static_cast<unsigned long long>(coverage.retries),
      static_cast<unsigned long long>(bytes_sent),
      static_cast<unsigned long long>(bytes_received),
      static_cast<unsigned long long>(frames),
      static_cast<unsigned long long>(after.RttQuantileUs(0.5)),
      static_cast<unsigned long long>(after.RttQuantileUs(0.99)),
      results_match ? "true" : "false");
  if (!results_match) {
    std::fprintf(stderr,
                 "FATAL: distributed delivered %zu results, in-process %zu "
                 "(sets differ)\n",
                 dist.ids.size(), baseline.ids.size());
  }

  // Worker-kill recovery: the retried shards replay from scratch and must
  // still deliver the in-process result set.
  const RecoveryResult recovery =
      RunRecoveryLeg(workload, baseline.ids, baseline.join_pairs, kShards);
  const bool recovery_ok = recovery.ok && recovery.results_match;
  std::printf(
      "  recovery    makespan=%8.4fs join_pairs=%llu retries=%llu "
      "results_match=%s\n",
      recovery.makespan, static_cast<unsigned long long>(recovery.join_pairs),
      static_cast<unsigned long long>(recovery.retries),
      recovery_ok ? "true" : "false");
  if (!recovery_ok) {
    std::fprintf(stderr,
                 "FATAL: the worker-kill recovery run diverged from the "
                 "in-process result set\n");
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(
        out,
        "{\n  \"bench\": \"distributed\",\n  \"n\": %zu,\n"
        "  \"dims\": %d,\n  \"sigma\": %g,\n  \"seed\": %llu,\n"
        "  \"shards\": %d,\n  \"workers\": %d,\n"
        "  \"in_process_makespan_s\": %.6f,\n"
        "  \"distributed_makespan_s\": %.6f,\n"
        "  \"distributed_t_first_s\": %.6f,\n"
        "  \"results\": %zu,\n"
        "  \"bytes_sent\": %llu,\n  \"bytes_received\": %llu,\n"
        "  \"frames\": %llu,\n"
        "  \"rtt_p50_us\": %llu,\n  \"rtt_p99_us\": %llu,\n"
        "  \"retries\": %llu,\n"
        "  \"results_match\": %s,\n"
        "  \"recovery\": {\n"
        "    \"results_match\": %s,\n"
        "    \"retries\": %llu,\n"
        "    \"join_pairs\": %llu,\n"
        "    \"makespan_s\": %.6f\n"
        "  }\n}\n",
        params.cardinality, params.dims, params.sigma,
        static_cast<unsigned long long>(params.seed), kShards, kWorkers,
        baseline.makespan, dist.makespan, dist.t_first, dist.results,
        static_cast<unsigned long long>(bytes_sent),
        static_cast<unsigned long long>(bytes_received),
        static_cast<unsigned long long>(frames),
        static_cast<unsigned long long>(after.RttQuantileUs(0.5)),
        static_cast<unsigned long long>(after.RttQuantileUs(0.99)),
        static_cast<unsigned long long>(coverage.retries),
        results_match ? "true" : "false", recovery_ok ? "true" : "false",
        static_cast<unsigned long long>(recovery.retries),
        static_cast<unsigned long long>(recovery.join_pairs),
        recovery.makespan);
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return results_match && recovery_ok ? 0 : 1;
}
