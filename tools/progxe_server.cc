// progxe_server — line-protocol driver for the multi-query serving layer.
//
// Reads commands from stdin, streams events to stdout (one line each,
// flushed), serving every query through one QueryScheduler. Meant both as
// an interactive demo of progressive multi-query serving and as a
// scriptable endpoint (pipe a command file in, or hook the process up to a
// socket with `socat TCP-LISTEN:9999,fork EXEC:progxe_server`).
//
// Process flags:
//   --workers=<n>         scheduler worker threads          (default 2)
//   --budget=<pairs>      join pairs per NextBatch slice    (default 4096)
//   --policy=rr|wf        round-robin | weighted-fair       (default rr)
//   --max_concurrent=<n>  admission slots, 0 = unbounded    (default 8)
//   --max_queue=<n>       waiting-room bound, 0 = unbounded (default 0)
//   --deadline_ms=<ms>    default per-query deadline, 0 = none (default 0)
//   --echo_results        print each result tuple's id pair
//   --worker              shard-worker daemon mode: serve the wire protocol
//                         (docs/worker_protocol.md) instead of the line
//                         protocol below. Prints "worker listening port=<p>"
//                         once bound, then runs until "quit" on stdin or a
//                         SIGTERM/SIGINT. A signal drains gracefully: stop
//                         accepting, refuse new shard opens, finish
//                         in-flight sessions (bounded by --drain_timeout_ms)
//                         then exit 0.
//   --listen=<port>       worker-mode listen port; 0 = ephemeral (default 0)
//   --drain_timeout_ms=<ms>  worker-mode graceful-drain bound on SIGTERM/
//                         SIGINT before in-flight sessions are severed
//                         (default 5000)
//
// Protocol (one command per line; tokens are key=value or bare words):
//   submit [dist=independent|correlated|anticorrelated] [n=10000] [dims=4]
//          [sigma=0.001] [seed=42] [max_results=0] [weight=1]
//          [shards=1] [deadline_ms=0]
//          [algo=ProgXe|ProgXe+|ProgXe-NoOrder|ProgXe+-NoOrder] [kd]
//          [faults=<spec>] [fault_seed=0] [max_retries=2]
//          [retry_backoff_ms=1] [allow_partial] [reuse=0|1] [parent=<id>]
//          [workers=host:port,host:port,...]
//     -> "ok id=<id>"; then asynchronously:
//        "batch id=<id> n=<k> total=<total> t=<sec>"      (per delivery)
//        "result id=<id> r=<rid> t=<tid>"                 (--echo_results)
//        "done id=<id> state=<state> results=<n> pairs=<n> cmps=<n> t=<sec>"
//     shards=K > 1 serves the query through the sharded executor (one
//     sub-session per shard behind the handle); deadline_ms > 0 overrides
//     the server-wide default and expires the query with
//     state=deadline_exceeded. faults= compiles a fault-injection spec
//     (common/fault_injection.h grammar, seeded by fault_seed=) into the
//     query; max_retries=/retry_backoff_ms= bound the per-shard recovery,
//     and allow_partial lets a query whose shard exhausts its retries
//     complete as state=partial instead of failed. reuse=1 keeps the
//     query's workload and accepted results alive after it finishes so
//     later refinements can build on it; parent=<id> submits a refinement
//     of a reuse=1 query: it serves the parent's exact relations (so the
//     prepared-state cache hits) and seeds region pruning from the
//     parent's accepted frontier. A parent= submit must not restate
//     workload-shaping keys (dist/n/dims/sigma/seed) — the workload is the
//     parent's by definition. workers= runs the query's shards on remote
//     worker processes (--worker mode) instead of in-process sessions;
//     shard i's incarnation n dials workers[(i + n) % len], and the usual
//     max_retries/allow_partial recovery budget applies to transport
//     failures too.
//   cancel <id>     cooperative cancellation
//   stats <id>      one "stat ..." line: live progress (phase, regions
//                   done/total, pairs, ttfr) in any state; a terminal query
//                   additionally reports its final counters and shard
//                   coverage (covered=i/K), partial or not
//   stats           one "sched ..." line: the SchedulerStats snapshot
//                   (queue depth, running, slices, sliced pairs, outcomes)
//   metrics         the full Prometheus text exposition of the process
//                   metrics registry (executor totals over terminal
//                   queries, scheduler/cache/shard counters, slice-latency
//                   histogram, trace + fault counters), terminated by an
//                   "ok metrics" line
//   list            one "stat ..." line per submitted query
//   quit            drain nothing further; cancel outstanding and exit
//
// Every malformed command — unknown key, non-numeric or out-of-range
// value, over-limit workload — is answered with an explicit "err ..."
// line; the server never guesses (atoi-style zero-on-garbage) and never
// dies on bad input.
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/parse_number.h"
#include "common/stopwatch.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "net/net_stats.h"
#include "net/worker_pool.h"
#include "net/worker_service.h"
#include "obs/metrics.h"
#include "service/scheduler.h"

using namespace progxe;

namespace {

// Submit-side guardrails: a line-protocol endpoint may face untrusted
// input, so a single command cannot ask for an absurd workload. Over-limit
// values get an explicit err reply, not a silent clamp.
constexpr size_t kMaxCardinality = 20'000'000;
constexpr int kMaxDims = 16;
constexpr int kMaxShards = 64;
constexpr int kMaxRetries = 1000;

std::mutex g_out_mtx;

/// Self-pipe for the worker-mode SIGTERM/SIGINT drain: the handler writes
/// one byte, the serving loop polls the read end (file-scope because a
/// signal handler must be a capture-less function).
int g_signal_pipe[2] = {-1, -1};

void Emit(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_out_mtx);
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

/// Multi-line output (the Prometheus exposition) written atomically with
/// respect to concurrent batch/done event lines.
void EmitRaw(const std::string& text) {
  std::lock_guard<std::mutex> lock(g_out_mtx);
  std::fputs(text.c_str(), stdout);
  std::fflush(stdout);
}

/// Process-total executor counters: every terminal query's final stats,
/// accumulated as its OnDone fires (scheduler worker threads) and read by
/// the stdin thread's `metrics` command.
std::mutex g_terminal_mtx;
ProgXeStats g_terminal_stats;

/// One served query: owns the workload (the relations must outlive the
/// stream) and the printing sink.
struct ServedQuery : QuerySink {
  uint64_t id = 0;
  bool echo_results = false;
  /// reuse=1: keep the workload after OnDone so parent= refinements can
  /// share it (pointer-identical sources are what let the prepared-state
  /// cache and frontier seeding engage).
  bool reuse = false;
  Stopwatch watch;  // started at submit
  std::shared_ptr<Workload> workload;
  QueryHandle handle;

  /// Written by scheduler workers, read by the stdin thread (stats/list).
  std::atomic<size_t> total{0};

  void OnBatch(const std::vector<ResultTuple>& batch) override {
    const size_t so_far =
        total.fetch_add(batch.size(), std::memory_order_relaxed) +
        batch.size();
    char buf[128];
    std::snprintf(buf, sizeof buf, "batch id=%llu n=%zu total=%zu t=%.6f",
                  static_cast<unsigned long long>(id), batch.size(), so_far,
                  watch.ElapsedSeconds());
    Emit(buf);
    if (echo_results) {
      for (const ResultTuple& res : batch) {
        std::snprintf(buf, sizeof buf, "result id=%llu r=%lld t=%lld",
                      static_cast<unsigned long long>(id),
                      static_cast<long long>(res.r_id),
                      static_cast<long long>(res.t_id));
        Emit(buf);
      }
    }
  }

  void OnDone(QueryState state, const Status& status,
              const ProgXeStats& stats) override {
    // The stream is already closed: nothing references the relations
    // anymore (and no other thread touches `workload` after submit), so a
    // long-lived server drops its reference now — unless reuse=1 pinned
    // the workload for later parent= refinements. Children sharing it keep
    // it alive regardless; the map entry stays for stats/list.
    if (!reuse) workload.reset();
    {
      std::lock_guard<std::mutex> lock(g_terminal_mtx);
      g_terminal_stats.Accumulate(stats);
    }
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "done id=%llu state=%s results=%zu pairs=%llu cmps=%llu "
                  "t=%.6f",
                  static_cast<unsigned long long>(id), QueryStateName(state),
                  stats.results_emitted,
                  static_cast<unsigned long long>(stats.join_pairs_generated),
                  static_cast<unsigned long long>(stats.dominance_comparisons),
                  watch.ElapsedSeconds());
    Emit(buf);
    if (!status.ok()) Emit("err id=" + std::to_string(id) + " " +
                           status.ToString());
  }
};

struct SubmitSpec {
  WorkloadParams params;
  ProgXeOptions options;
  SubmitOptions submit;
  Algo algo = Algo::kProgXe;
  bool reuse = false;
  bool has_parent = false;
  uint64_t parent_id = 0;
  /// True once any workload-shaping key (dist/n/dims/sigma/seed) appears;
  /// such keys conflict with parent= and get an explicit err.
  bool shaped = false;
};

bool ParseSubmit(const std::vector<std::string>& tokens, SubmitSpec* spec,
                 std::string* error) {
  std::string faults_spec;
  uint64_t fault_seed = 0;
  for (size_t i = 1; i < tokens.size(); ++i) {
    const std::string& tok = tokens[i];
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      if (tok == "kd") {
        spec->options.partitioning = PartitioningScheme::kKdTree;
        continue;
      }
      if (tok == "allow_partial") {
        spec->submit.allow_partial = true;
        continue;
      }
      *error = "unknown token: " + tok;
      return false;
    }
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    auto bad_value = [&] {
      *error = "bad value for " + key + ": " + val;
      return false;
    };
    if (key == "dist") {
      auto dist = ParseDistribution(val);
      if (!dist.ok()) {
        *error = dist.status().ToString();
        return false;
      }
      spec->params.distribution = *dist;
      spec->shaped = true;
    } else if (key == "n") {
      if (!ParseSize(val, &spec->params.cardinality)) return bad_value();
      if (spec->params.cardinality < 1 ||
          spec->params.cardinality > kMaxCardinality) {
        *error = "n out of range [1, " + std::to_string(kMaxCardinality) +
                 "]: " + val;
        return false;
      }
      spec->shaped = true;
    } else if (key == "dims") {
      if (!ParseI32(val, &spec->params.dims)) return bad_value();
      if (spec->params.dims < 2 || spec->params.dims > kMaxDims) {
        *error = "dims out of range [2, " + std::to_string(kMaxDims) +
                 "]: " + val;
        return false;
      }
      spec->shaped = true;
    } else if (key == "sigma") {
      if (!ParseF64(val, &spec->params.sigma)) return bad_value();
      if (!(spec->params.sigma > 0.0) || spec->params.sigma > 1.0) {
        *error = "sigma out of range (0, 1]: " + val;
        return false;
      }
      spec->shaped = true;
    } else if (key == "seed") {
      if (!ParseU64(val, &spec->params.seed)) return bad_value();
      spec->shaped = true;
    } else if (key == "max_results") {
      if (!ParseSize(val, &spec->options.max_results)) return bad_value();
    } else if (key == "weight") {
      if (!ParseF64(val, &spec->submit.weight)) return bad_value();
      if (!(spec->submit.weight > 0.0)) {
        *error = "weight must be > 0: " + val;
        return false;
      }
    } else if (key == "shards") {
      if (!ParseI32(val, &spec->submit.shards.num_shards)) return bad_value();
      if (spec->submit.shards.num_shards < 1 ||
          spec->submit.shards.num_shards > kMaxShards) {
        *error = "shards out of range [1, " + std::to_string(kMaxShards) +
                 "]: " + val;
        return false;
      }
    } else if (key == "deadline_ms") {
      int64_t ms;
      if (!ParseI64(val, &ms)) return bad_value();
      spec->submit.deadline = std::chrono::milliseconds(ms);
    } else if (key == "max_retries") {
      int retries;
      if (!ParseI32(val, &retries)) return bad_value();
      if (retries < 0 || retries > kMaxRetries) {
        *error = "max_retries out of range [0, " +
                 std::to_string(kMaxRetries) + "]: " + val;
        return false;
      }
      spec->submit.shards.max_retries = retries;
    } else if (key == "retry_backoff_ms") {
      int64_t ms;
      if (!ParseI64(val, &ms) || ms < 0) return bad_value();
      spec->submit.shards.retry_backoff = std::chrono::milliseconds(ms);
    } else if (key == "allow_partial") {
      if (val != "0" && val != "1") return bad_value();
      spec->submit.allow_partial = val == "1";
    } else if (key == "reuse") {
      if (val != "0" && val != "1") return bad_value();
      spec->reuse = val == "1";
    } else if (key == "parent") {
      if (!ParseU64(val, &spec->parent_id)) return bad_value();
      spec->has_parent = true;
    } else if (key == "workers") {
      auto list = ParseWorkerList(val);
      if (!list.ok()) {
        *error = list.status().ToString();
        return false;
      }
      spec->submit.workers = list.MoveValue();
      if (spec->submit.workers.empty()) {
        *error = "workers= needs at least one host:port endpoint";
        return false;
      }
    } else if (key == "faults") {
      faults_spec = val;
    } else if (key == "fault_seed") {
      if (!ParseU64(val, &fault_seed)) return bad_value();
    } else if (key == "algo") {
      Algo algo;
      if (!AlgoFromName(val, &algo) || !IsProgXeVariant(algo)) {
        *error = "algo must be a ProgXe variant, got " + val;
        return false;
      }
      spec->algo = algo;
    } else {
      *error = "unknown key: " + key;
      return false;
    }
  }
  if (!faults_spec.empty()) {
    auto injector = FaultInjector::Parse(faults_spec, fault_seed);
    if (!injector.ok()) {
      *error = injector.status().ToString();
      return false;
    }
    spec->options.faults = injector.MoveValue();
  }
  return true;
}

void PrintStat(const ServedQuery& query) {
  const QueryProgress progress = query.handle.progress();
  const QueryState state = progress.state;
  std::ostringstream line;
  line << "stat id=" << query.id << " state=" << QueryStateName(state)
       << " phase=" << progress.phase
       << " delivered=" << query.total.load(std::memory_order_relaxed)
       << " regions=" << progress.regions_done << "/"
       << progress.regions_total << " pairs=" << progress.pairs_processed;
  if (progress.ttfr_seconds >= 0.0) {
    char ttfr[32];
    std::snprintf(ttfr, sizeof ttfr, " ttfr=%.6f", progress.ttfr_seconds);
    line << ttfr;
  }
  if (IsTerminal(state)) {
    const ProgXeStats& stats = query.handle.stats();
    line << " results=" << stats.results_emitted
         << " cmps=" << stats.dominance_comparisons;
    // Coverage is part of every terminal report — a finished query says
    // covered=K/K rather than staying silent, so "did we see everything?"
    // never needs a second command.
    const ShardCoverage& coverage = query.handle.coverage();
    line << " covered=" << coverage.completed << "/" << coverage.shards
         << " retries=" << coverage.retries;
    if (coverage.remote > 0) line << " remote=" << coverage.remote;
    if (coverage.replay_pairs_saved > 0) {
      line << " saved_pairs=" << coverage.replay_pairs_saved;
    }
    if (!coverage.complete()) {
      line << " abandoned=";
      for (size_t i = 0; i < coverage.abandoned_shards.size(); ++i) {
        line << (i == 0 ? "" : ",") << coverage.abandoned_shards[i];
      }
    }
  } else if (progress.shards > 0) {
    line << " covered=" << progress.shards_completed << "/"
         << progress.shards;
    if (progress.shards_remote > 0) {
      line << " remote=" << progress.shards_remote;
    }
  }
  Emit(line.str());
}

}  // namespace

int main(int argc, char** argv) {
  ServiceOptions sopts;
  sopts.num_workers = 2;
  bool echo_results = false;
  bool worker_mode = false;
  int listen_port = 0;
  int64_t drain_timeout_ms = 5000;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto flag_err = [arg] {
      std::fprintf(stderr, "bad flag value: %s\n", arg);
      return 2;
    };
    int64_t i64 = 0;
    if (std::strncmp(arg, "--workers=", 10) == 0) {
      if (!ParseI32(arg + 10, &sopts.num_workers) || sopts.num_workers < 1) {
        return flag_err();
      }
    } else if (std::strncmp(arg, "--budget=", 9) == 0) {
      if (!ParseSize(arg + 9, &sopts.batch_budget)) return flag_err();
    } else if (std::strncmp(arg, "--policy=", 9) == 0) {
      if (!FairnessPolicyFromName(arg + 9, &sopts.policy)) {
        std::fprintf(stderr, "--policy must be rr or wf\n");
        return 2;
      }
    } else if (std::strncmp(arg, "--max_concurrent=", 17) == 0) {
      if (!ParseSize(arg + 17, &sopts.max_concurrent)) return flag_err();
    } else if (std::strncmp(arg, "--max_queue=", 12) == 0) {
      if (!ParseSize(arg + 12, &sopts.max_queue)) return flag_err();
    } else if (std::strncmp(arg, "--deadline_ms=", 14) == 0) {
      if (!ParseI64(arg + 14, &i64) || i64 < 0) return flag_err();
      sopts.default_deadline = std::chrono::milliseconds(i64);
    } else if (std::strcmp(arg, "--echo_results") == 0) {
      echo_results = true;
    } else if (std::strcmp(arg, "--worker") == 0) {
      worker_mode = true;
    } else if (std::strncmp(arg, "--listen=", 9) == 0) {
      if (!ParseI32(arg + 9, &listen_port) || listen_port < 0 ||
          listen_port > 65535) {
        return flag_err();
      }
    } else if (std::strncmp(arg, "--drain_timeout_ms=", 19) == 0) {
      if (!ParseI64(arg + 19, &drain_timeout_ms) || drain_timeout_ms < 0) {
        return flag_err();
      }
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf("see the header comment of tools/progxe_server.cc\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }

  if (worker_mode) {
    // Daemon mode: no scheduler, no line protocol — just the wire protocol
    // behind a WorkerServer. The announce line is machine-readable so
    // launchers binding port 0 can read the real port back.
    WorkerServerOptions wopts;
    wopts.port = listen_port;
    auto server = WorkerServer::Start(wopts);
    if (!server.ok()) {
      std::fprintf(stderr, "worker start failed: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    Emit("worker listening port=" + std::to_string((*server)->port()));
    // Graceful drain on SIGTERM/SIGINT via the classic self-pipe trick: the
    // handler only writes one byte (async-signal-safe), the main loop polls
    // the read end next to stdin and runs the actual drain outside signal
    // context. A second signal during the drain kills via the default
    // disposition restored below.
    if (::pipe(g_signal_pipe) != 0) {
      std::fprintf(stderr, "worker signal pipe failed\n");
      return 1;
    }
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = [](int) {
      const char byte = 1;
      [[maybe_unused]] ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
    };
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESETHAND;  // second signal = immediate default kill
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    bool drain = false;
    bool stdin_open = true;
    std::string cmd_buf;
    char buf[256];
    while (!drain) {
      struct pollfd fds[2];
      fds[0].fd = g_signal_pipe[0];
      fds[0].events = POLLIN;
      fds[0].revents = 0;
      fds[1].fd = STDIN_FILENO;
      fds[1].events = stdin_open ? POLLIN : 0;
      fds[1].revents = 0;
      if (::poll(fds, stdin_open ? 2 : 1, -1) < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (fds[0].revents != 0) {
        drain = true;  // signal: drain gracefully, then exit
        break;
      }
      if (!stdin_open || fds[1].revents == 0) continue;
      const ssize_t n = ::read(STDIN_FILENO, buf, sizeof buf);
      if (n <= 0) {
        // EOF (daemonized with </dev/null): keep serving, signals only.
        stdin_open = false;
        continue;
      }
      cmd_buf.append(buf, static_cast<size_t>(n));
      size_t nl;
      bool quit = false;
      while ((nl = cmd_buf.find('\n')) != std::string::npos) {
        std::string cmd = cmd_buf.substr(0, nl);
        cmd_buf.erase(0, nl + 1);
        while (!cmd.empty() && cmd.back() == '\r') cmd.pop_back();
        if (cmd == "quit" || cmd == "exit") {
          quit = true;
          break;
        }
        if (!cmd.empty()) Emit("err worker mode accepts only quit");
      }
      if (quit) {
        (*server)->Stop();
        return 0;
      }
    }
    Emit("worker draining timeout_ms=" + std::to_string(drain_timeout_ms));
    const bool clean =
        (*server)->Drain(std::chrono::milliseconds(drain_timeout_ms));
    Emit(std::string("worker drained clean=") + (clean ? "1" : "0"));
    return 0;
  }

  // Declared before the scheduler so teardown runs in the right order: the
  // scheduler destructor cancel-finishes outstanding queries (firing their
  // sinks' OnDone) while the sinks and their workloads are still alive.
  std::map<uint64_t, std::unique_ptr<ServedQuery>> queries;
  uint64_t next_id = 1;
  QueryScheduler scheduler(sopts);

  Emit(std::string("ready workers=") + std::to_string(sopts.num_workers) +
       " budget=" + std::to_string(sopts.batch_budget) +
       " policy=" + FairnessPolicyName(sopts.policy));

  std::string line;
  char linebuf[4096];
  while (std::fgets(linebuf, sizeof linebuf, stdin) != nullptr) {
    line.assign(linebuf);
    // A read without a trailing newline means either the final line of the
    // input (fine) or a command longer than the buffer: drain the latter
    // and reject it whole rather than executing a truncated prefix and a
    // garbage remainder.
    if (!line.empty() && line.back() != '\n' &&
        std::fgets(linebuf, sizeof linebuf, stdin) != nullptr) {
      size_t len = std::strlen(linebuf);
      while ((len == 0 || linebuf[len - 1] != '\n') &&
             std::fgets(linebuf, sizeof linebuf, stdin) != nullptr) {
        len = std::strlen(linebuf);
      }
      Emit("err command line too long (max 4095 bytes)");
      continue;
    }
    std::istringstream in(line);
    std::vector<std::string> tokens;
    for (std::string tok; in >> tok;) tokens.push_back(tok);
    if (tokens.empty()) continue;
    const std::string& cmd = tokens[0];

    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "submit") {
      SubmitSpec spec;
      std::string error;
      if (!ParseSubmit(tokens, &spec, &error)) {
        Emit("err " + error);
        continue;
      }
      std::shared_ptr<Workload> workload;
      if (spec.has_parent) {
        // A refinement serves the parent's exact workload: restating
        // shaping keys would silently describe a different one.
        if (spec.shaped) {
          Emit("err parent= conflicts with dist/n/dims/sigma/seed");
          continue;
        }
        auto parent_it = queries.find(spec.parent_id);
        if (parent_it == queries.end()) {
          Emit("err no such parent: " + std::to_string(spec.parent_id));
          continue;
        }
        if (!parent_it->second->reuse ||
            parent_it->second->workload == nullptr) {
          Emit("err parent " + std::to_string(spec.parent_id) +
               " was not submitted with reuse=1");
          continue;
        }
        workload = parent_it->second->workload;
        spec.submit.parent = parent_it->second->handle;
        spec.submit.seed_from_parent = true;
      } else {
        auto made = Workload::Make(spec.params);
        if (!made.ok()) {
          Emit("err " + made.status().ToString());
          continue;
        }
        workload = std::make_shared<Workload>(made.MoveValue());
      }
      spec.submit.retain_results = spec.reuse;
      auto query = std::make_unique<ServedQuery>();
      query->id = next_id++;
      query->echo_results = echo_results;
      query->reuse = spec.reuse;
      query->workload = std::move(workload);
      query->watch.Start();
      // The ok line must precede the query's asynchronous batch/done
      // events, so emit it before the scheduler can start slicing; a
      // Submit failure then voids the id with an err line.
      Emit("ok id=" + std::to_string(query->id));
      auto handle = scheduler.Submit(query->workload->query(),
                                     OptionsForAlgo(spec.algo, spec.options),
                                     query.get(), spec.submit);
      if (!handle.ok()) {
        Emit("err id=" + std::to_string(query->id) + " " +
             handle.status().ToString());
        continue;
      }
      query->handle = *handle;
      queries.emplace(query->id, std::move(query));
      continue;
    }

    if (cmd == "stats" && tokens.size() == 1) {
      // Same field formatter as SchedulerStats::ToString, so every counter
      // added to the snapshot lands in both outputs at once.
      Emit("sched " + scheduler.stats().FormatFields());
      continue;
    }

    if (cmd == "metrics") {
      // Fold a consistent snapshot into the process registry, then render
      // the whole exposition. Executor totals cover terminal queries (the
      // only ones whose counters are final); coverage sums every terminal
      // handle's shard report.
      MetricsRegistry& reg = GlobalMetrics();
      {
        std::lock_guard<std::mutex> lock(g_terminal_mtx);
        FoldProgXeStats(g_terminal_stats, &reg);
      }
      ShardCoverage coverage_total;
      coverage_total.shards = 0;
      for (const auto& [id, query] : queries) {
        if (!IsTerminal(query->handle.state())) continue;
        const ShardCoverage& c = query->handle.coverage();
        coverage_total.shards += c.shards;
        coverage_total.completed += c.completed;
        coverage_total.abandoned += c.abandoned;
        coverage_total.retries += c.retries;
        coverage_total.replay_pairs_saved += c.replay_pairs_saved;
      }
      FoldSchedulerStats(scheduler.stats(), &reg);
      FoldShardCoverage(coverage_total, &reg);
      FoldNetStats(&reg);
      FoldObservability(&reg);
      std::string text;
      reg.RenderPrometheus(&text);
      EmitRaw(text + "ok metrics\n");
      continue;
    }

    if (cmd == "cancel" || cmd == "stats") {
      if (tokens.size() != 2) {
        Emit("err usage: " + cmd + " <id>");
        continue;
      }
      uint64_t id = 0;
      if (!ParseU64(tokens[1], &id)) {
        Emit("err bad id: " + tokens[1]);
        continue;
      }
      auto it = queries.find(id);
      if (it == queries.end()) {
        Emit("err no such query: " + tokens[1]);
        continue;
      }
      if (cmd == "cancel") {
        it->second->handle.Cancel();
        Emit("ok cancelling id=" + tokens[1]);
      } else {
        PrintStat(*it->second);
      }
      continue;
    }

    if (cmd == "list") {
      for (const auto& [id, query] : queries) PrintStat(*query);
      Emit("ok " + std::to_string(queries.size()) + " queries");
      continue;
    }

    if (cmd == "drain") {
      scheduler.Drain();
      Emit("ok drained");
      continue;
    }

    Emit("err unknown command: " + cmd +
         " (try submit/cancel/stats/metrics/list/drain/quit)");
  }

  // Scheduler destruction cancels whatever is still in flight; sinks (and
  // the workloads they join over) stay alive until after that.
  return 0;
}
