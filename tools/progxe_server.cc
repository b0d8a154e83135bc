// progxe_server — line-protocol driver for the multi-query serving layer.
//
// Reads commands from stdin, streams events to stdout (one line each,
// flushed), serving every query through one QueryScheduler. Meant both as
// an interactive demo of progressive multi-query serving and as a
// scriptable endpoint (pipe a command file in, or hook the process up to a
// socket with `socat TCP-LISTEN:9999,fork EXEC:progxe_server`).
//
// Every setting is key or key=value. The shared submission and serving
// keys are listed, with their ranges and meaning, once in
// harness/submit_spec.h and parsed there, as in progxe_cli.
//
// Process flags: the serving keys as --workers --budget --max_concurrent
// --max_queue --deadline_ms (defaults 2 workers, 8 admission slots), and
// the tool-only
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
// Protocol (one command per line):
//   submit [dist= n= dims= sigma= seed= algo= max_results= weight=
//          deadline_ms= shards= shard_workers= max_retries=
//          retry_backoff_ms= allow_partial faults= fault_seed=]
//          [reuse=0|1] [parent=<id>]
//     -> "ok id=<id>"; then asynchronously:
//        "batch id=<id> n=<k> total=<total> t=<sec>"      (per delivery)
//        "result id=<id> r=<rid> t=<tid>"                 (--echo_results)
//        "done id=<id> state=<state> results=<n> pairs=<n> cmps=<n> t=<sec>"
//        (results= is the delivered count, the last batch's total=)
//     algo= must name a ProgXe variant. The tool-only keys: reuse=1 keeps
//     the query's workload and accepted results alive after it finishes so
//     later refinements can build on it; parent=<id> submits a refinement
//     of a reuse=1 query: it serves the parent's exact relations (so the
//     prepared-state cache hits) and seeds region pruning from the
//     parent's accepted frontier. A parent= submit must not restate
//     workload keys (dist/n/dims/sigma/seed) — the workload is the
//     parent's by definition.
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
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parse_number.h"
#include "common/stopwatch.h"
#include "harness/submit_spec.h"
#include "net/net_stats.h"
#include "net/worker_service.h"
#include "obs/metrics.h"
#include "service/scheduler.h"

using namespace progxe;

namespace {

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
                  total.load(std::memory_order_relaxed),
                  static_cast<unsigned long long>(stats.join_pairs_generated),
                  static_cast<unsigned long long>(stats.dominance_comparisons),
                  watch.ElapsedSeconds());
    Emit(buf);
    if (!status.ok()) Emit("err id=" + std::to_string(id) + " " +
                           status.ToString());
  }
};

/// One `submit` line: the shared submission spec plus the server's own
/// keys.
struct SubmitLine {
  SubmitSpec spec;
  int reuse = 0;
  uint64_t parent_id = 0;  ///< 0 = no parent (ids start at 1)
};

/// Parses the tokens after `submit`: the shared submission keys, then the
/// server's own `reuse=0|1` and `parent=<id>`.
Status ParseSubmitLine(const std::vector<std::string>& tokens,
                       SubmitLine* line) {
  std::vector<Setting> settings;
  PROGXE_RETURN_NOT_OK(
      SplitSettings(std::span(tokens).subspan(1), "", &settings));
  for (const Setting& setting : settings) {
    Status st = ApplySubmitSetting(setting, &line->spec);
    if (!st.IsNotFound()) {
      PROGXE_RETURN_NOT_OK(st);
    } else if (setting.key == "reuse") {
      PROGXE_RETURN_NOT_OK(SettingNumber(setting, 0, 1, &line->reuse));
    } else if (setting.key == "parent") {
      PROGXE_RETURN_NOT_OK(SettingNumber(
          setting, uint64_t{1}, std::numeric_limits<uint64_t>::max(),
          &line->parent_id));
    } else {
      return st;
    }
  }
  if (!IsProgXeVariant(line->spec.algo)) {
    return Status::InvalidArgument(
        std::string("algo must be a ProgXe variant, got ") +
        AlgoName(line->spec.algo));
  }
  return Status::OK();
}

/// The process flags.
struct ServerFlags {
  ServiceOptions serve{.num_workers = 2};
  bool echo_results = false;
  bool worker_mode = false;
  int listen_port = 0;
  int64_t drain_timeout_ms = 5000;
  bool help = false;
};

/// The tool-only process flags.
Status ApplyServerFlag(const Setting& setting, ServerFlags* flags) {
  const std::string_view key = setting.key;
  if (key == "echo_results") return SettingFlag(setting, &flags->echo_results);
  if (key == "worker") return SettingFlag(setting, &flags->worker_mode);
  if (key == "listen") {
    return SettingNumber(setting, 0, 65535, &flags->listen_port);
  }
  if (key == "drain_timeout_ms") {
    return SettingNumber(setting, int64_t{0},
                         std::numeric_limits<int64_t>::max(),
                         &flags->drain_timeout_ms);
  }
  if (key == "help") return SettingFlag(setting, &flags->help);
  return UnknownSetting(setting);
}

Status ParseFlags(const std::vector<std::string>& argv, ServerFlags* flags) {
  std::vector<Setting> settings;
  PROGXE_RETURN_NOT_OK(SplitSettings(argv, "--", &settings));
  for (const Setting& setting : settings) {
    Status st = ApplyServeSetting(setting, &flags->serve);
    if (st.IsNotFound()) st = ApplyServerFlag(setting, flags);
    PROGXE_RETURN_NOT_OK(st);
  }
  return Status::OK();
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
    line << " cmps=" << stats.dominance_comparisons;
    // Coverage is part of every terminal report — a finished query says
    // covered=K/K rather than staying silent, so "did we see everything?"
    // never needs a second command.
    const ShardCoverage& coverage = query.handle.coverage();
    line << " covered=" << coverage.completed << "/" << coverage.shards
         << " retries=" << coverage.retries;
    if (coverage.remote > 0) line << " remote=" << coverage.remote;
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
  ServerFlags flags;
  const Status parsed = ParseFlags({argv + 1, argv + argc}, &flags);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }
  if (flags.help) {
    std::printf("see the header comment of tools/progxe_server.cc\n");
    return 0;
  }
  const ServiceOptions& sopts = flags.serve;

  if (flags.worker_mode) {
    // Daemon mode: no scheduler, no line protocol — just the wire protocol
    // behind a WorkerServer. The announce line is machine-readable so
    // launchers binding port 0 can read the real port back.
    WorkerServerOptions wopts;
    wopts.port = flags.listen_port;
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
    Emit("worker draining timeout_ms=" +
         std::to_string(flags.drain_timeout_ms));
    const bool clean =
        (*server)->Drain(std::chrono::milliseconds(flags.drain_timeout_ms));
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
       " budget=" + std::to_string(sopts.batch_budget));

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
      SubmitLine line;
      const Status parsed = ParseSubmitLine(tokens, &line);
      if (!parsed.ok()) {
        Emit("err " + parsed.message());
        continue;
      }
      SubmitSpec& spec = line.spec;
      std::shared_ptr<Workload> workload;
      if (line.parent_id != 0) {
        // A refinement serves the parent's exact workload: restating
        // shaping keys would silently describe a different one.
        if (spec.shaped) {
          Emit("err parent= conflicts with dist/n/dims/sigma/seed");
          continue;
        }
        auto parent_it = queries.find(line.parent_id);
        if (parent_it == queries.end()) {
          Emit("err no such parent: " + std::to_string(line.parent_id));
          continue;
        }
        if (!parent_it->second->reuse ||
            parent_it->second->workload == nullptr) {
          Emit("err parent " + std::to_string(line.parent_id) +
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
      spec.submit.retain_results = line.reuse == 1;
      auto query = std::make_unique<ServedQuery>();
      query->id = next_id++;
      query->echo_results = flags.echo_results;
      query->reuse = line.reuse == 1;
      query->workload = std::move(workload);
      query->watch.Start();
      // The ok line must precede the query's asynchronous batch/done
      // events, so emit it before the scheduler can start slicing; a
      // Submit failure then voids the id with an err line.
      Emit("ok id=" + std::to_string(query->id));
      auto handle = scheduler.Submit(query->workload->query(),
                                     OptionsForAlgo(spec.algo, spec.EngineOptions()),
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
