// Deterministic, site-keyed fault injection.
//
// A FaultInjector is a small registry of rules, each bound to a named call
// site in the engine ("shard.open", "shard.next_batch", ...). Code on a
// fallible path asks the injector whether this particular call should fail:
//
//   PROGXE_RETURN_NOT_OK(MaybeInjectFault(faults, fault_sites::kShardOpen,
//                                         shard_index));
//
// and receives a non-OK Status (kUnavailable by default) when a rule fires.
// Firing decisions are a pure function of (seed, site, instance, call
// number), where calls are counted per (rule, instance): the n-th call a
// given shard (or query) makes at a site decides the same way however the
// calls of other instances interleave with it. A given spec + seed
// therefore replays the same fault schedule on every run — which is what
// makes recovery testable: the suite can replay the exact same crash
// pattern and assert the repaired result set bit-identical to the
// fault-free one. Each instance's calls come from one thread at a time in a
// fixed order: the sharded stream checks its coordinator sites (shard.open,
// shard.next_batch, merge.release) on the coordinator in its deterministic
// order (shard.next_batch once per pump it applies), and a shard's
// in-engine sites (prepare.build,
// pipeline.chunk, session.next_batch) run on that shard's sequential pump
// chain. Two inputs do depend on thread interleaving:
//
//   * a `max=` budget on a rule without `shard=` that in-engine sites of
//     several concurrently pumped shards hit: the fire budget is shared
//     across instances, so which shard spends it is a race (give such
//     rules `shard=`, or no `max=`, for a reproducible schedule);
//   * the net.* transport sites, whose instance is always 0, so concurrent
//     connections share one call sequence.
//
// Rules come from a spec string, either programmatic
// (ProgXeOptions::faults) or ambient (the PROGXE_FAULT_SITES environment
// variable, parsed once per process — see FromEnv):
//
//   spec    := rule (';' rule)*
//   rule    := site (':' field (',' field)*)?
//   field   := 'p=' probability   — fire chance per call, default 1
//            | 'max=' n           — stop after n fires, default unlimited
//            | 'skip=' n          — pass the first n calls, default 0
//            | 'shard=' i         — only this instance (shard/query id)
//            | 'code=' token      — StatusCodeToken to fire, default
//                                   unavailable
//
//   "shard.open:p=1,max=2"                        fail the first two opens
//   "shard.next_batch:p=0.05;shard.open:shard=1"  soak + one sick shard
//
// Disabled injection is free: MaybeInjectFault is an inline null-pointer
// test, no rule table is consulted (bench_sharded measures this and CI
// gates it).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace progxe {

/// Canonical site names. Keep docs/ARCHITECTURE.md's fault-site table in
/// sync when adding one.
namespace fault_sites {
/// ShardedStream (re-)opening one per-shard sub-session; instance = shard.
inline constexpr const char kShardOpen[] = "shard.open";
/// ShardedStream pumping one sub-session; instance = shard.
inline constexpr const char kShardNextBatch[] = "shard.next_batch";
/// ShardedStream's merge release pass; a fault here is not shard-local and
/// fails the whole stream (no retry).
inline constexpr const char kMergeRelease[] = "merge.release";
/// ProgXeSession::NextBatch, inside the engine; instance =
/// ProgXeOptions::fault_instance. Only fired by an explicit
/// ProgXeOptions::faults injector, never by the process-wide env one, so a
/// soak run perturbs the sharded/serving layers without failing every
/// plain-session test in the same process.
inline constexpr const char kSessionNextBatch[] = "session.next_batch";
/// QueryScheduler worker about to run a slice; instance = query id.
inline constexpr const char kSchedulerSlice[] = "scheduler.slice";
/// BuildPreparedInputs about to prepare a query (push-through, grids,
/// look-ahead); instance = ProgXeOptions::fault_instance, which is the
/// shard index inside a sharded stream — so a soak spec with `shard=N`
/// (N >= 1) exercises shard-open recovery without failing unsharded
/// sessions, whose instance is 0.
inline constexpr const char kPrepareBuild[] = "prepare.build";
/// RegionLoop about to drive the join->map->insert pipeline for one region
/// (or one slice of it); instance = ProgXeOptions::fault_instance (same
/// shard-targeting convention as prepare.build). Fires through the
/// session's error channel mid-stream, exactly where a pipeline failure
/// would surface.
inline constexpr const char kPipelineChunk[] = "pipeline.chunk";
/// Transport chaos sites (net/socket.cc). Instance is always 0 — socket
/// calls have no shard identity — so chaos specs use p=/max= schedules.
/// kNetSend: SendFrame tears the write (partial frame header goes out, the
/// call fails, the peer sees EOF when the poisoned link is dropped).
inline constexpr const char kNetSend[] = "net.send";
/// kNetRecv: RecvFrame fails before reading (a short read / reset), leaving
/// whatever the peer sent undrained; the link is dropped by the caller.
inline constexpr const char kNetRecv[] = "net.recv";
/// kNetFrame: SendFrame corrupts the length prefix past kMaxFramePayload;
/// the frame is sent whole and the *receiver* detects the corrupt link.
inline constexpr const char kNetFrame[] = "net.frame";
}  // namespace fault_sites

/// One parsed spec rule. See the grammar above.
struct FaultRule {
  std::string site;
  double probability = 1.0;
  int64_t max_fires = -1;  ///< < 0: unlimited.
  int64_t skip = 0;
  int instance = -1;  ///< < 0: any instance.
  StatusCode code = StatusCode::kUnavailable;

  std::string ToString() const;
};

/// A compiled, thread-safe fault schedule. Immutable after Parse except for
/// the call counters (per rule and instance) and the per-rule fire counters,
/// so one injector may be shared across sub-sessions, scheduler workers and
/// option copies — sharing is what makes `max=` a budget over the whole run
/// rather than per copy.
class FaultInjector {
 public:
  /// Compiles `spec` (grammar above). Fails with InvalidArgument on any
  /// malformed rule, naming the offending fragment.
  static Result<std::shared_ptr<FaultInjector>> Parse(std::string_view spec,
                                                      uint64_t seed = 0);

  /// The process-wide injector from PROGXE_FAULT_SITES (seeded by
  /// PROGXE_FAULT_SEED), or nullptr when the variable is unset/empty. The
  /// environment is read and parsed exactly once, on first call; a
  /// malformed spec or seed aborts loudly rather than silently soaking
  /// nothing (or a different schedule).
  /// The returned pointer has process lifetime.
  static FaultInjector* FromEnv();

  /// Decides whether this call fails. Returns OK or the rule's Status.
  Status Check(std::string_view site, int instance = 0);

  /// Total faults fired so far, across all rules.
  int64_t fires() const;

  uint64_t seed() const { return seed_; }
  const std::vector<FaultRule>& rules() const { return rules_; }
  std::string ToString() const;

 private:
  FaultInjector(std::vector<FaultRule> rules, uint64_t seed);

  /// Counters live apart from the (immutable) rules, one slot per rule.
  struct Counters {
    std::mutex mu;
    /// Calls so far per instance; guarded by `mu`.
    std::unordered_map<int, uint64_t> calls;
    std::atomic<int64_t> fired{0};
  };

  std::vector<FaultRule> rules_;
  std::unique_ptr<Counters[]> counters_;
  uint64_t seed_ = 0;
};

/// The hot-path hook: free when no injector is installed (one predicted
/// branch, no Status allocation).
inline Status MaybeInjectFault(FaultInjector* injector, std::string_view site,
                               int instance = 0) {
  if (PROGXE_PREDICT_TRUE(injector == nullptr)) return Status::OK();
  return injector->Check(site, instance);
}

}  // namespace progxe
