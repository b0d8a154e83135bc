// WorkerPool: cached, handshake-verified coordinator connections to shard
// workers.
//
// The coordinator side of distribution checks a connection out of the pool
// per shard open, speaks the session protocol over it (open/pump/close) and
// returns it on a clean close so the next query reuses the warm link —
// the postgres_fdw model of one long-lived connection per remote, not one
// dial per RPC. A checkout liveness-probes cached links (a severed worker
// is detected before any RPC is risked on it) and dials fresh when the
// cache is dry. Broken connections are simply dropped, never returned.
//
// Failure detection is deadline-based: WorkerConnection::Call bounds the
// reply wait, and a missed deadline synthesizes a retryable kUnavailable.
// kHeartbeat frames from a busy worker reset the clock, so the deadline
// measures peer *liveness*, not RPC duration. Every completed RPC records
// its round-trip time into the process-wide net stats histogram.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace progxe {

/// Transport tunables, carried alongside the worker endpoint list.
struct NetOptions {
  /// Dial + handshake budget for one connection attempt.
  std::chrono::milliseconds connect_timeout{2000};
  /// Reply budget for kOpenShard (covers slice deserialization + the whole
  /// prepare phase; heartbeats reset it).
  std::chrono::milliseconds open_timeout{30000};
  /// Reply budget for kPump/kClose (heartbeats reset it). This is the
  /// worker-failure detection horizon: a worker silent for this long is
  /// declared dead (kUnavailable) and the shard retries elsewhere.
  std::chrono::milliseconds pump_timeout{10000};

  /// Per-endpoint circuit breaker: this many *consecutive* transport
  /// failures (dial, handshake, open or pump) open the endpoint's circuit
  /// and shard placement routes around it for a cooldown. <= 0 disables
  /// the breaker.
  int circuit_failure_threshold = 3;
  /// Cooldown after the circuit first opens; doubles on every re-open
  /// (capped at 32x) and a success closes the circuit and resets the
  /// decay — a flapping worker is sidelined progressively longer, a
  /// recovered one rejoins after a single successful probe.
  std::chrono::milliseconds circuit_cooldown{1000};
};

/// Splits a comma-separated "host:port,host:port,..." worker list,
/// validating each endpoint. Empty input yields an empty list (meaning
/// in-process execution).
Result<std::vector<std::string>> ParseWorkerList(std::string_view list);

/// One handshaken coordinator->worker link. Not thread-safe: a connection
/// serves one shard stream at a time (the pool hands out exclusive
/// ownership).
class WorkerConnection {
 public:
  ~WorkerConnection();

  /// One request/reply exchange: sends `payload` as a `request` frame, then
  /// waits for an `expected` reply within `deadline` of the last sign of
  /// life (kHeartbeat frames reset the clock). A kError reply surfaces as
  /// its decoded Status; a missed deadline or connection failure as
  /// kUnavailable. After any failure the link is poisoned (healthy() turns
  /// false) and must be dropped, not returned to the pool.
  Status Call(MsgType request, const std::string& payload, MsgType expected,
              std::string* reply, std::chrono::milliseconds deadline);

  const std::string& endpoint() const { return endpoint_; }
  /// False once any exchange on this link failed or desynced.
  bool healthy() const { return healthy_; }

  WorkerConnection(const WorkerConnection&) = delete;
  WorkerConnection& operator=(const WorkerConnection&) = delete;

 private:
  friend class WorkerPool;
  WorkerConnection(int fd, std::string endpoint)
      : fd_(fd), endpoint_(std::move(endpoint)) {}

  int fd_;
  std::string endpoint_;
  bool healthy_ = true;
};

class WorkerPool {
 public:
  explicit WorkerPool(NetOptions options = {});
  ~WorkerPool();

  /// A ready-to-use connection to `endpoint`: a liveness-checked cached one
  /// when available, else a fresh dial + kHello handshake.
  Result<std::unique_ptr<WorkerConnection>> Checkout(
      const std::string& endpoint);

  /// Returns a healthy connection to the cache for reuse. Unhealthy
  /// connections are closed and dropped.
  void Return(std::unique_ptr<WorkerConnection> conn);

  const NetOptions& options() const { return options_; }

  /// Endpoint health tracking (circuit breaker). Checkout reports dial and
  /// handshake outcomes itself; RPC users (RemoteShardStream) report
  /// transport-level open/pump outcomes. A run of
  /// `circuit_failure_threshold` consecutive failures opens the endpoint's
  /// circuit for a cooldown that doubles per re-open; any success closes it
  /// and resets the decay.
  void ReportFailure(const std::string& endpoint);
  void ReportSuccess(const std::string& endpoint);
  /// True while the endpoint's circuit is open *and* inside its cooldown —
  /// shard placement (ShardedStream::OpenShard) routes around such
  /// endpoints. Past the cooldown this returns false (half-open): the next
  /// caller probes the endpoint and its success or failure settles the
  /// circuit.
  bool IsOpen(const std::string& endpoint) const;
  /// Endpoints currently in the open state (including half-open ones not
  /// yet probed) — the progxe_net_endpoint_open_circuits gauge.
  int open_circuits() const;

  /// Fresh dials over the pool's lifetime (diagnostic).
  uint64_t connections_created() const;
  /// Checkouts served from cache (diagnostic).
  uint64_t reuses() const;

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

 private:
  struct EndpointHealth {
    int consecutive_failures = 0;
    int opens = 0;  ///< Circuit-open episodes since the last success.
    bool open = false;
    std::chrono::steady_clock::time_point open_until{};
  };

  NetOptions options_;
  mutable std::mutex mtx_;
  std::unordered_map<std::string,
                     std::vector<std::unique_ptr<WorkerConnection>>>
      cache_;
  std::unordered_map<std::string, EndpointHealth> health_;
  uint64_t created_ = 0;
  uint64_t reuses_ = 0;
};

}  // namespace progxe
