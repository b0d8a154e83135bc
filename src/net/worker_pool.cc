#include "net/worker_pool.h"

#include <poll.h>

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "net/net_stats.h"
#include "net/socket.h"

namespace progxe {

namespace {

/// Cached connections kept per endpoint; more are simply closed on Return.
constexpr size_t kMaxCachedPerEndpoint = 8;

/// True if an *idle* cached link shows any activity. A quiescent
/// coordinator->worker link should be silent between RPCs, so pending
/// bytes, hangup or error all mean the peer died or desynced.
bool IdleLinkDead(int fd) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int rc = ::poll(&pfd, 1, 0);
  if (rc < 0) return true;
  return rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL));
}

}  // namespace

Result<std::vector<std::string>> ParseWorkerList(std::string_view list) {
  std::vector<std::string> endpoints;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string_view::npos) comma = list.size();
    std::string_view item = list.substr(start, comma - start);
    // Trim surrounding spaces so "a:1, b:2" parses.
    while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
    while (!item.empty() && item.back() == ' ') item.remove_suffix(1);
    if (!item.empty()) {
      std::string host;
      int port = 0;
      PROGXE_RETURN_NOT_OK(ParseEndpoint(item, &host, &port));
      endpoints.emplace_back(item);
    }
    if (comma == list.size()) break;
    start = comma + 1;
  }
  return endpoints;
}

WorkerConnection::~WorkerConnection() { CloseFd(fd_); }

Status WorkerConnection::Call(MsgType request, const std::string& payload,
                              MsgType expected, std::string* reply,
                              std::chrono::milliseconds deadline) {
  if (!healthy_) {
    return Status::Unavailable("worker connection already failed (" +
                               endpoint_ + ")");
  }
  const auto rpc_start = std::chrono::steady_clock::now();
  Status st = SendFrame(fd_, request, payload);
  MsgType got;
  while (st.ok()) {
    st = RecvFrame(fd_, &got, reply, deadline);
    if (!st.ok()) break;
    if (got == MsgType::kHeartbeat) continue;  // alive; deadline restarts
    if (got == MsgType::kError) {
      Status remote;
      WireReader r(*reply);
      st = ReadStatusPayload(&r, &remote);
      if (st.ok()) st = remote.ok() ? Status::InvalidArgument(
                                          "worker sent kError with OK status")
                                    : remote;
      break;
    }
    if (got != expected) {
      st = Status::InvalidArgument(
          std::string("unexpected reply frame: got ") + MsgTypeName(got) +
          ", want " + MsgTypeName(expected));
      break;
    }
    NetRecordRtt(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - rpc_start)
            .count()));
    return Status::OK();
  }
  healthy_ = false;
  return st;
}

WorkerPool::WorkerPool(NetOptions options) : options_(options) {}

WorkerPool::~WorkerPool() {
  // Keep the process-wide open-circuits gauge honest across pool teardown.
  std::lock_guard<std::mutex> lock(mtx_);
  for (const auto& [endpoint, h] : health_) {
    if (h.open) NetRecordCircuitClosed();
  }
}

Result<std::unique_ptr<WorkerConnection>> WorkerPool::Checkout(
    const std::string& endpoint) {
  {
    std::lock_guard<std::mutex> lock(mtx_);
    auto it = cache_.find(endpoint);
    while (it != cache_.end() && !it->second.empty()) {
      std::unique_ptr<WorkerConnection> conn = std::move(it->second.back());
      it->second.pop_back();
      if (!IdleLinkDead(conn->fd_)) {
        ++reuses_;
        return conn;
      }
      // Stale link (worker restarted / died while cached): drop and keep
      // looking.
    }
  }

  auto dialed = DialTcp(endpoint, options_.connect_timeout);
  if (!dialed.ok()) {
    ReportFailure(endpoint);
    return dialed.status();
  }
  std::unique_ptr<WorkerConnection> conn(
      new WorkerConnection(*dialed, endpoint));
  // Both sides speak exactly kWireVersion: a worker of another version
  // rejects the kHello (its kError surfaces as InvalidArgument here).
  std::string hello;
  WireWriter w(&hello);
  w.PutU32(kWireMagic);
  w.PutU16(kWireVersion);
  std::string ack;
  Status st = conn->Call(MsgType::kHello, hello, MsgType::kHelloAck, &ack,
                         options_.connect_timeout);
  if (!st.ok()) {
    ReportFailure(endpoint);
    return st;
  }
  WireReader r(ack);
  uint32_t magic = 0;
  uint16_t version = 0;
  if (!r.GetU32(&magic) || !r.GetU16(&version) || magic != kWireMagic ||
      version != kWireVersion) {
    ReportFailure(endpoint);
    return Status::InvalidArgument("worker handshake mismatch (" + endpoint +
                                   ")");
  }
  ReportSuccess(endpoint);
  std::lock_guard<std::mutex> lock(mtx_);
  ++created_;
  return conn;
}

void WorkerPool::ReportFailure(const std::string& endpoint) {
  if (options_.circuit_failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(mtx_);
  EndpointHealth& h = health_[endpoint];
  ++h.consecutive_failures;
  if (h.consecutive_failures < options_.circuit_failure_threshold) return;
  // (Re-)open the circuit with a cooldown that doubles per episode.
  const int shift = std::min(h.opens, 5);
  const auto cooldown = options_.circuit_cooldown * (1 << shift);
  if (!h.open) NetRecordCircuitOpened();
  h.open = true;
  h.open_until = std::chrono::steady_clock::now() + cooldown;
  ++h.opens;
  // The episode consumed this failure run; the next run counts afresh
  // (a half-open probe failure re-opens after one more threshold run is
  // too slow — so re-arm at threshold-1, making a single probe failure
  // re-open immediately).
  h.consecutive_failures = options_.circuit_failure_threshold - 1;
}

void WorkerPool::ReportSuccess(const std::string& endpoint) {
  if (options_.circuit_failure_threshold <= 0) return;
  std::lock_guard<std::mutex> lock(mtx_);
  auto it = health_.find(endpoint);
  if (it == health_.end()) return;
  if (it->second.open) NetRecordCircuitClosed();
  it->second = EndpointHealth{};
}

bool WorkerPool::IsOpen(const std::string& endpoint) const {
  std::lock_guard<std::mutex> lock(mtx_);
  auto it = health_.find(endpoint);
  if (it == health_.end() || !it->second.open) return false;
  // Past the cooldown the circuit is half-open: report closed so exactly
  // the callers that would have skipped it probe it instead.
  return std::chrono::steady_clock::now() < it->second.open_until;
}

int WorkerPool::open_circuits() const {
  std::lock_guard<std::mutex> lock(mtx_);
  int n = 0;
  for (const auto& [endpoint, h] : health_) {
    if (h.open) ++n;
  }
  return n;
}

void WorkerPool::Return(std::unique_ptr<WorkerConnection> conn) {
  if (conn == nullptr || !conn->healthy()) return;
  std::lock_guard<std::mutex> lock(mtx_);
  std::vector<std::unique_ptr<WorkerConnection>>& slot =
      cache_[conn->endpoint()];
  if (slot.size() < kMaxCachedPerEndpoint) slot.push_back(std::move(conn));
}

uint64_t WorkerPool::connections_created() const {
  std::lock_guard<std::mutex> lock(mtx_);
  return created_;
}

uint64_t WorkerPool::reuses() const {
  std::lock_guard<std::mutex> lock(mtx_);
  return reuses_;
}

}  // namespace progxe
