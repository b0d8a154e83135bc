#include "net/worker_service.h"

#include <sys/socket.h>

#include <algorithm>
#include <condition_variable>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "data/relation.h"
#include "mapping/map_expr.h"
#include "net/socket.h"
#include "net/wire.h"
#include "prefs/preference.h"
#include "progxe/session.h"

namespace progxe {

namespace {

/// Receive deadline for an idle coordinator link. Connections are severed
/// by Stop() (fd shutdown), not by timing out, so this is effectively
/// "forever" while staying poll()-representable.
constexpr std::chrono::milliseconds kIdleRecvDeadline{24 * 3600 * 1000};

/// One connection's open shard assignment. The session's query points into
/// the deserialized relations, so both live and die together.
struct OpenState {
  Relation r{Schema::Anonymous(0)};
  Relation t{Schema::Anonymous(0)};
  MapSpec map;
  Preference pref;
  std::unique_ptr<ProgXeSession> session;
  int shard_index = 0;
};

Status SendError(int fd, const Status& status) {
  std::string payload;
  WireWriter w(&payload);
  WriteStatusPayload(status, &w);
  return SendFrame(fd, MsgType::kError, payload);
}

/// Emits kHeartbeat frames on `fd` every `interval` for as long as the
/// scope lives. Used around kOpenShard handling, whose prepare phase can
/// exceed the coordinator's open_timeout: the coordinator's deadline must
/// keep measuring liveness, not prepare duration (worker_pool.h contract).
/// The owning scope must not send any frame while the ticker is live —
/// concurrent writers would interleave mid-frame.
class HeartbeatTicker {
 public:
  HeartbeatTicker(int fd, std::chrono::milliseconds interval)
      : fd_(fd), interval_(interval), thread_([this] { Run(); }) {}

  ~HeartbeatTicker() {
    {
      std::lock_guard<std::mutex> lock(mtx_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mtx_);
    while (!stop_) {
      if (cv_.wait_for(lock, interval_, [this] { return stop_; })) return;
      lock.unlock();
      const bool sent = SendFrame(fd_, MsgType::kHeartbeat, {}).ok();
      lock.lock();
      // Peer gone: stop ticking; the result send will surface the failure.
      if (!sent) return;
    }
  }

  const int fd_;
  const std::chrono::milliseconds interval_;
  std::mutex mtx_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

Result<std::unique_ptr<WorkerServer>> WorkerServer::Start(
    WorkerServerOptions options) {
  std::unique_ptr<WorkerServer> server(new WorkerServer());
  server->options_ = options;
  PROGXE_ASSIGN_OR_RETURN(ListenSocket listener, ListenTcp(options.port));
  server->listen_fd_ = listener.fd;
  server->port_ = listener.port;
  server->accept_thread_ = std::thread(&WorkerServer::AcceptLoop, server.get());
  PROGXE_LOG(Info) << "shard worker listening on port " << server->port_;
  return server;
}

WorkerServer::~WorkerServer() { Stop(); }

uint64_t WorkerServer::connections_accepted() const {
  std::lock_guard<std::mutex> lock(mtx_);
  return accepted_;
}

void WorkerServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mtx_);
    if (stopping_) return;
    stopping_ = true;
    // Sever every live link: coordinators mid-pump observe a retryable
    // kUnavailable — the worker-kill signal their recovery path expects.
    for (int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  // Handlers run detached; the severed fds above make each one exit its
  // recv promptly, and the count tracks the last touch of `this`.
  std::unique_lock<std::mutex> lock(mtx_);
  handlers_done_.wait(lock, [this] { return active_handlers_ == 0; });
}

bool WorkerServer::Drain(std::chrono::milliseconds timeout) {
  {
    std::lock_guard<std::mutex> lock(mtx_);
    if (stopping_ || draining_) return true;
    draining_ = true;
    // Idle links (no open session) have nothing in flight worth finishing;
    // sever them now so their handlers exit instead of blocking the drain
    // on the day-long idle deadline.
    for (int fd : live_fds_) {
      if (session_fds_.count(fd) == 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  bool clean = false;
  {
    std::unique_lock<std::mutex> lock(mtx_);
    clean = handlers_done_.wait_for(lock, timeout,
                                    [this] { return active_handlers_ == 0; });
  }
  if (!clean) {
    PROGXE_LOG(Warn) << "drain timeout: severing in-flight sessions";
  }
  Stop();  // force-sever stragglers (no-op when the drain finished clean)
  return clean;
}

void WorkerServer::AcceptLoop() {
  while (true) {
    Result<int> accepted = AcceptTcp(listen_fd_);
    {
      std::lock_guard<std::mutex> lock(mtx_);
      if (stopping_ || draining_) {
        if (accepted.ok()) CloseFd(*accepted);
        return;
      }
      if (accepted.ok()) {
        ++accepted_;
        live_fds_.push_back(*accepted);
        ++active_handlers_;
      }
    }
    if (!accepted.ok()) {
      // A persistent accept errno (EMFILE, ENFILE, ...) must not busy-spin
      // this thread; back off before retrying.
      PROGXE_LOG(Warn) << "worker accept failed (retrying): "
                       << accepted.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    std::thread(&WorkerServer::HandleConnection, this, *accepted).detach();
  }
}

void WorkerServer::HandleConnection(int fd) {
  std::string payload;
  std::string reply;
  MsgType type;
  std::unique_ptr<OpenState> state;

  // Handshake: the very first frame must be a kHello carrying exactly our
  // magic and version; anything else gets an error reply and the link
  // closes before any other frame is parsed.
  Status st = RecvFrame(fd, &type, &payload, options_.heartbeat_interval * 50);
  bool ok = st.ok();
  if (ok) {
    WireReader r(payload);
    uint32_t magic = 0;
    uint16_t version = 0;
    ok = type == MsgType::kHello && r.GetU32(&magic) &&
         r.GetU16(&version) && magic == kWireMagic &&
         version == kWireVersion;
    if (!ok) {
      SendError(fd, Status::InvalidArgument(
                        "wire handshake rejected (magic/version mismatch; "
                        "this worker speaks only version " +
                        std::to_string(kWireVersion) + ")"));
    }
  }
  if (ok) {
    reply.clear();
    WireWriter w(&reply);
    w.PutU32(kWireMagic);
    w.PutU16(kWireVersion);
    ok = SendFrame(fd, MsgType::kHelloAck, reply).ok();
  }

  while (ok) {
    st = RecvFrame(fd, &type, &payload, kIdleRecvDeadline);
    if (!st.ok()) break;  // peer gone or server stopping
    switch (type) {
      case MsgType::kPing: {
        ok = SendFrame(fd, MsgType::kPong, {}).ok();
        break;
      }
      case MsgType::kOpenShard: {
        {
          std::lock_guard<std::mutex> lock(mtx_);
          if (draining_) {
            // Refuse new sessions with a retryable status so the
            // coordinator's recovery path re-opens elsewhere.
            SendError(fd, Status::Unavailable("worker draining"));
            ok = false;
            break;
          }
        }
        auto next = std::make_unique<OpenState>();
        Status parse_error;
        Result<std::unique_ptr<ProgXeSession>> opened =
            Status::Internal("open_shard never ran");
        {
          // Slice deserialization plus the whole prepare phase can outlast
          // the coordinator's open_timeout; tick heartbeats so its deadline
          // measures liveness. No other frame may be sent in this scope.
          HeartbeatTicker ticker(fd, options_.heartbeat_interval);
          WireReader r(payload);
          uint32_t shard_index = 0;
          ProgXeOptions options;
          r.GetU32(&shard_index);
          ReadOptions(&r, &options);
          ReadMapSpec(&r, &next->map);
          ReadPreference(&r, &next->pref);
          ReadRelation(&r, &next->r);
          ReadRelation(&r, &next->t);
          if (!r.ok() || !r.AtEnd()) {
            if (r.ok()) r.Fail("trailing bytes after open_shard payload");
            parse_error = r.status();
          } else {
            next->shard_index = static_cast<int>(shard_index);
            SkyMapJoinQuery query;
            query.r = &next->r;
            query.t = &next->t;
            query.map = next->map;
            query.pref = next->pref;
            opened = ProgXeSession::Open(query, std::move(options));
          }
        }
        if (!parse_error.ok()) {
          // A malformed assignment means the link itself can't be trusted.
          SendError(fd, parse_error);
          ok = false;
          break;
        }
        reply.clear();
        WireWriter w(&reply);
        if (!opened.ok()) {
          // Semantic failure (validation, injected fault): report it in
          // kOpenResult and keep the link serving.
          WriteStatusPayload(opened.status(), &w);
          state.reset();
          std::lock_guard<std::mutex> lock(mtx_);
          session_fds_.erase(fd);
        } else {
          next->session = std::move(opened).MoveValue();
          WriteStatusPayload(Status::OK(), &w);
          std::vector<double> bound;
          const bool has_bound = next->session->RemainingLowerBound(&bound);
          WriteWatermark(has_bound, bound, &w);
          WriteStats(next->session->stats(), &w);
          state = std::move(next);
          PROGXE_LOG(Info) << "worker opened shard " << state->shard_index
                           << " (r=" << state->r.size()
                           << " t=" << state->t.size() << ")";
          std::lock_guard<std::mutex> lock(mtx_);
          session_fds_.insert(fd);
        }
        ok = SendFrame(fd, MsgType::kOpenResult, reply).ok();
        break;
      }
      case MsgType::kPump: {
        if (state == nullptr || state->session == nullptr) {
          SendError(fd, Status::InvalidArgument("pump without an open shard"));
          ok = false;
          break;
        }
        WireReader r(payload);
        uint64_t max_results = 0;
        uint64_t max_pairs = 0;
        if (!r.GetU64(&max_results) || !r.GetU64(&max_pairs) || !r.AtEnd()) {
          SendError(fd, Status::InvalidArgument("malformed pump payload"));
          ok = false;
          break;
        }
        ProgXeSession& session = *state->session;
        std::vector<ResultTuple> results;
        std::vector<ResultTuple> batch;
        // Internal slicing: pump in bounded sub-slices so heartbeats flow
        // during a long quiet stretch. Slice boundaries never change the
        // delivered stream or the counters (the session contract), so the
        // reply is bit-identical to a single NextBatch of the full budget.
        auto last_beat = std::chrono::steady_clock::now();
        size_t remaining = static_cast<size_t>(max_pairs);
        while (results.empty() && !session.Finished() &&
               session.last_status().ok()) {
          size_t slice = options_.pump_slice_pairs;
          if (max_pairs != 0) {
            slice = std::min(remaining, slice);
            if (slice == 0) break;
          }
          const uint64_t before = session.stats().join_pairs_generated;
          session.NextBatch(/*max_results=*/0, slice, &batch);
          results.insert(results.end(),
                         std::make_move_iterator(batch.begin()),
                         std::make_move_iterator(batch.end()));
          if (max_pairs != 0) {
            const uint64_t used =
                session.stats().join_pairs_generated - before;
            remaining = used >= remaining
                            ? 0
                            : remaining - static_cast<size_t>(used);
            if (remaining == 0) break;
          }
          const auto now = std::chrono::steady_clock::now();
          if (now - last_beat >= options_.heartbeat_interval) {
            if (!SendFrame(fd, MsgType::kHeartbeat, {}).ok()) break;
            last_beat = now;
          }
        }
        reply.clear();
        WireWriter w(&reply);
        const Status session_status = session.last_status();
        WriteStatusPayload(session_status, &w);
        if (session_status.ok()) {
          WriteResultBatch(results, state->map.output_dimensions(), &w);
          std::vector<double> bound;
          const bool has_bound = session.RemainingLowerBound(&bound);
          WriteWatermark(has_bound, bound, &w);
          WriteStats(session.stats(), &w);
        }
        ok = SendFrame(fd, MsgType::kPumpResult, reply).ok();
        break;
      }
      case MsgType::kClose: {
        state.reset();
        {
          std::lock_guard<std::mutex> lock(mtx_);
          session_fds_.erase(fd);
          // A draining worker serves the session to its close, then lets
          // the link go instead of idling for the next assignment.
          if (draining_) ok = false;
        }
        const bool acked = SendFrame(fd, MsgType::kCloseAck, {}).ok();
        ok = ok && acked;
        break;
      }
      default: {
        SendError(fd, Status::InvalidArgument(
                          std::string("unexpected frame: ") +
                          MsgTypeName(type)));
        ok = false;
        break;
      }
    }
  }

  CloseFd(fd);
  std::lock_guard<std::mutex> lock(mtx_);
  live_fds_.erase(std::remove(live_fds_.begin(), live_fds_.end(), fd),
                  live_fds_.end());
  session_fds_.erase(fd);
  // Last touch of `this`: notify while holding the lock so Stop() cannot
  // observe the zero and destroy the server before the notify happens.
  --active_handlers_;
  handlers_done_.notify_all();
}

}  // namespace progxe
