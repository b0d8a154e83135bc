#include "net/remote_shard.h"

#include <utility>

#include "common/macros.h"
#include "obs/trace.h"

namespace progxe {

RemoteShardStream::RemoteShardStream(std::shared_ptr<WorkerPool> pool,
                                     std::string endpoint, int shard_index)
    : pool_(std::move(pool)),
      endpoint_(std::move(endpoint)),
      shard_index_(shard_index) {}

Result<std::unique_ptr<RemoteShardStream>> RemoteShardStream::Open(
    std::shared_ptr<WorkerPool> pool, const std::string& endpoint,
    int shard_index, const Relation& r, const Relation& t,
    const MapSpec& map, const Preference& pref,
    const ProgXeOptions& options) {
  std::unique_ptr<RemoteShardStream> stream(
      new RemoteShardStream(pool, endpoint, shard_index));
  PROGXE_ASSIGN_OR_RETURN(stream->conn_, pool->Checkout(endpoint));

  std::string payload;
  WireWriter w(&payload);
  w.PutU32(static_cast<uint32_t>(shard_index));
  WriteOptions(options, &w);
  WriteMapSpec(map, &w);
  WritePreference(pref, &w);
  WriteRelation(r, &w);
  WriteRelation(t, &w);

  std::string reply;
  Status st = stream->conn_->Call(MsgType::kOpenShard, payload,
                                  MsgType::kOpenResult, &reply,
                                  pool->options().open_timeout);
  if (!st.ok()) {
    pool->ReportFailure(endpoint);
    return st;
  }
  WireReader reader(reply);
  Status remote;
  PROGXE_RETURN_NOT_OK(ReadStatusPayload(&reader, &remote));
  if (!remote.ok()) {
    // Semantic open failure on the worker (validation / injected fault):
    // the link itself is fine, hand it back for reuse.
    pool->Return(std::move(stream->conn_));
    return remote;
  }
  PROGXE_RETURN_NOT_OK(
      ReadWatermark(&reader, &stream->has_bound_, &stream->bound_));
  PROGXE_RETURN_NOT_OK(ReadStats(&reader, &stream->stats_));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in open_result payload");
  }
  pool->ReportSuccess(endpoint);
  return stream;
}

RemoteShardStream::~RemoteShardStream() { Close(); }

size_t RemoteShardStream::NextBatch(size_t max_results, size_t max_pairs,
                                    std::vector<ResultTuple>* out) {
  out->clear();
  if (closed_ || !status_.ok()) return 0;

  std::string payload;
  WireWriter w(&payload);
  w.PutU64(static_cast<uint64_t>(max_results));
  w.PutU64(static_cast<uint64_t>(max_pairs));

  std::string reply;
  {
    // The merge is blocked on this shard's candidates + watermark advance
    // for the whole round trip — the distributed analogue of a local pump.
    TraceSpan span(trace_cats::kNet, "net.wait_watermark");
    span.arg("shard", shard_index_);
    status_ = conn_->Call(MsgType::kPump, payload, MsgType::kPumpResult,
                          &reply, pool_->options().pump_timeout);
  }
  if (!status_.ok()) {
    pool_->ReportFailure(endpoint_);
    return 0;
  }

  WireReader reader(reply);
  Status remote;
  status_ = ReadStatusPayload(&reader, &remote);
  if (!status_.ok()) return 0;
  if (!remote.ok()) {
    // The worker's session failed (e.g. an injected fault fired remotely).
    // Same observable as a local engine fault: no results this pump, error
    // in last_status(), pre-failure watermark and stats stay frozen.
    status_ = remote;
    return 0;
  }
  status_ = ReadResultBatch(&reader, out);
  if (!status_.ok()) return 0;
  status_ = ReadWatermark(&reader, &has_bound_, &bound_);
  if (!status_.ok()) return 0;
  status_ = ReadStats(&reader, &stats_);
  if (!status_.ok()) return 0;
  if (!reader.AtEnd()) {
    status_ =
        Status::InvalidArgument("trailing bytes in pump_result payload");
    out->clear();
    return 0;
  }
  return out->size();
}

void RemoteShardStream::Close() {
  if (closed_) return;
  closed_ = true;
  if (conn_ == nullptr) return;
  if (status_.ok() && conn_->healthy()) {
    std::string reply;
    Status st = conn_->Call(MsgType::kClose, {}, MsgType::kCloseAck, &reply,
                            pool_->options().pump_timeout);
    if (st.ok()) pool_->Return(std::move(conn_));
  }
  conn_.reset();  // broken links die here instead of rejoining the pool
}

bool RemoteShardStream::RemainingLowerBound(std::vector<double>* lo) const {
  if (!has_bound_) return false;
  *lo = bound_;
  return true;
}

}  // namespace progxe
