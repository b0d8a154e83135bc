#include "progxe/session.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/fault_injection.h"
#include "common/macros.h"
#include "obs/trace.h"
#include "progxe/prepare_cache.h"

namespace progxe {

Result<std::unique_ptr<ProgXeSession>> ProgXeSession::Open(
    const SkyMapJoinQuery& query, ProgXeOptions options) {
  // make_unique needs a public constructor; the session is handed out
  // fully-opened only.
  std::unique_ptr<ProgXeSession> session(new ProgXeSession());
  session->options_ = std::move(options);
  session->prep_ = std::make_unique<PreparedQuery>();
  if (session->options_.prepare_cache != nullptr) {
    PrepareCache& cache = *session->options_.prepare_cache;
    const std::string key =
        PrepareCache::Fingerprint(query, session->options_);
    std::shared_ptr<const PreparedInputs> inputs = cache.Lookup(key);
    if (inputs != nullptr) {
      TraceInstant(trace_cats::kCache, "cache.hit", "instance",
                   session->options_.fault_instance);
    } else {
      TraceInstant(trace_cats::kCache, "cache.miss", "instance",
                   session->options_.fault_instance);
    }
    if (inputs == nullptr) {
      // Cold miss: build a self-contained entry (owns source copies, so it
      // stays valid after the submitter frees its relations) and publish
      // it. On an insert race the first writer's entry wins for the cache,
      // but *this* session keeps the inputs it just built — both are
      // equivalent by construction.
      auto built = std::make_shared<PreparedInputs>();
      PROGXE_RETURN_NOT_OK(BuildPreparedInputs(
          query, session->options_, /*own_sources=*/true, built.get()));
      cache.Insert(key, built);
      inputs = std::move(built);
    }
    AdoptPreparedInputs(std::move(inputs), &session->options_,
                        &session->stats_, session->prep_.get());
  } else {
    PROGXE_RETURN_NOT_OK(PreparePhase(query, &session->options_,
                                      &session->stats_, session->prep_.get()));
  }
  session->StartLoop();
  return session;
}

Result<std::unique_ptr<ProgXeSession>> ProgXeSession::OpenPrepared(
    std::shared_ptr<const PreparedInputs> inputs, ProgXeOptions options) {
  if (inputs == nullptr) {
    return Status::InvalidArgument("OpenPrepared requires prepared inputs");
  }
  std::unique_ptr<ProgXeSession> session(new ProgXeSession());
  session->options_ = std::move(options);
  session->prep_ = std::make_unique<PreparedQuery>();
  AdoptPreparedInputs(std::move(inputs), &session->options_,
                      &session->stats_, session->prep_.get());
  session->StartLoop();
  return session;
}

void ProgXeSession::StartLoop() {
  if (!prep_->trivially_empty) {
    loop_ = std::make_unique<RegionLoop>(prep_.get(), options_, &stats_);
  }
}

ProgXeSession::~ProgXeSession() { Close(); }

size_t ProgXeSession::NextBatch(size_t max_results, size_t max_pairs,
                                std::vector<ResultTuple>* out) {
  out->clear();
  // The in-engine fault site. Deliberately scoped to the programmatic
  // injector only (never the PROGXE_FAULT_SITES one): an ambient soak spec
  // targets the recovery layers above, not every plain session in the
  // process. Fires only while work remains — a drained session cannot fail.
  if (options_.faults != nullptr && !closed_ && !Finished()) {
    Status fault = options_.faults->Check(fault_sites::kSessionNextBatch,
                                          options_.fault_instance);
    if (PROGXE_PREDICT_FALSE(!fault.ok())) {
      Fail(std::move(fault));
      return 0;
    }
  }
  size_t budget = max_pairs;
  while (pending_pos_ >= pending_.size() && loop_ != nullptr &&
         !loop_->done()) {
    pending_.clear();
    pending_pos_ = 0;
    const uint64_t before = stats_.join_pairs_generated;
    loop_->Step(&pending_, budget);
    if (PROGXE_PREDICT_FALSE(!loop_->status().ok())) {
      // A pipeline.chunk fault killed the loop mid-stream: same observable
      // as any in-engine failure (error in last_status, nothing delivered
      // this call, already-delivered results stand).
      Fail(loop_->status());
      return 0;
    }
    if (max_pairs != 0) {
      // Charge the slice for the pairs it actually processed; Step may
      // overshoot by one insert block, never undershoot while yielding.
      const uint64_t used = stats_.join_pairs_generated - before;
      budget = used >= budget ? 0 : budget - static_cast<size_t>(used);
      if (budget == 0) break;
    }
  }
  size_t n = pending_.size() - pending_pos_;
  if (max_results != 0) n = std::min(n, max_results);
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::move(pending_[pending_pos_ + i]));
  }
  pending_pos_ += n;
  return n;
}

void ProgXeSession::Fail(Status status) {
  assert(!status.ok());
  status_ = std::move(status);
  // Same teardown as Close (workers joined, undelivered results dropped)
  // but the session stays "open": closed() remains false, the caller
  // distinguishes death from completion through last_status().
  loop_.reset();
  prep_.reset();
  pending_.clear();
  pending_.shrink_to_fit();
  pending_pos_ = 0;
}

void ProgXeSession::Close() {
  if (closed_) return;
  closed_ = true;
  // The loop references the prepared state: destroy it first, even
  // mid-region.
  loop_.reset();
  prep_.reset();
  pending_.clear();
  pending_.shrink_to_fit();
  pending_pos_ = 0;
}

bool ProgXeSession::Finished() const {
  return pending_pos_ >= pending_.size() &&
         (loop_ == nullptr || loop_->done());
}

bool ProgXeSession::RemainingLowerBound(std::vector<double>* lo) const {
  if (Finished()) return false;
  const size_t k = static_cast<size_t>(prep_->inputs->k);
  lo->assign(k, std::numeric_limits<double>::infinity());
  // Flushed-but-undelivered results, recanonicalized (the sign fold is an
  // involution, so Canonicalize undoes what EmitCells applied).
  for (size_t i = pending_pos_; i < pending_.size(); ++i) {
    for (size_t j = 0; j < k; ++j) {
      (*lo)[j] = std::min(
          (*lo)[j], prep_->inputs->mapper.Canonicalize(static_cast<int>(j),
                                                       pending_[i].values[j]));
    }
  }
  // Everything the engine itself may still flush: live tuples in unsettled
  // cells and all unprocessed regions, both covered by the active regions'
  // cell boxes (an unsettled populated cell always has an active covering
  // region — that is what keeps it unsettled).
  if (loop_ != nullptr) loop_->RemainingLowerBound(lo);
  return true;
}

}  // namespace progxe
