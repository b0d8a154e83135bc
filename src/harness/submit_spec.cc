#include "harness/submit_spec.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/fault_injection.h"
#include "net/worker_pool.h"

namespace progxe {

Status SplitSettings(std::span<const std::string> tokens,
                     std::string_view prefix, std::vector<Setting>* out) {
  for (const std::string& token : tokens) {
    std::string_view rest(token);
    const size_t eq = rest.find('=');
    if (!rest.starts_with(prefix) || eq == prefix.size() ||
        rest.size() == prefix.size()) {
      return Status::InvalidArgument("not a " + std::string(prefix) +
                                     "key[=value] setting: " + token);
    }
    Setting setting;
    setting.key = rest.substr(prefix.size(), eq - prefix.size());
    if (eq != std::string_view::npos) setting.value = rest.substr(eq + 1);
    out->push_back(setting);
  }
  return Status::OK();
}

Status UnknownSetting(const Setting& setting) {
  return Status::NotFound("unknown key: " + std::string(setting.key));
}

Status SettingValue(const Setting& setting, std::string_view* value) {
  if (!setting.value.has_value()) {
    return Status::InvalidArgument(std::string(setting.key) +
                                   " needs a value");
  }
  *value = *setting.value;
  return Status::OK();
}

Status SettingFlag(const Setting& setting, bool* out) {
  if (setting.value.has_value()) {
    return Status::InvalidArgument(std::string(setting.key) +
                                   " takes no value");
  }
  *out = true;
  return Status::OK();
}

namespace {

// Guardrails: a line-protocol endpoint may face untrusted input, so one
// setting cannot ask for an absurd workload. Over-limit values get an
// explicit error, not a silent clamp.
constexpr size_t kMaxCardinality = 20'000'000;
constexpr int kMaxDims = 16;
constexpr int kMaxShards = 64;
constexpr int kMaxRetries = 1000;
constexpr int kMaxWorkers = 256;
constexpr int64_t kMaxI64 = std::numeric_limits<int64_t>::max();
constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
constexpr size_t kMaxSize = std::numeric_limits<size_t>::max();

/// A double in (0, hi]; hi = infinity means no upper bound.
Status SettingPositive(const Setting& setting, double hi, double* out) {
  std::string_view value;
  PROGXE_RETURN_NOT_OK(SettingValue(setting, &value));
  const std::string key(setting.key);
  double parsed = 0.0;
  if (!ParseF64(value, &parsed)) {
    return Status::InvalidArgument("bad value for " + key + ": " +
                                   std::string(value));
  }
  if (!(parsed > 0.0) || parsed > hi) {
    char range[48] = " must be > 0: ";
    if (!std::isinf(hi)) {
      std::snprintf(range, sizeof range, " out of range (0, %g]: ", hi);
    }
    return Status::InvalidArgument(key + range + std::string(value));
  }
  *out = parsed;
  return Status::OK();
}

Status SettingMillis(const Setting& setting, int64_t lo,
                     std::chrono::milliseconds* out) {
  int64_t ms = 0;
  PROGXE_RETURN_NOT_OK(SettingNumber(setting, lo, kMaxI64, &ms));
  *out = std::chrono::milliseconds(ms);
  return Status::OK();
}

}  // namespace

ProgXeOptions SubmitSpec::EngineOptions() const {
  ProgXeOptions engine = options;
  if (!faults.empty()) {
    // ApplySubmitSetting validated the spec, so this compiles.
    engine.faults = FaultInjector::Parse(faults, fault_seed).MoveValue();
  }
  return engine;
}

Status ApplySubmitSetting(const Setting& setting, SubmitSpec* spec) {
  const std::string_view key = setting.key;
  WorkloadParams& params = spec->params;
  ShardOptions& shards = spec->submit.shards;
  if (key == "dist" || key == "n" || key == "dims" || key == "sigma" ||
      key == "seed") {
    spec->shaped = true;
  }
  std::string_view value;
  if (key == "dist") {
    PROGXE_RETURN_NOT_OK(SettingValue(setting, &value));
    auto dist = ParseDistribution(std::string(value));
    if (!dist.ok()) return dist.status();
    params.distribution = *dist;
    return Status::OK();
  }
  if (key == "n") {
    return SettingNumber(setting, size_t{1}, kMaxCardinality,
                         &params.cardinality);
  }
  if (key == "dims") return SettingNumber(setting, 2, kMaxDims, &params.dims);
  if (key == "sigma") return SettingPositive(setting, 1.0, &params.sigma);
  if (key == "seed") {
    return SettingNumber(setting, uint64_t{0}, kMaxU64, &params.seed);
  }
  if (key == "algo") {
    PROGXE_RETURN_NOT_OK(SettingValue(setting, &value));
    if (AlgoFromName(std::string(value), &spec->algo)) return Status::OK();
    return Status::InvalidArgument("unknown algo: " + std::string(value));
  }
  if (key == "max_results") {
    return SettingNumber(setting, size_t{0}, kMaxSize,
                         &spec->options.max_results);
  }
  if (key == "weight") {
    return SettingPositive(setting, std::numeric_limits<double>::infinity(),
                           &spec->submit.weight);
  }
  if (key == "deadline_ms") {
    return SettingMillis(setting, std::numeric_limits<int64_t>::min(),
                         &spec->submit.deadline);
  }
  if (key == "shards") {
    return SettingNumber(setting, 1, kMaxShards, &shards.num_shards);
  }
  if (key == "shard_workers") {
    PROGXE_RETURN_NOT_OK(SettingValue(setting, &value));
    auto list = ParseWorkerList(value);
    if (!list.ok()) return list.status();
    if (list->empty()) {
      return Status::InvalidArgument("shard_workers needs at least one "
                                     "host:port");
    }
    shards.workers = list.MoveValue();
    return Status::OK();
  }
  if (key == "max_retries") {
    return SettingNumber(setting, 0, kMaxRetries, &shards.max_retries);
  }
  if (key == "retry_backoff_ms") {
    return SettingMillis(setting, 0, &shards.retry_backoff);
  }
  if (key == "allow_partial") return SettingFlag(setting, &shards.allow_partial);
  if (key == "faults") {
    PROGXE_RETURN_NOT_OK(SettingValue(setting, &value));
    // The seed only draws the probabilistic rules; any seed validates.
    auto injector = FaultInjector::Parse(value, 0);
    if (!injector.ok()) return injector.status();
    spec->faults = value;
    return Status::OK();
  }
  if (key == "fault_seed") {
    return SettingNumber(setting, uint64_t{0}, kMaxU64, &spec->fault_seed);
  }
  return UnknownSetting(setting);
}

Status ApplyServeSetting(const Setting& setting, ServiceOptions* options) {
  const std::string_view key = setting.key;
  if (key == "workers") {
    return SettingNumber(setting, 1, kMaxWorkers, &options->num_workers);
  }
  if (key == "budget") {
    return SettingNumber(setting, size_t{0}, kMaxSize, &options->batch_budget);
  }
  if (key == "max_concurrent") {
    return SettingNumber(setting, size_t{0}, kMaxSize,
                         &options->max_concurrent);
  }
  if (key == "max_queue") {
    return SettingNumber(setting, size_t{0}, kMaxSize, &options->max_queue);
  }
  if (key == "deadline_ms") {
    return SettingMillis(setting, 0, &options->default_deadline);
  }
  return UnknownSetting(setting);
}

}  // namespace progxe
