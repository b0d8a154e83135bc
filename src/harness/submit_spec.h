// The one parser of query-submission settings. progxe_cli reads them as
// `--key=value` flags; progxe_server reads them as `submit key=value`
// tokens and its serving flags as `--key=value`. Each shared key is parsed
// and range-checked in exactly one place, ApplySubmitSetting or
// ApplyServeSetting, so the two tools cannot drift apart.
//
// Submission keys (ApplySubmitSetting -> SubmitSpec):
//   dist=independent|correlated|anticorrelated  n=<1..20M>  dims=<2..16>
//   sigma=<(0,1]>  seed=<u64>                    the workload (defaults
//                                                independent 10000 4 0.001 42)
//   algo=<name>  max_results=<n>                 the engine (ProgXe variants
//                                                and the baselines by name)
//   weight=<w > 0>                               slice share under contention
//   deadline_ms=<ms>                             > 0 overrides the serving
//                                                default, < 0 opts out of it
//   shards=<1..64>                               hash-partition the join
//                                                (same result set at any K)
//   shard_workers=host:port,...                  run the shards on remote
//                                                workers; shard i's
//                                                incarnation n dials
//                                                workers[(i + n) % len]
//   max_retries=<0..1000>  retry_backoff_ms=<ms >= 0>
//                                                per-shard recovery budget
//   allow_partial                                finish as partial instead
//                                                of failing on exhaustion
//   faults=<spec>  fault_seed=<u64>              fault injection
//                                                (common/fault_injection.h)
// Serving keys (ApplyServeSetting -> ServiceOptions):
//   workers=<1..256>  budget=<pairs>  max_concurrent=<n>  max_queue=<n>
//   deadline_ms=<ms >= 0>                        the default deadline
// `allow_partial` is a bare flag; every other key needs a value.
//
// Each Apply*Setting returns NotFound for a key it does not own, so a tool
// offers a setting to the shared parsers and then to its own keys:
//   Status st = ApplySubmitSetting(setting, &spec);
//   if (st.IsNotFound()) st = ApplyToolSetting(setting, &tool);
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/parse_number.h"
#include "common/status.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "progxe/config.h"
#include "service/scheduler.h"

namespace progxe {

/// One `key` or `key=value` setting; views into the caller's token.
struct Setting {
  std::string_view key;
  std::optional<std::string_view> value;  ///< nullopt for a bare `key`
};

/// Splits each token at its first '=' after stripping `prefix` ("--" for
/// command-line flags, "" for protocol tokens) and appends it to `out`; a
/// token without `prefix` or with an empty key is an error. The settings
/// view into `tokens`.
Status SplitSettings(std::span<const std::string> tokens,
                     std::string_view prefix, std::vector<Setting>* out);

/// The NotFound "unknown key" error that ends every Apply*Setting chain.
Status UnknownSetting(const Setting& setting);

/// `setting`'s value, or InvalidArgument when it is a bare key.
Status SettingValue(const Setting& setting, std::string_view* value);

/// A bare flag: sets `*out`; a value is an error.
Status SettingFlag(const Setting& setting, bool* out);

/// `key=<integer in [lo, hi]>`, parsed with the strict parsers of
/// common/parse_number.h; errors name the key.
template <typename T>
Status SettingNumber(const Setting& setting, T lo, T hi, T* out) {
  static_assert(std::is_integral_v<T>);
  std::string_view value;
  PROGXE_RETURN_NOT_OK(SettingValue(setting, &value));
  const std::string key(setting.key);
  T parsed{};
  if (!parse_internal::ParseFull(value, &parsed)) {
    return Status::InvalidArgument("bad value for " + key + ": " +
                                   std::string(value));
  }
  if (parsed < lo || parsed > hi) {
    return Status::InvalidArgument(
        key + " out of range [" + std::to_string(lo) + ", " +
        std::to_string(hi) + "]: " + std::string(value));
  }
  *out = parsed;
  return Status::OK();
}

/// Everything one query submission names.
struct SubmitSpec {
  WorkloadParams params;
  Algo algo = Algo::kProgXe;
  /// `max_results`; EngineOptions() adds the faults.
  ProgXeOptions options;
  /// `weight`, `deadline_ms` and the sharding keys (`submit.shards`).
  SubmitOptions submit;
  /// The validated `faults` spec ("" = none) and its `fault_seed`.
  std::string faults;
  uint64_t fault_seed = 0;
  /// True once a workload key (dist n dims sigma seed) was given.
  bool shaped = false;

  /// `options` with a fault injector compiled afresh from `faults` and
  /// `fault_seed`: each call starts its own fired counts, so every run
  /// built from one spec meets the same fault schedule.
  ProgXeOptions EngineOptions() const;
};

/// Applies one submission key to `spec`; NotFound for any other key.
Status ApplySubmitSetting(const Setting& setting, SubmitSpec* spec);

/// Applies one serving key to `options`; NotFound for any other key.
Status ApplyServeSetting(const Setting& setting, ServiceOptions* options);

}  // namespace progxe
