#include "obs/metrics.h"

#include <string_view>

#include "common/fault_injection.h"
#include "common/stat_fields.h"
#include "net/net_stats.h"
#include "obs/trace.h"
#include "progxe/config.h"
#include "service/scheduler.h"

namespace progxe {

namespace {

void AppendHeader(std::string_view name, std::string_view type,
                  std::string_view help, std::string* out) {
  out->append("# HELP ").append(name).append(" ").append(help).append("\n");
  out->append("# TYPE ").append(name).append(" ").append(type).append("\n");
}

void AppendScalar(std::string_view name, StatKind kind, std::string_view help,
                  const std::string& value, std::string* out) {
  AppendHeader(name, kind == StatKind::kCounter ? "counter" : "gauge", help,
               out);
  out->append(name).append(" ").append(value).append("\n");
}

template <typename S, size_t N>
void AppendFields(std::string_view subsystem, const StatField<S> (&fields)[N],
                  const S& s, std::string* out) {
  for (const StatField<S>& f : fields) {
    std::string name = "progxe_";
    name.append(subsystem).append("_").append(f.name);
    if (f.kind == StatKind::kCounter && !name.ends_with("_total")) {
      name.append("_total");
    }
    AppendScalar(name, f.kind, f.help,
                 f.real != nullptr ? FormatStatReal(s.*f.real)
                                   : std::to_string(s.*f.count),
                 out);
  }
}

/// Bucket i's exclusive upper edge, 2^i us, in seconds.
double BucketEdgeSeconds(size_t i) {
  return static_cast<double>(uint64_t{1} << i) * 1e-6;
}

/// A log2-us histogram re-based to seconds, in the cumulative
/// `_bucket{le=...}` form; the open-ended last bucket maps onto +Inf.
void AppendHistogram(std::string_view name, std::string_view help,
                     const Log2UsHistogram& h, double sum_seconds,
                     std::string* out) {
  AppendHeader(name, "histogram", help, out);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kLog2UsBuckets; ++i) {
    cumulative += h[i];
    out->append(name).append("_bucket{le=\"");
    out->append(i + 1 < kLog2UsBuckets ? FormatStatReal(BucketEdgeSeconds(i))
                                       : "+Inf");
    out->append("\"} ").append(std::to_string(cumulative)).append("\n");
  }
  out->append(name).append("_sum ").append(FormatStatReal(sum_seconds));
  out->append("\n").append(name).append("_count ");
  out->append(std::to_string(cumulative)).append("\n");
}

}  // namespace

std::string RenderPrometheus(const ProgXeStats& executor_totals,
                             const SchedulerStats& scheduler,
                             const NetStatsSnapshot& net) {
  std::string out;
  AppendFields("executor", kProgXeStatsFields, executor_totals, &out);

  AppendFields("scheduler", kSchedulerStatsFields, scheduler, &out);
  // Slices record only their bucket, so the sum takes each bucket's upper
  // edge.
  double slice_sum = 0.0;
  for (size_t i = 0; i < kLog2UsBuckets; ++i) {
    slice_sum += static_cast<double>(scheduler.slice_latency_us_log2[i]) *
                 BucketEdgeSeconds(i);
  }
  AppendHistogram("progxe_scheduler_slice_latency_seconds",
                  "Wall-clock latency of served NextBatch slices (log2 "
                  "buckets; sum is an upper-edge approximation)",
                  scheduler.slice_latency_us_log2, slice_sum, &out);

  AppendFields("net", kNetStatsFields, net, &out);
  AppendHistogram("progxe_net_rtt_seconds", "Coordinator RPC round-trip time",
                  net.rtt_us_log2, net.rtt_sum_us * 1e-6, &out);

  AppendScalar("progxe_trace_dropped_events_total", StatKind::kCounter,
               "Trace events dropped to ring-buffer overflow",
               std::to_string(Tracing::dropped()), &out);
  AppendScalar("progxe_trace_buffered_events", StatKind::kGauge,
               "Trace events currently buffered across threads",
               std::to_string(Tracing::buffered()), &out);
  FaultInjector* env = FaultInjector::FromEnv();
  AppendScalar("progxe_fault_fires_total", StatKind::kCounter,
               "Faults fired by the ambient PROGXE_FAULT_SITES injector",
               std::to_string(env != nullptr ? env->fires() : 0), &out);
  return out;
}

}  // namespace progxe
