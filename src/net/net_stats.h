// Process-wide transport counters for the distributed shard layer.
//
// Every frame the coordinator or a worker sends/receives is tallied here
// (bytes + frames, relaxed atomics), and every coordinator RPC records its
// round-trip time into the log2-microsecond histogram the scheduler's
// slice latencies use too (common/stat_fields.h). SnapshotNetStats() takes
// a consistent-enough point-in-time copy for the server's `stats` line and
// its Prometheus `metrics` (`progxe_net_*`, obs/metrics.h).
//
// The totals are process-wide by design: a coordinator process reports its
// client-side traffic, a worker process its serving-side traffic, and a
// loopback test both — which is exactly what its operator wants on a
// per-process scrape.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>

#include "common/stat_fields.h"

namespace progxe {

/// Tallies one sent frame (header + payload bytes on the wire).
void NetRecordSend(uint64_t bytes);
/// Tallies one received frame.
void NetRecordRecv(uint64_t bytes);
/// Records one coordinator RPC round trip.
void NetRecordRtt(uint64_t us);
/// Endpoint circuit-breaker transitions (net/worker_pool.h): Opened bumps
/// the open-circuits gauge and the opened-total counter; Closed drops the
/// gauge (a pool closes its still-open circuits on destruction).
void NetRecordCircuitOpened();
void NetRecordCircuitClosed();

/// Point-in-time copy of the process totals.
struct NetStatsSnapshot {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t circuits_opened = 0;  ///< Circuit-open episodes (monotone).
  uint64_t open_circuits = 0;    ///< Currently open endpoint circuits.
  // The RTT histogram, exported as one Prometheus histogram
  // (`progxe_net_rtt_seconds`) rather than through the field list.
  uint64_t rtt_count = 0;
  double rtt_sum_us = 0.0;
  Log2UsHistogram rtt_us_log2{};

  /// Nearest-rank q-quantile RTT at log2 resolution (Log2UsQuantile);
  /// 0 when no RPC completed yet.
  uint64_t RttQuantileUs(double q) const {
    return Log2UsQuantile(rtt_us_log2, q);
  }

  /// `net_<name>=value` over kNetStatsFields, then the RTT quantiles and
  /// buckets (`net_rtt_p50_us<...`) — the server's `stats` line tail.
  std::string FormatFields() const;
};

inline constexpr StatField<NetStatsSnapshot> kNetStatsFields[] = {
    {"bytes_sent", &NetStatsSnapshot::bytes_sent, StatKind::kCounter,
     "Transport bytes sent (frame headers + payloads)"},
    {"bytes_received", &NetStatsSnapshot::bytes_received, StatKind::kCounter,
     "Transport bytes received (frame headers + payloads)"},
    {"frames_sent", &NetStatsSnapshot::frames_sent, StatKind::kCounter,
     "Wire frames sent"},
    {"frames_received", &NetStatsSnapshot::frames_received,
     StatKind::kCounter, "Wire frames received"},
    {"circuits_opened", &NetStatsSnapshot::circuits_opened,
     StatKind::kCounter, "Endpoint circuit-breaker open episodes"},
    {"open_circuits", &NetStatsSnapshot::open_circuits, StatKind::kGauge,
     "Worker endpoints currently sidelined by the circuit breaker"},
};
static_assert(sizeof(NetStatsSnapshot) ==
                  (std::size(kNetStatsFields) + 2) * 8 +
                      sizeof(Log2UsHistogram),
              "list every scalar NetStatsSnapshot field in kNetStatsFields");

NetStatsSnapshot SnapshotNetStats();

}  // namespace progxe
