// Prometheus text exposition, written fresh from stats snapshots.
//
// There is no registry: the engine's snapshot structs are the only state.
// RenderPrometheus walks their field lists (common/stat_fields.h) and
// writes one family per field, so a scrape is exactly as fresh as the
// snapshots passed in and the hot path never pays for a metric update:
//
//   std::string text = RenderPrometheus(terminal_totals, scheduler.stats(),
//                                       SnapshotNetStats());
//
// `progxe_server` exposes exactly this via its `metrics` command. A field
// `f` of a snapshot is exported as `progxe_<subsystem>_<f>`, plus `_total`
// for counters whose name does not end in it already. The subsystems are
// `executor` (ProgXeStats), `scheduler` (SchedulerStats) and `net`
// (NetStatsSnapshot). The two log2-us latency histograms become
// `progxe_scheduler_slice_latency_seconds` and `progxe_net_rtt_seconds`.
// docs/ARCHITECTURE.md lists every series.
#pragma once

#include <string>

namespace progxe {

struct ProgXeStats;       // progxe/config.h
struct SchedulerStats;    // service/scheduler.h
struct NetStatsSnapshot;  // net/net_stats.h

/// The whole exposition (# HELP, # TYPE, samples): every field of the
/// three snapshots, the two latency histograms, and the observability
/// layer's own counters (trace events dropped and buffered, ambient fault
/// fires). `executor_totals` is a sum over runs, e.g. every terminal query.
std::string RenderPrometheus(const ProgXeStats& executor_totals,
                             const SchedulerStats& scheduler,
                             const NetStatsSnapshot& net);

}  // namespace progxe
