// Folds the engine's Chrome trace JSON (obs/trace.h Tracing::RenderJson)
// into per-span-name self times.
//
// A span's self time is its duration minus the part of it that spans
// nested inside it on the same thread cover. Spans on different threads
// never nest: a remote worker's region spans, or a scheduler worker's
// slices, are folded on their own threads. Threads that recorded a
// benchmark span ("bench.*") are driver threads; their self times are also
// kept apart, so that a layer seen from both ends of a connection can be
// read from the caller's side only.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One span ('X') or instant ('i') parsed from the trace.
struct TraceEvent {
  std::string name;
  char phase = 'X';
  uint32_t tid = 0;
  int64_t ts_ns = 0;
  int64_t dur_ns = 0;
  int64_t query = -1;  ///< The "query" argument, when the event has one.
};

/// Parses the events of one RenderJson document, skipping metadata rows.
std::vector<TraceEvent> ParseTrace(const std::string& json);

/// Accumulated self and inclusive time per span name, in seconds, plus
/// the instants and argument-tagged spans the benchmark reads directly.
class TraceFold {
 public:
  /// Folds one parsed trace into the running totals.
  void Add(const std::vector<TraceEvent>& events);

  /// Summed self time of every span called `name`, on every thread or on
  /// driver threads only.
  double SelfSeconds(const std::string& name, bool driver_only = false) const;
  /// Summed full duration of every span called `name`.
  double InclusiveSeconds(const std::string& name) const;

  /// Every instant or span of this name that carried a "query" argument:
  /// query id -> trace timestamp in ns (the span's start for a span).
  const std::map<int64_t, int64_t>& Tagged(const std::string& name) const;

 private:
  std::map<std::string, int64_t> self_ns_;
  std::map<std::string, int64_t> driver_self_ns_;
  std::map<std::string, int64_t> inclusive_ns_;
  std::map<std::string, std::map<int64_t, int64_t>> tagged_;
};

}  // namespace perfbench
