// Low-overhead span tracing for the ProgXe stack.
//
// A process-wide trace session is armed with Tracing::Start() and drained
// with Tracing::WriteJson()/RenderJson(), which emit Chrome `trace_event`
// JSON loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Between
// Start and Stop, RAII spans and instant events record into *thread-local*
// ring buffers:
//
//   {
//     TraceSpan span(trace_cats::kShard, "shard.pump");
//     span.arg("shard", shard_index);
//     ... work ...
//   }                      // duration recorded at scope exit
//   TraceInstant(trace_cats::kCache, "cache.hit", "entries", n);
//
// Each recording thread owns one fixed-capacity ring; on overflow the
// oldest events are dropped and counted (Tracing::dropped()), so tracing
// never blocks or allocates on the hot path after the ring warms up.
// Name/category/arg-name strings must be string literals (or otherwise
// outlive the trace session): only the pointer is stored.
//
// Tracing disabled is free by contract: TraceSpan's constructor is one
// predicted-not-taken branch on a relaxed atomic flag (bench_sharded
// measures `trace_hook_ns_per_call`; tools/check_merge_budget.py gates it,
// same as the disabled fault-injection hook). Tracing is observation only:
// it never touches ProgXeStats/SchedulerStats counters or result order, so
// every equivalence suite is bit-identical with tracing on and off.
//
// Span taxonomy (keep docs/ARCHITECTURE.md's observability table in sync):
//   prepare   prepare.build + per-stage sub-spans (push_through, sigma,
//             partition, lookahead)
//   region    region.pick / region.pipeline / region.flush / region.discard
//   sched     sched.slice (args: query, pairs) + admit/done instants
//   shard     shard.pump / shard.merge / shard.release spans,
//             shard.retry_backoff / shard.abandon instants
//   cache     cache.hit / cache.miss instants
//   net       net.send / net.recv frame I/O spans,
//             net.wait_watermark — coordinator blocked on a pump reply
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/macros.h"
#include "common/status.h"

namespace progxe {

namespace trace_cats {
inline constexpr const char kPrepare[] = "prepare";
inline constexpr const char kRegion[] = "region";
inline constexpr const char kSched[] = "sched";
inline constexpr const char kShard[] = "shard";
inline constexpr const char kCache[] = "cache";
inline constexpr const char kNet[] = "net";
}  // namespace trace_cats

namespace internal_trace {

/// Armed/disarmed flag, read on every hook. Relaxed is sound: arming
/// happens-before the traced work in every supported usage (Start precedes
/// thread launch or is separated by the registry mutex), and a racy read
/// merely records or skips one boundary event.
extern std::atomic<bool> g_trace_active;

/// One recorded event. POD so ring slots recycle without destructor work.
struct TraceEvent {
  const char* name;
  const char* cat;
  uint64_t ts_ns;   ///< monotonic, relative to the session's Start()
  uint64_t dur_ns;  ///< 0 for instants
  char phase;       ///< 'X' complete span, 'i' instant
  uint8_t num_args;
  const char* arg_names[2];
  int64_t arg_vals[2];
};

/// Nanoseconds on the monotonic clock since Tracing::Start().
uint64_t NowNs();

/// Appends one event to the calling thread's ring buffer (registering the
/// buffer on first use). Only called with tracing active.
void Record(const TraceEvent& ev);

}  // namespace internal_trace

/// Process-wide trace session control. All methods are thread-safe; Start
/// and Stop are expected from a driver thread (tool main / test body).
class Tracing {
 public:
  /// Arms tracing: clears any previous session's buffers, resets the time
  /// origin and dropped-count, and sets the per-thread ring capacity
  /// (rounded up to a power of two, minimum 8).
  static void Start(size_t events_per_thread = size_t{1} << 16);

  /// Disarms tracing. Recorded events stay buffered for export.
  static void Stop();

  /// True between Start and Stop. The disabled path is one predicted
  /// branch on a relaxed atomic load.
  static bool active() {
    return PROGXE_PREDICT_FALSE(
        internal_trace::g_trace_active.load(std::memory_order_relaxed));
  }

  /// Events dropped (oldest-first ring overflow) since Start, summed over
  /// all thread buffers.
  static uint64_t dropped();

  /// Events currently buffered, summed over all thread buffers.
  static uint64_t buffered();

  /// Renders the buffered events as a Chrome trace_event JSON object
  /// ({"traceEvents": [...], ...}). Safe while tracing is still active
  /// (concurrent writers are excluded per-buffer).
  static void RenderJson(std::string* out);

  /// RenderJson to a file. Fails with kIoError if the file can't be
  /// written.
  static Status WriteJson(const std::string& path);
};

/// RAII complete-span recorder ("ph":"X"). Constructed disabled when
/// tracing is off: one predicted branch, nothing stored.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name) {
    if (PROGXE_PREDICT_TRUE(!Tracing::active())) {
      ev_.name = nullptr;
      return;
    }
    ev_.name = name;
    ev_.cat = cat;
    ev_.num_args = 0;
    ev_.ts_ns = internal_trace::NowNs();
  }

  /// Attaches a numeric argument (up to two; extras are dropped). No-op on
  /// a disabled span. `name` must outlive the trace session.
  void arg(const char* name, int64_t value) {
    if (PROGXE_PREDICT_TRUE(ev_.name == nullptr)) return;
    if (ev_.num_args < 2) {
      ev_.arg_names[ev_.num_args] = name;
      ev_.arg_vals[ev_.num_args] = value;
      ++ev_.num_args;
    }
  }

  ~TraceSpan() {
    if (PROGXE_PREDICT_TRUE(ev_.name == nullptr)) return;
    ev_.dur_ns = internal_trace::NowNs() - ev_.ts_ns;
    ev_.phase = 'X';
    internal_trace::Record(ev_);
  }

  PROGXE_DISALLOW_COPY_AND_ASSIGN(TraceSpan);

 private:
  internal_trace::TraceEvent ev_;
};

/// Records an instant event ("ph":"i"). Free when tracing is off.
inline void TraceInstant(const char* cat, const char* name) {
  if (PROGXE_PREDICT_TRUE(!Tracing::active())) return;
  internal_trace::TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = internal_trace::NowNs();
  ev.dur_ns = 0;
  ev.phase = 'i';
  ev.num_args = 0;
  internal_trace::Record(ev);
}

inline void TraceInstant(const char* cat, const char* name, const char* arg0,
                         int64_t val0) {
  if (PROGXE_PREDICT_TRUE(!Tracing::active())) return;
  internal_trace::TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = internal_trace::NowNs();
  ev.dur_ns = 0;
  ev.phase = 'i';
  ev.num_args = 1;
  ev.arg_names[0] = arg0;
  ev.arg_vals[0] = val0;
  internal_trace::Record(ev);
}

inline void TraceInstant(const char* cat, const char* name, const char* arg0,
                         int64_t val0, const char* arg1, int64_t val1) {
  if (PROGXE_PREDICT_TRUE(!Tracing::active())) return;
  internal_trace::TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts_ns = internal_trace::NowNs();
  ev.dur_ns = 0;
  ev.phase = 'i';
  ev.num_args = 2;
  ev.arg_names[0] = arg0;
  ev.arg_vals[0] = val0;
  ev.arg_names[1] = arg1;
  ev.arg_vals[1] = val1;
  internal_trace::Record(ev);
}

}  // namespace progxe
