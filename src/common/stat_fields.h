// Field lists for stats snapshots, and the log2-microsecond latency
// histogram shared by the scheduler's slices and the transport's RTTs.
//
// Each snapshot struct (ProgXeStats, SchedulerStats, NetStatsSnapshot) is
// followed by one constexpr array of StatField rows — name, member,
// counter or gauge, help text — in declaration order. Everything that
// walks a snapshot loops over that array: ToString/FormatFields,
// Accumulate, the wire codec, the Prometheus writer and the tests. A new
// field is its declaration plus one row; the size static_assert next to
// each list fails until the row is there.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace progxe {

/// Prometheus semantics of a field: a counter never decreases over the
/// process's life and is exported with a `_total` suffix; a gauge is a
/// level that may go either way.
enum class StatKind : uint8_t { kCounter, kGauge };

/// One row of a field list. Exactly one of `count` and `real` is set.
template <typename S>
struct StatField {
  constexpr StatField(const char* n, uint64_t S::*m, StatKind k,
                      const char* h)
      : name(n), count(m), kind(k), help(h) {}
  constexpr StatField(const char* n, double S::*m, StatKind k, const char* h)
      : name(n), real(m), kind(k), help(h) {}

  const char* name;
  uint64_t S::*count = nullptr;
  double S::*real = nullptr;
  StatKind kind;
  const char* help;
};

/// `%.9g`: how every floating-point field value is printed.
std::string FormatStatReal(double value);

/// Appends ` <prefix><name>=<value>` (no leading space on an empty `out`).
void AppendStatField(std::string_view prefix, const char* name,
                     uint64_t value, std::string* out);
void AppendStatField(std::string_view prefix, const char* name, double value,
                     std::string* out);

/// Space-separated `<prefix><name>=<value>` rendering of every listed field.
template <typename S, size_t N>
std::string FormatStatFields(const StatField<S> (&fields)[N], const S& s,
                             std::string_view prefix = "") {
  std::string out;
  for (const StatField<S>& f : fields) {
    if (f.real != nullptr) {
      AppendStatField(prefix, f.name, s.*f.real, &out);
    } else {
      AppendStatField(prefix, f.name, s.*f.count, &out);
    }
  }
  return out;
}

/// Log2-microsecond latency histogram: bucket 0 counts latencies under
/// 1 us, bucket i (i >= 1) counts [2^(i-1), 2^i) us, and the last bucket
/// is open-ended from 2^17 us (~0.13 s) up.
inline constexpr size_t kLog2UsBuckets = 19;
using Log2UsHistogram = std::array<uint64_t, kLog2UsBuckets>;

/// Bucket of a latency in microseconds.
size_t Log2UsBucket(uint64_t us);

/// Nearest-rank q-quantile, q in [0, 1]: the exclusive upper edge (us) of
/// the smallest bucket whose cumulative count reaches max(1, ceil(q * n)).
/// A conservative readout at log2 resolution, except in the open-ended
/// last bucket, whose returned edge (2^18 us) understates slower entries.
/// Returns 0 when the histogram is empty.
uint64_t Log2UsQuantile(const Log2UsHistogram& h, double q);

/// Appends ` <name>_p50_us<X <name>_p99_us<Y <name>_us_log2=[b0,...,b18]`.
void AppendLog2UsSummary(std::string_view name, const Log2UsHistogram& h,
                         std::string* out);

}  // namespace progxe
