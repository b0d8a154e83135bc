#include "common/stat_fields.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace progxe {

namespace {

void AppendName(std::string_view prefix, const char* name, std::string* out) {
  if (!out->empty()) out->push_back(' ');
  out->append(prefix).append(name).push_back('=');
}

}  // namespace

void AppendStatField(std::string_view prefix, const char* name,
                     uint64_t value, std::string* out) {
  AppendName(prefix, name, out);
  out->append(std::to_string(value));
}

std::string FormatStatReal(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

void AppendStatField(std::string_view prefix, const char* name, double value,
                     std::string* out) {
  AppendName(prefix, name, out);
  out->append(FormatStatReal(value));
}

size_t Log2UsBucket(uint64_t us) {
  size_t bucket = 0;
  while (us != 0 && bucket + 1 < kLog2UsBuckets) {
    us >>= 1;
    ++bucket;
  }
  return bucket;
}

uint64_t Log2UsQuantile(const Log2UsHistogram& h, double q) {
  uint64_t total = 0;
  for (uint64_t c : h) total += c;
  if (total == 0) return 0;
  q = std::fmin(std::fmax(q, 0.0), 1.0);
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t seen = 0;
  for (size_t b = 0; b < kLog2UsBuckets; ++b) {
    seen += h[b];
    if (seen >= rank) return uint64_t{1} << b;
  }
  return uint64_t{1} << (kLog2UsBuckets - 1);
}

void AppendLog2UsSummary(std::string_view name, const Log2UsHistogram& h,
                         std::string* out) {
  for (const auto& [suffix, q] : {std::pair{"_p50_us<", 0.5},
                                  std::pair{"_p99_us<", 0.99}}) {
    out->append(" ").append(name).append(suffix);
    out->append(std::to_string(Log2UsQuantile(h, q)));
  }
  out->append(" ").append(name).append("_us_log2=[");
  for (size_t b = 0; b < kLog2UsBuckets; ++b) {
    if (b > 0) out->push_back(',');
    out->append(std::to_string(h[b]));
  }
  out->push_back(']');
}

}  // namespace progxe
