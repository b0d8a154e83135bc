// Strict full-token numeric parsers for command-line flags and protocol
// fields. The whole token must be consumed and the value must fit the
// target type: "12x", "", "-3" for an unsigned target and "99999999999" for
// an int all fail, unlike atoi/atof, which return 0 or a prefix on garbage
// and would silently run a default or truncated workload.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace progxe {

namespace parse_internal {

template <typename T>
bool ParseFull(std::string_view s, T* out) {
  T value{};
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (s.empty() || ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace parse_internal

inline bool ParseU64(std::string_view s, uint64_t* out) {
  return parse_internal::ParseFull(s, out);
}

inline bool ParseI64(std::string_view s, int64_t* out) {
  return parse_internal::ParseFull(s, out);
}

inline bool ParseI32(std::string_view s, int* out) {
  return parse_internal::ParseFull(s, out);
}

/// Decimal or exponent notation; rejects out-of-range magnitudes, inf and
/// nan.
inline bool ParseF64(std::string_view s, double* out) {
  double value = 0.0;
  if (!parse_internal::ParseFull(s, &value) || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace progxe
