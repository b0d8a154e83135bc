#include "common/fault_injection.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/parse_number.h"

namespace progxe {
namespace {

/// splitmix64 finalizer: the one-shot mixer used wherever the codebase
/// needs a stateless hash (shard_planner.h uses the same constants).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashString(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, folded through Mix64
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

/// The per-call firing decision for probabilistic rules: a pure function of
/// (seed, site, instance, call number), so the schedule is reproducible
/// regardless of which thread asks.
bool Fires(uint64_t seed, uint64_t site_hash, int instance, uint64_t call,
           double probability) {
  if (probability >= 1.0) return true;
  if (probability <= 0.0) return false;
  const uint64_t h =
      Mix64(seed ^ site_hash ^ (static_cast<uint64_t>(instance) << 32) ^
            Mix64(call + 1));
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < probability;
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  std::string buf(s);  // strtod needs NUL termination
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size();
}

Status BadSpec(std::string_view what, std::string_view fragment) {
  return Status::InvalidArgument("fault spec: " + std::string(what) + " in '" +
                                 std::string(fragment) + "'");
}

Status ParseRule(std::string_view entry, FaultRule* rule) {
  const size_t colon = entry.find(':');
  std::string_view site = entry.substr(0, colon);
  if (site.empty()) return BadSpec("empty site", entry);
  rule->site = std::string(site);
  if (colon == std::string_view::npos) return Status::OK();

  std::string_view fields = entry.substr(colon + 1);
  while (!fields.empty()) {
    const size_t comma = fields.find(',');
    std::string_view field = fields.substr(0, comma);
    fields = comma == std::string_view::npos ? std::string_view()
                                             : fields.substr(comma + 1);
    const size_t eq = field.find('=');
    if (eq == std::string_view::npos) return BadSpec("field without '='", field);
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
    if (key == "p") {
      if (!ParseDouble(value, &rule->probability) || rule->probability < 0.0 ||
          rule->probability > 1.0) {
        return BadSpec("p must be a probability in [0,1]", field);
      }
    } else if (key == "max") {
      if (!ParseI64(value, &rule->max_fires) || rule->max_fires < 0) {
        return BadSpec("max must be a non-negative integer", field);
      }
    } else if (key == "skip") {
      if (!ParseI64(value, &rule->skip) || rule->skip < 0) {
        return BadSpec("skip must be a non-negative integer", field);
      }
    } else if (key == "shard") {
      int64_t v = 0;
      if (!ParseI64(value, &v) || v < 0 || v > INT32_MAX) {
        return BadSpec("shard must be a non-negative integer", field);
      }
      rule->instance = static_cast<int>(v);
    } else if (key == "code") {
      StatusCode code = StatusCode::kOk;
      if (!StatusCodeFromName(value, &code) || code == StatusCode::kOk) {
        return BadSpec("unknown error code", field);
      }
      rule->code = code;
    } else {
      return BadSpec("unknown field", field);
    }
  }
  return Status::OK();
}

}  // namespace

std::string FaultRule::ToString() const {
  std::ostringstream os;
  os << site << ":p=" << probability;
  if (max_fires >= 0) os << ",max=" << max_fires;
  if (skip > 0) os << ",skip=" << skip;
  if (instance >= 0) os << ",shard=" << instance;
  if (code != StatusCode::kUnavailable) os << ",code=" << StatusCodeToken(code);
  return os.str();
}

FaultInjector::FaultInjector(std::vector<FaultRule> rules, uint64_t seed)
    : rules_(std::move(rules)),
      counters_(new Counters[rules_.size()]),
      seed_(seed) {}

Result<std::shared_ptr<FaultInjector>> FaultInjector::Parse(
    std::string_view spec, uint64_t seed) {
  std::vector<FaultRule> rules;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const size_t semi = rest.find(';');
    std::string_view entry = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view()
                                          : rest.substr(semi + 1);
    if (entry.empty()) continue;  // tolerate "a;;b" and trailing ';'
    FaultRule rule;
    PROGXE_RETURN_NOT_OK(ParseRule(entry, &rule));
    rules.push_back(std::move(rule));
  }
  if (rules.empty()) {
    return Status::InvalidArgument("fault spec: no rules in '" +
                                   std::string(spec) + "'");
  }
  return std::shared_ptr<FaultInjector>(
      new FaultInjector(std::move(rules), seed));
}

FaultInjector* FaultInjector::FromEnv() {
  // Read and parse the environment exactly once per process; the injector
  // (and its fire budgets) is deliberately shared across every stream and
  // scheduler created afterwards.
  static FaultInjector* const global = []() -> FaultInjector* {
    const char* spec = std::getenv("PROGXE_FAULT_SITES");
    if (spec == nullptr || spec[0] == '\0') return nullptr;
    uint64_t seed = 0;
    if (const char* s = std::getenv("PROGXE_FAULT_SEED")) {
      if (!ParseU64(s, &seed)) {
        std::fprintf(stderr,
                     "fatal: PROGXE_FAULT_SEED: '%s' is not an unsigned "
                     "64-bit integer\n",
                     s);
        std::abort();
      }
    }
    auto parsed = Parse(spec, seed);
    if (!parsed.ok()) {
      // A soak run with a typo'd spec must fail the run, not silently test
      // the fault-free path.
      std::fprintf(stderr, "fatal: PROGXE_FAULT_SITES: %s\n",
                   parsed.status().ToString().c_str());
      std::abort();
    }
    std::fprintf(stderr, "progxe: fault injection armed (seed=%llu): %s\n",
                 static_cast<unsigned long long>(seed),
                 (*parsed)->ToString().c_str());
    // Leak one injector per process: FromEnv callers keep raw pointers.
    return new FaultInjector(std::move(**parsed));
  }();
  return global;
}

Status FaultInjector::Check(std::string_view site, int instance) {
  for (size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& rule = rules_[i];
    if (rule.site != site) continue;
    if (rule.instance >= 0 && rule.instance != instance) continue;
    Counters& counters = counters_[i];
    uint64_t call = 0;
    {
      std::lock_guard<std::mutex> lock(counters.mu);
      call = counters.calls[instance]++;
    }
    if (static_cast<int64_t>(call) < rule.skip) continue;
    if (!Fires(seed_, HashString(rule.site), instance, call,
               rule.probability)) {
      continue;
    }
    if (rule.max_fires >= 0) {
      // Reserve a fire slot; losing the race past the budget means no fault.
      if (counters.fired.fetch_add(1, std::memory_order_relaxed) >=
          rule.max_fires) {
        continue;
      }
    } else {
      counters.fired.fetch_add(1, std::memory_order_relaxed);
    }
    return Status(rule.code, "injected fault at " + rule.site + "#" +
                                 std::to_string(instance) + " (call " +
                                 std::to_string(call) + ")");
  }
  return Status::OK();
}

int64_t FaultInjector::fires() const {
  int64_t total = 0;
  for (size_t i = 0; i < rules_.size(); ++i) {
    int64_t fired = counters_[i].fired.load(std::memory_order_relaxed);
    // `fired` may overshoot max_fires by racing reservations; report the
    // number of faults actually delivered.
    if (rules_[i].max_fires >= 0) fired = std::min(fired, rules_[i].max_fires);
    total += fired;
  }
  return total;
}

std::string FaultInjector::ToString() const {
  std::string out;
  for (const FaultRule& rule : rules_) {
    if (!out.empty()) out += ';';
    out += rule.ToString();
  }
  return out;
}

}  // namespace progxe
