#include "trace_fold.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string_view>

namespace perfbench {
namespace {

// Reads the value after `"key":` inside `obj`; false when absent.
bool FindField(std::string_view obj, std::string_view key,
               std::string_view* value) {
  std::string pattern = "\"";
  pattern.append(key);
  pattern.append("\":");
  const size_t at = obj.find(pattern);
  if (at == std::string_view::npos) return false;
  std::string_view rest = obj.substr(at + pattern.size());
  if (!rest.empty() && rest.front() == '"') {
    const size_t close = rest.find('"', 1);
    if (close == std::string_view::npos) return false;
    *value = rest.substr(1, close - 1);
    return true;
  }
  const size_t end = rest.find_first_of(",}");
  *value = rest.substr(0, end);
  return true;
}

// Microseconds with three decimals, as RenderJson prints them, to ns.
int64_t MicrosToNs(std::string_view text) {
  return std::llround(std::strtod(std::string(text).c_str(), nullptr) * 1e3);
}

}  // namespace

std::vector<TraceEvent> ParseTrace(const std::string& json) {
  static constexpr std::string_view kStart = "{\"name\":\"";
  std::vector<TraceEvent> events;
  const std::string_view doc(json);
  size_t at = doc.find(kStart);
  while (at != std::string_view::npos) {
    const size_t next = doc.find(kStart, at + 1);
    const std::string_view obj = doc.substr(
        at, next == std::string_view::npos ? std::string_view::npos
                                           : next - at);
    at = next;
    std::string_view name, phase, ts, dur, tid, query;
    if (!FindField(obj, "name", &name) || !FindField(obj, "ph", &phase) ||
        !FindField(obj, "ts", &ts) || !FindField(obj, "tid", &tid) ||
        phase.size() != 1 || (phase[0] != 'X' && phase[0] != 'i')) {
      continue;
    }
    TraceEvent ev;
    ev.name.assign(name);
    ev.phase = phase[0];
    ev.tid = static_cast<uint32_t>(std::strtoul(std::string(tid).c_str(),
                                                nullptr, 10));
    ev.ts_ns = MicrosToNs(ts);
    if (ev.phase == 'X' && FindField(obj, "dur", &dur)) {
      ev.dur_ns = MicrosToNs(dur);
    }
    if (FindField(obj, "query", &query)) {
      ev.query = std::strtoll(std::string(query).c_str(), nullptr, 10);
    }
    events.push_back(std::move(ev));
  }
  return events;
}

void TraceFold::Add(const std::vector<TraceEvent>& events) {
  std::vector<const TraceEvent*> spans;
  std::set<uint32_t> drivers;
  for (const TraceEvent& ev : events) {
    if (ev.query >= 0) tagged_[ev.name][ev.query] = ev.ts_ns;
    if (ev.phase == 'X') spans.push_back(&ev);
    if (ev.name.rfind("bench.", 0) == 0) drivers.insert(ev.tid);
  }
  // Per thread, in start order with enclosing spans first: a stack of
  // open spans gives each span its innermost enclosing parent.
  std::sort(spans.begin(), spans.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->tid != b->tid) return a->tid < b->tid;
              if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
              return a->dur_ns > b->dur_ns;
            });
  std::vector<int64_t> child_ns(spans.size(), 0);
  std::vector<size_t> open;
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceEvent& span = *spans[i];
    while (!open.empty()) {
      const TraceEvent& top = *spans[open.back()];
      if (top.tid == span.tid && span.ts_ns < top.ts_ns + top.dur_ns) break;
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += span.dur_ns;
    open.push_back(i);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t self = spans[i]->dur_ns - child_ns[i];
    self_ns_[spans[i]->name] += self;
    if (drivers.count(spans[i]->tid) > 0) {
      driver_self_ns_[spans[i]->name] += self;
    }
    inclusive_ns_[spans[i]->name] += spans[i]->dur_ns;
  }
}

double TraceFold::SelfSeconds(const std::string& name,
                              bool driver_only) const {
  const auto& totals = driver_only ? driver_self_ns_ : self_ns_;
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : static_cast<double>(it->second) * 1e-9;
}

double TraceFold::InclusiveSeconds(const std::string& name) const {
  const auto it = inclusive_ns_.find(name);
  return it == inclusive_ns_.end() ? 0.0
                                   : static_cast<double>(it->second) * 1e-9;
}

const std::map<int64_t, int64_t>& TraceFold::Tagged(
    const std::string& name) const {
  static const std::map<int64_t, int64_t> kEmpty;
  const auto it = tagged_.find(name);
  return it == tagged_.end() ? kEmpty : it->second;
}

}  // namespace perfbench
