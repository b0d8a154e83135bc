#include "net/net_stats.h"

#include <algorithm>
#include <atomic>

namespace progxe {

namespace {

struct NetTotals {
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> bytes_received{0};
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> rtt_count{0};
  std::atomic<uint64_t> rtt_sum_us{0};
  std::atomic<uint64_t> circuits_opened{0};
  std::atomic<int64_t> open_circuits{0};
  std::atomic<uint64_t> rtt_us_log2[kLog2UsBuckets]{};
};

NetTotals& Totals() {
  static NetTotals* totals = new NetTotals();  // never destroyed
  return *totals;
}

}  // namespace

void NetRecordSend(uint64_t bytes) {
  NetTotals& t = Totals();
  t.bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
  t.frames_sent.fetch_add(1, std::memory_order_relaxed);
}

void NetRecordRecv(uint64_t bytes) {
  NetTotals& t = Totals();
  t.bytes_received.fetch_add(bytes, std::memory_order_relaxed);
  t.frames_received.fetch_add(1, std::memory_order_relaxed);
}

void NetRecordRtt(uint64_t us) {
  NetTotals& t = Totals();
  t.rtt_count.fetch_add(1, std::memory_order_relaxed);
  t.rtt_sum_us.fetch_add(us, std::memory_order_relaxed);
  t.rtt_us_log2[Log2UsBucket(us)].fetch_add(1, std::memory_order_relaxed);
}

void NetRecordCircuitOpened() {
  NetTotals& t = Totals();
  t.circuits_opened.fetch_add(1, std::memory_order_relaxed);
  t.open_circuits.fetch_add(1, std::memory_order_relaxed);
}

void NetRecordCircuitClosed() {
  Totals().open_circuits.fetch_sub(1, std::memory_order_relaxed);
}

NetStatsSnapshot SnapshotNetStats() {
  const NetTotals& t = Totals();
  NetStatsSnapshot s;
  s.bytes_sent = t.bytes_sent.load(std::memory_order_relaxed);
  s.bytes_received = t.bytes_received.load(std::memory_order_relaxed);
  s.frames_sent = t.frames_sent.load(std::memory_order_relaxed);
  s.frames_received = t.frames_received.load(std::memory_order_relaxed);
  s.rtt_count = t.rtt_count.load(std::memory_order_relaxed);
  s.rtt_sum_us =
      static_cast<double>(t.rtt_sum_us.load(std::memory_order_relaxed));
  s.circuits_opened = t.circuits_opened.load(std::memory_order_relaxed);
  s.open_circuits = static_cast<uint64_t>(std::max<int64_t>(
      0, t.open_circuits.load(std::memory_order_relaxed)));
  for (size_t i = 0; i < kLog2UsBuckets; ++i) {
    s.rtt_us_log2[i] = t.rtt_us_log2[i].load(std::memory_order_relaxed);
  }
  return s;
}

std::string NetStatsSnapshot::FormatFields() const {
  std::string out = FormatStatFields(kNetStatsFields, *this, "net_");
  AppendLog2UsSummary("net_rtt", rtt_us_log2, &out);
  return out;
}

}  // namespace progxe
