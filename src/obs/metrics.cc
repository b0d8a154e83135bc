#include "obs/metrics.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/fault_injection.h"
#include "obs/trace.h"
#include "progxe/config.h"
#include "progxe/stream.h"
#include "service/scheduler.h"

namespace progxe {

namespace {

void AppendDouble(double v, std::string* out) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out->append(buf);
}

}  // namespace

void HistogramMetric::Observe(double v) {
  size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

void HistogramMetric::SetCounts(const std::vector<uint64_t>& counts,
                                double sum) {
  const size_t slots = bounds_.size() + 1;
  for (size_t i = 0; i < slots; ++i) {
    buckets_[i].store(i < counts.size() ? counts[i] : 0,
                      std::memory_order_relaxed);
  }
  sum_.store(sum, std::memory_order_relaxed);
}

uint64_t HistogramMetric::count() const {
  uint64_t total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    total += buckets_[i].load(std::memory_order_relaxed);
  }
  return total;
}

HistogramMetric::HistogramMetric(std::string name, std::string help,
                                 std::vector<double> bounds)
    : name_(std::move(name)),
      help_(std::move(help)),
      bounds_(std::move(bounds)),
      buckets_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

struct MetricsRegistry::Entry {
  MetricType type;
  std::unique_ptr<Metric> scalar;        // counter / gauge
  std::unique_ptr<HistogramMetric> histogram;
  const std::string& name() const {
    return scalar != nullptr ? scalar->name_ : histogram->name_;
  }
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

Metric* MetricsRegistry::GetCounter(const std::string& name,
                                    const std::string& help) {
  std::lock_guard<std::mutex> lock(mtx_);
  for (const auto& e : entries_) {
    if (e->name() == name) {
      if (e->type != MetricType::kCounter) {
        std::fprintf(stderr, "metric %s re-registered with a different type\n",
                     name.c_str());
        std::abort();
      }
      return e->scalar.get();
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->type = MetricType::kCounter;
  entry->scalar.reset(new Metric(name, help, MetricType::kCounter));
  Metric* out = entry->scalar.get();
  entries_.push_back(std::move(entry));
  return out;
}

Metric* MetricsRegistry::GetGauge(const std::string& name,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mtx_);
  for (const auto& e : entries_) {
    if (e->name() == name) {
      if (e->type != MetricType::kGauge) {
        std::fprintf(stderr, "metric %s re-registered with a different type\n",
                     name.c_str());
        std::abort();
      }
      return e->scalar.get();
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->type = MetricType::kGauge;
  entry->scalar.reset(new Metric(name, help, MetricType::kGauge));
  Metric* out = entry->scalar.get();
  entries_.push_back(std::move(entry));
  return out;
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name,
                                               const std::string& help,
                                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mtx_);
  for (const auto& e : entries_) {
    if (e->name() == name) {
      if (e->type != MetricType::kHistogram) {
        std::fprintf(stderr, "metric %s re-registered with a different type\n",
                     name.c_str());
        std::abort();
      }
      return e->histogram.get();
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->type = MetricType::kHistogram;
  entry->histogram.reset(
      new HistogramMetric(name, help, std::move(bounds)));
  HistogramMetric* out = entry->histogram.get();
  entries_.push_back(std::move(entry));
  return out;
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mtx_);
  return entries_.size();
}

void MetricsRegistry::RenderPrometheus(std::string* out) const {
  std::lock_guard<std::mutex> lock(mtx_);
  for (const auto& e : entries_) {
    const std::string& name = e->name();
    const std::string& help =
        e->scalar != nullptr ? e->scalar->help_ : e->histogram->help_;
    out->append("# HELP ").append(name).append(" ").append(help).append("\n");
    out->append("# TYPE ").append(name).append(" ");
    switch (e->type) {
      case MetricType::kCounter:
        out->append("counter\n");
        break;
      case MetricType::kGauge:
        out->append("gauge\n");
        break;
      case MetricType::kHistogram:
        out->append("histogram\n");
        break;
    }
    if (e->type == MetricType::kHistogram) {
      const HistogramMetric& h = *e->histogram;
      uint64_t cumulative = 0;
      char buf[64];
      for (size_t i = 0; i <= h.bounds_.size(); ++i) {
        cumulative += h.buckets_[i].load(std::memory_order_relaxed);
        out->append(name).append("_bucket{le=\"");
        if (i < h.bounds_.size()) {
          AppendDouble(h.bounds_[i], out);
        } else {
          out->append("+Inf");
        }
        std::snprintf(buf, sizeof(buf), "\"} %llu\n",
                      static_cast<unsigned long long>(cumulative));
        out->append(buf);
      }
      out->append(name).append("_sum ");
      AppendDouble(h.sum_.load(std::memory_order_relaxed), out);
      out->push_back('\n');
      out->append(name).append("_count ");
      std::snprintf(buf, sizeof(buf), "%llu\n",
                    static_cast<unsigned long long>(cumulative));
      out->append(buf);
    } else {
      out->append(name).append(" ");
      AppendDouble(e->scalar->value(), out);
      out->push_back('\n');
    }
  }
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* reg = new MetricsRegistry();  // process lifetime
  return *reg;
}

void FoldProgXeStats(const ProgXeStats& s, MetricsRegistry* reg) {
  struct Row {
    const char* name;
    const char* help;
    double value;
  };
  const Row rows[] = {
      {"progxe_executor_r_rows", "Left-source rows of folded runs",
       static_cast<double>(s.r_rows)},
      {"progxe_executor_t_rows", "Right-source rows of folded runs",
       static_cast<double>(s.t_rows)},
      {"progxe_executor_regions_created_total",
       "Output regions created by the look-ahead phase",
       static_cast<double>(s.regions_created)},
      {"progxe_executor_regions_processed_total",
       "Regions fully joined by the region loop",
       static_cast<double>(s.regions_processed)},
      {"progxe_executor_regions_discarded_total",
       "Regions discarded at runtime, by seed, or pruned by look-ahead",
       static_cast<double>(s.regions_discarded_runtime +
                           s.regions_discarded_seed +
                           s.regions_pruned_lookahead)},
      {"progxe_executor_join_pairs_total",
       "Join pairs expanded through the tuple pipeline",
       static_cast<double>(s.join_pairs_generated)},
      {"progxe_executor_dominance_comparisons_total",
       "Point dominance comparisons performed",
       static_cast<double>(s.dominance_comparisons)},
      {"progxe_executor_tuples_dominated_on_insert_total",
       "Tuples rejected at insert by an existing dominator",
       static_cast<double>(s.tuples_dominated_on_insert)},
      {"progxe_executor_tuples_evicted_total",
       "Resident tuples evicted by a later dominator",
       static_cast<double>(s.tuples_evicted)},
      {"progxe_executor_results_emitted_total",
       "Final skyline results emitted",
       static_cast<double>(s.results_emitted)},
      {"progxe_executor_results_emitted_early_total",
       "Results emitted before the last region finished",
       static_cast<double>(s.results_emitted_early)},
      {"progxe_executor_cells_flushed_total",
       "Output cells flushed as final by the progressive flush rule",
       static_cast<double>(s.cells_flushed)},
  };
  for (const Row& row : rows) {
    reg->GetCounter(row.name, row.help)->Set(row.value);
  }
}

void FoldSchedulerStats(const SchedulerStats& s, MetricsRegistry* reg) {
  reg->GetGauge("progxe_scheduler_queued", "Queries waiting for admission")
      ->Set(static_cast<double>(s.queued));
  reg->GetGauge("progxe_scheduler_running", "Admitted queries holding a slot")
      ->Set(static_cast<double>(s.running));
  struct Row {
    const char* name;
    const char* help;
    double value;
  };
  const Row rows[] = {
      {"progxe_scheduler_submitted_total", "Accepted Submit calls",
       static_cast<double>(s.submitted)},
      {"progxe_scheduler_finished_total", "Queries ended kFinished",
       static_cast<double>(s.finished)},
      {"progxe_scheduler_cancelled_total", "Queries ended kCancelled",
       static_cast<double>(s.cancelled)},
      {"progxe_scheduler_failed_total", "Queries ended kFailed",
       static_cast<double>(s.failed)},
      {"progxe_scheduler_deadline_exceeded_total",
       "Queries ended kDeadlineExceeded",
       static_cast<double>(s.deadline_exceeded)},
      {"progxe_scheduler_partial_total", "Queries ended kPartial",
       static_cast<double>(s.partial)},
      {"progxe_scheduler_slices_total", "NextBatch slices served",
       static_cast<double>(s.slices)},
      {"progxe_scheduler_sliced_pairs_total",
       "Join pairs processed across slices",
       static_cast<double>(s.sliced_pairs)},
      {"progxe_scheduler_batches_total", "Non-empty OnBatch deliveries",
       static_cast<double>(s.batches)},
      {"progxe_scheduler_results_total", "Result tuples delivered to sinks",
       static_cast<double>(s.results)},
      {"progxe_shard_retries_total",
       "Shard re-opens across terminal queries",
       static_cast<double>(s.shard_retries)},
      {"progxe_shard_abandoned_total",
       "Shards dropped after retry exhaustion across terminal queries",
       static_cast<double>(s.shards_abandoned)},
      {"progxe_prepare_cache_hits_total",
       "Stream opens that reused cached prepared state",
       static_cast<double>(s.prepare_hits)},
      {"progxe_prepare_cache_misses_total",
       "Stream opens that built prepared state anew",
       static_cast<double>(s.prepare_misses)},
      {"progxe_prepare_cache_evictions_total",
       "Prepared-state entries LRU-evicted past a budget",
       static_cast<double>(s.prepare_evictions)},
  };
  for (const Row& row : rows) {
    reg->GetCounter(row.name, row.help)->Set(row.value);
  }
  reg->GetGauge("progxe_prepare_cache_entries",
                "Prepared-state cache entries resident now")
      ->Set(static_cast<double>(s.prepare_cache_entries));
  reg->GetGauge("progxe_prepare_cache_bytes",
                "Approximate prepared-state cache bytes resident now")
      ->Set(static_cast<double>(s.prepare_cache_bytes));

  // The scheduler's log2-µs slice-latency histogram, re-based to seconds:
  // bucket 0 is < 1 µs, bucket i covers [2^(i-1), 2^i) µs, the last bucket
  // is open-ended and maps onto +Inf.
  std::vector<double> bounds;
  bounds.reserve(SchedulerStats::kSliceLatencyBuckets - 1);
  double approx_sum = 0.0;
  std::vector<uint64_t> counts(SchedulerStats::kSliceLatencyBuckets, 0);
  for (size_t i = 0; i < SchedulerStats::kSliceLatencyBuckets; ++i) {
    counts[i] = s.slice_latency_us_log2[i];
    const double upper_us =
        i + 1 < SchedulerStats::kSliceLatencyBuckets
            ? static_cast<double>(uint64_t{1} << i)
            : static_cast<double>(uint64_t{1}
                                  << (SchedulerStats::kSliceLatencyBuckets - 1));
    if (i + 1 < SchedulerStats::kSliceLatencyBuckets) {
      bounds.push_back(upper_us * 1e-6);
    }
    approx_sum += static_cast<double>(counts[i]) * upper_us * 1e-6;
  }
  HistogramMetric* h = reg->GetHistogram(
      "progxe_scheduler_slice_latency_seconds",
      "Wall-clock latency of served NextBatch slices (log2 buckets; sum is "
      "an upper-edge approximation)",
      std::move(bounds));
  h->SetCounts(counts, approx_sum);
}

void FoldShardCoverage(const ShardCoverage& c, MetricsRegistry* reg) {
  reg->GetGauge("progxe_shard_coverage_shards",
                "Sub-streams planned by the most recent folded stream")
      ->Set(static_cast<double>(c.shards));
  reg->GetGauge("progxe_shard_coverage_completed",
                "Shards that delivered everything")
      ->Set(static_cast<double>(c.completed));
  reg->GetGauge("progxe_shard_coverage_abandoned",
                "Shards dropped after retry exhaustion")
      ->Set(static_cast<double>(c.abandoned));
  reg->GetCounter("progxe_shard_coverage_retries_total",
                  "Shard re-opens over the folded stream's life")
      ->Set(static_cast<double>(c.retries));
}

void FoldObservability(MetricsRegistry* reg) {
  reg->GetCounter("progxe_trace_dropped_events_total",
                  "Trace events dropped to ring-buffer overflow")
      ->Set(static_cast<double>(Tracing::dropped()));
  reg->GetGauge("progxe_trace_buffered_events",
                "Trace events currently buffered across threads")
      ->Set(static_cast<double>(Tracing::buffered()));
  FaultInjector* env = FaultInjector::FromEnv();
  reg->GetCounter("progxe_fault_fires_total",
                  "Faults fired by the ambient PROGXE_FAULT_SITES injector")
      ->Set(env != nullptr ? static_cast<double>(env->fires()) : 0.0);
}

}  // namespace progxe
