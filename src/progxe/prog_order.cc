#include "progxe/prog_order.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "progxe/cardinality.h"

namespace progxe {

ProgOrder::ProgOrder(std::vector<Region>* regions, ElGraph* el_graph,
                     OutputTable* table, CostModelParams cost_params,
                     std::vector<size_t> r_sizes, std::vector<size_t> t_sizes,
                     OrderingMode mode, uint64_t seed, ProgXeStats* stats)
    : regions_(regions),
      el_graph_(el_graph),
      table_(table),
      cost_params_(cost_params),
      r_sizes_(std::move(r_sizes)),
      t_sizes_(std::move(t_sizes)),
      mode_(mode),
      stats_(stats) {
  if (mode_ != OrderingMode::kProgOrder) {
    for (Region& region : *regions_) {
      if (region.Active()) static_order_.push_back(region.id);
    }
    if (mode_ == OrderingMode::kRandom) {
      Rng rng(seed);
      rng.Shuffle(&static_order_);
    }
    return;
  }

  in_queue_.assign(regions_->size(), 0);
  for (Region& region : *regions_) {
    if (!region.Active()) continue;
    // Static per-region estimates (Equations 1 and 3-7).
    const double n_a = static_cast<double>(r_sizes_[static_cast<size_t>(region.a)]);
    const double n_b = static_cast<double>(t_sizes_[static_cast<size_t>(region.b)]);
    region.cardinality_est = RegionCardinalityEstimate(
        cost_params_.sigma, n_a, n_b, cost_params_.dims);
    region.cost_est = RegionCost(cost_params_, n_a, n_b,
                                 static_cast<double>(region.BoxVolume()));
  }

  for (int32_t id : el_graph_->InitialRoots(*regions_)) {
    PushRegion(id);
  }
}

double ProgOrder::ComputeRank(Region& region) {
  region.prog_count = table_->ProgCount(region);
  const double volume = static_cast<double>(region.BoxVolume());
  const double benefit = (static_cast<double>(region.prog_count) / volume) *
                         region.cardinality_est;
  return benefit / region.cost_est;
}

void ProgOrder::PushRegion(int32_t id) {
  Region& region = (*regions_)[static_cast<size_t>(id)];
  if (!region.Active()) return;
  region.rank = ComputeRank(region);
  ++region.rank_version;
  in_queue_[static_cast<size_t>(id)] = 1;
  queue_.push(Entry{region.rank, region.rank_version, id});
}

int32_t ProgOrder::PopNext() {
  if (mode_ != OrderingMode::kProgOrder) {
    while (static_pos_ < static_order_.size()) {
      const int32_t id = static_order_[static_pos_++];
      if ((*regions_)[static_cast<size_t>(id)].Active()) return id;
    }
    return -1;
  }

  // Ranks go stale as regions complete (ProgCount can grow) or cells get
  // marked (ProgCount can shrink). Rather than rescanning every affected
  // region's box after each removal — quadratic in dense-overlap workloads —
  // ranks are refreshed lazily when a region reaches the top of the queue,
  // with a freshen budget per pick to bound worst-case churn.
  constexpr int kMaxFreshenPerPick = 64;
  int freshened = 0;
  for (;;) {
    while (!queue_.empty()) {
      Entry top = queue_.top();
      queue_.pop();
      Region& region = (*regions_)[static_cast<size_t>(top.id)];
      if (top.version != region.rank_version) continue;  // stale entry
      if (!region.Active()) continue;                    // discarded
      const double fresh_rank = ComputeRank(region);
      if (fresh_rank != region.rank) {
        region.rank = fresh_rank;
        ++region.rank_version;
        ++stats_->pq_reorderings;
        if (++freshened < kMaxFreshenPerPick && !queue_.empty() &&
            fresh_rank < queue_.top().rank) {
          // A queued region may now outrank this one; re-queue and retry.
          queue_.push(Entry{fresh_rank, region.rank_version, top.id});
          continue;
        }
      }
      in_queue_[static_cast<size_t>(top.id)] = 0;
      return top.id;
    }
    // Queue empty. Any active region left is part of a mutual-elimination
    // cycle in the EL-Graph; force-root them all once.
    if (cycle_fallback_done_) return -1;
    cycle_fallback_done_ = true;
    bool pushed = false;
    for (Region& region : *regions_) {
      if (region.Active() && in_queue_[static_cast<size_t>(region.id)] == 0) {
        PushRegion(region.id);
        pushed = true;
      }
    }
    if (!pushed) return -1;
  }
}

void ProgOrder::OnRegionRemoved(int32_t id,
                                const std::vector<CellIndex>& lowered) {
  if (mode_ != OrderingMode::kProgOrder) {
    return;
  }
  // Admit regions that became EL-Graph roots. Benefit refresh of queued
  // regions (Algorithm 1, line 13) happens lazily inside PopNext.
  el_graph_->OnRegionRemoved(id, lowered, &new_roots_);
  for (int32_t new_root : new_roots_) {
    PushRegion(new_root);
  }
}

}  // namespace progxe
