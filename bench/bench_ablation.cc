// Ablation study for the mechanisms of Sections III-A and III-B (the
// machinery illustrated by Figures 3, 8 and 9 of the paper):
//
//   1. Output-grid resolution: the comparable-slice bound says a new tuple
//      fights at most k^d - (k-1)^d of the k^d partitions; finer grids cut
//      dominance comparisons until bookkeeping overhead wins. Each row
//      reports both sides of that trade (dominance comparisons and region
//      coverage cells walked); the `auto` row is the engine's own pick.
//   2. Input-grid resolution: more input partitions => more, tighter
//      regions => more look-ahead pruning and fewer join pairs, at the cost
//      of more region bookkeeping.
//   3. The analytic slice bound itself, tabulated.
#include <cmath>
#include <vector>

#include "bench_common.h"
#include "progxe/session.h"

using namespace progxe;
using namespace progxe::bench;

namespace {

Workload StandardWorkload(const BenchArgs& args, Distribution dist) {
  WorkloadParams params;
  params.distribution = dist;
  params.cardinality = args.ResolveN(6000);
  params.dims = args.ResolveDims(4);
  params.sigma = 0.001;
  params.seed = args.seed;
  return MustMakeWorkload(params);
}

void PrintStatsRow(const char* label, const ProgXeStats& s, double secs) {
  std::printf("  %-14s cmps=%-11llu pairs=%-9llu pruned=%-5zu marked=%-6zu "
              "skip=%-5zu time=%.4fs\n",
              label,
              static_cast<unsigned long long>(s.dominance_comparisons),
              static_cast<unsigned long long>(s.join_pairs_generated),
              s.regions_pruned_lookahead, s.cells_marked_lookahead,
              s.partition_pairs_skipped, secs);
}

/// One drained session: its stats, plus the two numbers stats() does not
/// carry that the output-grid sweep trades against comparisons — the
/// coverage bookkeeping work and the resolved cells per dimension.
struct AblationRun {
  ProgXeStats stats;
  double secs = 0.0;
  uint64_t coverage_cells = 0;
  int output_cells = 0;
};

AblationRun RunWith(const Workload& workload, const ProgXeOptions& options) {
  Stopwatch watch;
  auto session = ProgXeSession::Open(workload.query(), options);
  if (!session.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 session.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<ResultTuple> batch;
  while ((*session)->NextBatch(0, &batch) > 0) {
  }
  AblationRun run;
  run.secs = watch.ElapsedSeconds();
  if (!(*session)->last_status().ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 (*session)->last_status().ToString().c_str());
    std::exit(1);
  }
  run.stats = (*session)->stats();
  run.coverage_cells = (*session)->coverage_cells_walked();
  run.output_cells = (*session)->options().output_cells_per_dim;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv);

  std::printf("=== Ablation: ProgXe mechanism contributions ===\n\n");

  // --- 1. Output grid resolution (comparable-slice savings) ---------------
  std::printf("--- output_cells_per_dim sweep (anticorrelated) ---\n");
  {
    Workload w = StandardWorkload(args, Distribution::kAntiCorrelated);
    for (int cells : {1, 2, 4, 8, 16, 0}) {
      ProgXeOptions options;
      options.output_cells_per_dim = cells;  // 0 = auto
      const AblationRun run = RunWith(w, options);
      char label[32];
      if (cells == 0) {
        std::snprintf(label, sizeof(label), "k=auto(%d)", run.output_cells);
      } else {
        std::snprintf(label, sizeof(label), "k=%d", cells);
      }
      std::printf(
          "  %-14s cmps=%-11llu cov_cells=%-11llu pairs=%-9llu time=%.4fs\n",
          label,
          static_cast<unsigned long long>(run.stats.dominance_comparisons),
          static_cast<unsigned long long>(run.coverage_cells),
          static_cast<unsigned long long>(run.stats.join_pairs_generated),
          run.secs);
    }
  }

  // --- 2. Input grid resolution (look-ahead pruning power) ----------------
  std::printf("\n--- input_cells_per_dim sweep (correlated) ---\n");
  {
    Workload w = StandardWorkload(args, Distribution::kCorrelated);
    for (int cells : {1, 2, 3, 4}) {
      ProgXeOptions options;
      options.input_cells_per_dim = cells;
      const AblationRun run = RunWith(w, options);
      char label[32];
      std::snprintf(label, sizeof(label), "q=%d", cells);
      PrintStatsRow(label, run.stats, run.secs);
    }
  }

  // --- 3. The analytic comparable-slice bound (Section III-B) -------------
  std::printf("\n--- slice bound: k^d - (k-1)^d of k^d partitions ---\n");
  std::printf("  %-6s %-4s %-14s %-14s %-8s\n", "k", "d", "k^d",
              "slice cells", "fraction");
  for (int d : {2, 3, 4, 5}) {
    for (int k : {4, 8, 16}) {
      const double total = std::pow(k, d);
      const double slice = total - std::pow(k - 1, d);
      std::printf("  %-6d %-4d %-14.0f %-14.0f %-8.4f\n", k, d, total, slice,
                  slice / total);
    }
  }

  std::printf("\n--- ordering ablation is Figure 10; see "
              "bench_fig10_progressiveness ---\n");
  return 0;
}
