// google-benchmark micro-benchmarks for the library's building blocks:
// dominance tests, skyline algorithms, grid geometry, joins, the prepare
// phase and the OutputTable insert path.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "grid/grid_geometry.h"
#include "harness/workload.h"
#include "join/key_index.h"
#include "mapping/canonical.h"
#include "prefs/dominance.h"
#include "progxe/output_table.h"
#include "progxe/prepare.h"
#include "skyline/skyline.h"

namespace progxe {
namespace {

std::vector<double> RandomPoints(size_t n, int d, Distribution dist,
                                 uint64_t seed = 1) {
  GeneratorOptions opts;
  opts.distribution = dist;
  opts.cardinality = n;
  opts.num_attributes = d;
  opts.seed = seed;
  Relation rel = GenerateRelation(opts).MoveValue();
  std::vector<double> flat;
  flat.reserve(n * static_cast<size_t>(d));
  for (RowId i = 0; i < rel.size(); ++i) {
    auto span = rel.attrs(i);
    flat.insert(flat.end(), span.begin(), span.end());
  }
  return flat;
}

void BM_DominatesMin(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  std::vector<double> pts = RandomPoints(1024, d, Distribution::kIndependent);
  size_t i = 0;
  for (auto _ : state) {
    const double* a = pts.data() + (i % 1000) * static_cast<size_t>(d);
    const double* b = pts.data() + ((i + 13) % 1000) * static_cast<size_t>(d);
    benchmark::DoNotOptimize(DominatesMin(a, b, d));
    ++i;
  }
}
BENCHMARK(BM_DominatesMin)->Arg(2)->Arg(4)->Arg(8);

void BM_SkylineBNL(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto dist = static_cast<Distribution>(state.range(1));
  std::vector<double> pts = RandomPoints(n, 4, dist);
  PointView view{pts.data(), n, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(SkylineBNL(view));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SkylineBNL)
    ->Args({2000, static_cast<int>(Distribution::kCorrelated)})
    ->Args({2000, static_cast<int>(Distribution::kIndependent)})
    ->Args({2000, static_cast<int>(Distribution::kAntiCorrelated)});

void BM_SkylineSFS(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto dist = static_cast<Distribution>(state.range(1));
  std::vector<double> pts = RandomPoints(n, 4, dist);
  PointView view{pts.data(), n, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(SkylineSFS(view));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SkylineSFS)
    ->Args({2000, static_cast<int>(Distribution::kCorrelated)})
    ->Args({2000, static_cast<int>(Distribution::kIndependent)})
    ->Args({2000, static_cast<int>(Distribution::kAntiCorrelated)});

void BM_GridCoordsOf(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  GridGeometry grid(std::vector<Interval>(static_cast<size_t>(d),
                                          Interval(0, 100)),
                    12);
  std::vector<double> pts = RandomPoints(1024, d, Distribution::kIndependent);
  std::vector<CellCoord> coords(static_cast<size_t>(d));
  size_t i = 0;
  for (auto _ : state) {
    grid.CoordsOf(pts.data() + (i % 1000) * static_cast<size_t>(d),
                  coords.data());
    benchmark::DoNotOptimize(grid.IndexOf(coords.data()));
    ++i;
  }
}
BENCHMARK(BM_GridCoordsOf)->Arg(2)->Arg(4)->Arg(5);

// Builds both sides' key runs and merge-joins them, the way JF-SL joins.
void BM_KeyIndexJoin(benchmark::State& state) {
  const double sigma = 1.0 / static_cast<double>(state.range(0));
  GeneratorOptions opts;
  opts.cardinality = 5000;
  opts.num_attributes = 2;
  opts.join_selectivity = sigma;
  opts.seed = 1;
  Relation r = GenerateRelation(opts).MoveValue();
  opts.seed = 2;
  Relation t = GenerateRelation(opts).MoveValue();
  for (auto _ : state) {
    const size_t count =
        JoinIndexes(KeyIndex(r), KeyIndex(t), [](RowId, RowId) {});
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_KeyIndexJoin)->Arg(10)->Arg(1000);

// One cold prepare (key sorts, sigma, contribution tables, input grids,
// look-ahead) of an anti 20000 d=4 sigma=0.001 input with default options:
// the fixed cost ahead of a prepare-cache miss's first result.
void BM_BuildPreparedInputs(benchmark::State& state) {
  WorkloadParams params;
  params.distribution = Distribution::kAntiCorrelated;
  params.cardinality = 20000;
  params.dims = 4;
  params.sigma = 0.001;
  params.seed = 1;
  const Workload workload = Workload::Make(params).MoveValue();
  for (auto _ : state) {
    PreparedInputs inputs;
    const Status status = BuildPreparedInputs(
        workload.query(), ProgXeOptions(), /*own_sources=*/false, &inputs);
    benchmark::DoNotOptimize(status.ok());
    benchmark::DoNotOptimize(inputs.lookahead.regions.data());
  }
}
BENCHMARK(BM_BuildPreparedInputs);

void BM_OutputTableInsert(benchmark::State& state) {
  const int d = 4;
  std::vector<double> pts =
      RandomPoints(20000, d, Distribution::kAntiCorrelated);
  ProgXeStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    GridGeometry grid(std::vector<Interval>(static_cast<size_t>(d),
                                            Interval(0, 100)),
                      10);
    OutputTable table(
        grid,
        std::vector<uint8_t>(static_cast<size_t>(grid.total_cells()), 0),
        &stats);
    state.ResumeTiming();
    for (size_t i = 0; i < 20000; ++i) {
      table.Insert(pts.data() + i * static_cast<size_t>(d),
                   static_cast<RowId>(i), 0);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 20000);
}
BENCHMARK(BM_OutputTableInsert);

void BM_OutputTableInsertBatch(benchmark::State& state) {
  const int d = 4;
  const size_t batch = static_cast<size_t>(state.range(0));
  std::vector<double> pts =
      RandomPoints(20000, d, Distribution::kAntiCorrelated);
  std::vector<RowIdPair> ids(20000);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = RowIdPair{static_cast<RowId>(i), 0};
  }
  ProgXeStats stats;
  for (auto _ : state) {
    state.PauseTiming();
    GridGeometry grid(std::vector<Interval>(static_cast<size_t>(d),
                                            Interval(0, 100)),
                      10);
    OutputTable table(
        grid,
        std::vector<uint8_t>(static_cast<size_t>(grid.total_cells()), 0),
        &stats);
    state.ResumeTiming();
    for (size_t i = 0; i < 20000; i += batch) {
      const size_t m = std::min(batch, 20000 - i);
      table.InsertBatch(pts.data() + i * static_cast<size_t>(d),
                        ids.data() + i, m);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 20000);
}
BENCHMARK(BM_OutputTableInsertBatch)->Arg(64)->Arg(256)->Arg(1024);

void BM_CombineBatch(benchmark::State& state) {
  // The parallel pipeline's worker-side map stage: one CombineBatch call
  // per chunk. Transform arg 0 = identity pairwise sums, 1 = rotating
  // log1p/sqrt (realistic Q1-style expressions).
  //
  // Hoisting the transform dispatch out of the pair loop (one switch per
  // dimension driving a specialized inner loop, identity skipping the sign
  // folds outright) moved this machine from 9454 ns / 108.9M items/s (/0)
  // and 35516 ns / 29.8M items/s (/1) to 5052 ns / 207.8M items/s and
  // 30067 ns / 34.8M items/s respectively.
  const int d = 4;
  const bool transformed = state.range(0) != 0;
  const size_t n_rows = 4096;
  const size_t batch = 1024;

  std::vector<MapFunc> funcs;
  for (int j = 0; j < d; ++j) {
    const Transform tf = !transformed         ? Transform::kIdentity
                         : (j % 2 == 0)       ? Transform::kLog1p
                                              : Transform::kSqrt;
    funcs.push_back(MapFunc(
        {MapTerm{Side::kR, j, 1.0}, MapTerm{Side::kT, j, 1.0}}, 0.0, tf));
  }
  CanonicalMapper mapper(MapSpec(std::move(funcs)),
                         Preference::AllLowest(d));

  std::vector<double> r_flat =
      RandomPoints(n_rows, d, Distribution::kIndependent, 3);
  std::vector<double> t_flat =
      RandomPoints(n_rows, d, Distribution::kIndependent, 4);
  std::vector<RowIdPair> pairs(batch);
  Rng rng(99);
  for (size_t i = 0; i < batch; ++i) {
    pairs[i] = RowIdPair{static_cast<RowId>(rng.NextBelow(n_rows)),
                         static_cast<RowId>(rng.NextBelow(n_rows))};
  }
  std::vector<double> out(batch * static_cast<size_t>(d));
  for (auto _ : state) {
    mapper.CombineBatch(pairs.data(), batch, r_flat.data(), t_flat.data(),
                        out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_CombineBatch)->Arg(0)->Arg(1);

void BM_Generator(benchmark::State& state) {
  const auto dist = static_cast<Distribution>(state.range(0));
  GeneratorOptions opts;
  opts.distribution = dist;
  opts.cardinality = 10000;
  opts.num_attributes = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateRelation(opts));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_Generator)
    ->Arg(static_cast<int>(Distribution::kIndependent))
    ->Arg(static_cast<int>(Distribution::kCorrelated))
    ->Arg(static_cast<int>(Distribution::kAntiCorrelated));

}  // namespace
}  // namespace progxe

BENCHMARK_MAIN();
