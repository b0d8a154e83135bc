#include "harness/experiment.h"

#include <algorithm>
#include <memory>

#include "common/macros.h"

#include "baselines/jf_sl.h"
#include "baselines/saj.h"
#include "baselines/ssmj.h"
#include "progxe/session.h"
#include "progxe/stream.h"
#include "shard/sharded_stream.h"

namespace progxe {

const char* AlgoName(Algo algo) {
  switch (algo) {
    case Algo::kProgXe:
      return "ProgXe";
    case Algo::kProgXePlus:
      return "ProgXe+";
    case Algo::kProgXeNoOrder:
      return "ProgXe (No-Order)";
    case Algo::kProgXePlusNoOrder:
      return "ProgXe+ (No-Order)";
    case Algo::kJfSl:
      return "JF-SL";
    case Algo::kJfSlPlus:
      return "JF-SL+";
    case Algo::kSsmj:
      return "SSMJ";
    case Algo::kSaj:
      return "SAJ";
  }
  return "?";
}

bool AlgoFromName(const std::string& name, Algo* out) {
  for (Algo algo : AllAlgos()) {
    if (name == AlgoName(algo)) {
      *out = algo;
      return true;
    }
  }
  // Hyphenated CLI-friendly aliases (no spaces or parentheses to quote).
  struct Alias {
    const char* name;
    Algo algo;
  };
  static const Alias kAliases[] = {
      {"ProgXe-NoOrder", Algo::kProgXeNoOrder},
      {"ProgXe+-NoOrder", Algo::kProgXePlusNoOrder},
  };
  for (const Alias& alias : kAliases) {
    if (name == alias.name) {
      *out = alias.algo;
      return true;
    }
  }
  return false;
}

bool IsProgXeVariant(Algo algo) {
  return algo == Algo::kProgXe || algo == Algo::kProgXePlus ||
         algo == Algo::kProgXeNoOrder || algo == Algo::kProgXePlusNoOrder;
}

std::vector<Algo> AllAlgos() {
  return {Algo::kProgXe,     Algo::kProgXePlus,        Algo::kProgXeNoOrder,
          Algo::kProgXePlusNoOrder, Algo::kJfSl,       Algo::kJfSlPlus,
          Algo::kSsmj,       Algo::kSaj};
}

ProgXeOptions OptionsForAlgo(Algo algo, ProgXeOptions tuning) {
  switch (algo) {
    case Algo::kProgXe:
      tuning.ordering = OrderingMode::kProgOrder;
      tuning.push_through = false;
      break;
    case Algo::kProgXePlus:
      tuning.ordering = OrderingMode::kProgOrder;
      tuning.push_through = true;
      break;
    case Algo::kProgXeNoOrder:
      tuning.ordering = OrderingMode::kRandom;
      tuning.push_through = false;
      break;
    case Algo::kProgXePlusNoOrder:
      tuning.ordering = OrderingMode::kRandom;
      tuning.push_through = true;
      break;
    default:
      break;
  }
  return tuning;
}

std::vector<std::pair<RowId, RowId>> CanonicalIdPairs(
    const std::vector<ResultTuple>& results) {
  std::vector<std::pair<RowId, RowId>> pairs;
  pairs.reserve(results.size());
  for (const ResultTuple& r : results) pairs.emplace_back(r.r_id, r.t_id);
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

Result<ExperimentRun> RunAlgorithm(Algo algo, const Workload& workload,
                                   ProgXeOptions tuning,
                                   const ShardOptions& shards) {
  ExperimentRun run;
  run.algo = algo;
  ProgressiveRecorder recorder;
  SkyMapJoinQuery query = workload.query();

  auto emit = [&](const ResultTuple& r) {
    recorder.OnResult();
    run.results.push_back(r);
  };

  switch (algo) {
    case Algo::kProgXe:
    case Algo::kProgXePlus:
    case Algo::kProgXeNoOrder:
    case Algo::kProgXePlusNoOrder: {
      // Driven through the pull-based stream (same results and counters as
      // ProgXeExecutor::Run): tuning carries the batch size and grid
      // settings straight into the pipeline, and `shards` selects the
      // sharded executor (the one intra-query parallel path) behind the
      // same interface.
      // Reset precedes Open so the timed window covers PreparePhase, like
      // the baselines' end-to-end timing.
      recorder.Reset();
      PROGXE_ASSIGN_OR_RETURN(
          std::unique_ptr<ProgXeStream> stream,
          OpenProgXeStream(query, OptionsForAlgo(algo, tuning), shards));
      std::vector<ResultTuple> batch;
      while (stream->NextBatch(0, &batch) > 0) {
        for (const ResultTuple& r : batch) emit(r);
      }
      PROGXE_RETURN_NOT_OK(stream->last_status());
      recorder.OnFinish();
      run.coverage = stream->coverage();
      run.dominance_comparisons = stream->stats().dominance_comparisons;
      run.join_pairs = stream->stats().join_pairs_generated;
      if (const auto* sharded =
              dynamic_cast<const ShardedStream*>(stream.get())) {
        run.output_cells_per_dim = sharded->output_cells_per_dim();
      } else if (const auto* session =
                     dynamic_cast<const ProgXeSession*>(stream.get())) {
        run.output_cells_per_dim = {session->options().output_cells_per_dim};
      }
      break;
    }
    case Algo::kJfSl:
    case Algo::kJfSlPlus: {
      BaselineStats stats;
      recorder.Reset();
      if (algo == Algo::kJfSl) {
        PROGXE_RETURN_NOT_OK(RunJfSl(query, emit, &stats));
      } else {
        PROGXE_RETURN_NOT_OK(RunJfSlPlus(query, emit, &stats));
      }
      recorder.OnFinish();
      run.dominance_comparisons = stats.dominance_comparisons;
      run.join_pairs = stats.join_pairs;
      break;
    }
    case Algo::kSsmj: {
      BaselineStats stats;
      SsmjResult ssmj;
      recorder.Reset();
      PROGXE_RETURN_NOT_OK(RunSsmj(query, emit, &stats, &ssmj));
      recorder.OnFinish();
      run.dominance_comparisons = stats.dominance_comparisons;
      run.join_pairs = stats.join_pairs;
      run.early_false_positives = stats.early_false_positives;
      // Replace the raw emission log with the correct final set so callers
      // comparing answers are not tripped by SSMJ's early false positives.
      run.results = ssmj.final_results;
      break;
    }
    case Algo::kSaj: {
      SajStats stats;
      recorder.Reset();
      PROGXE_RETURN_NOT_OK(RunSaj(query, emit, &stats));
      recorder.OnFinish();
      run.dominance_comparisons = stats.base.dominance_comparisons;
      run.join_pairs = stats.base.join_pairs;
      break;
    }
  }

  run.metrics = SummarizeRecorder(recorder);
  run.series = recorder.points();
  return run;
}

}  // namespace progxe
