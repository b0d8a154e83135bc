// Tests for the shared submission-settings parser (harness/submit_spec.h)
// behind progxe_cli's flags and progxe_server's submit keys and flags:
// every key's accepted, malformed and out-of-range values, the bare-flag
// and needs-a-value rules, unknown keys, and the equality of the CLI and
// server forms of one submission.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "harness/submit_spec.h"

namespace progxe {
namespace {

/// Splits each token with `prefix`; the strings must outlive the result.
std::vector<Setting> Split(const std::vector<std::string>& tokens,
                           std::string_view prefix) {
  std::vector<Setting> settings;
  EXPECT_TRUE(SplitSettings(tokens, prefix, &settings).ok());
  return settings;
}

Status ParseSubmit(const std::vector<std::string>& tokens, SubmitSpec* spec,
                   std::string_view prefix = "") {
  for (const Setting& setting : Split(tokens, prefix)) {
    PROGXE_RETURN_NOT_OK(ApplySubmitSetting(setting, spec));
  }
  return Status::OK();
}

Status ParseServe(const std::vector<std::string>& tokens,
                  ServiceOptions* options) {
  for (const Setting& setting : Split(tokens, "")) {
    PROGXE_RETURN_NOT_OK(ApplyServeSetting(setting, options));
  }
  return Status::OK();
}

/// Every field a submission key can set, rendered for comparison.
std::string Describe(const SubmitSpec& spec) {
  std::ostringstream os;
  os << spec.params.ToString() << " algo=" << AlgoName(spec.algo)
     << " max_results=" << spec.options.max_results
     << " faults=" << spec.faults << " fault_seed=" << spec.fault_seed
     << " weight=" << spec.submit.weight
     << " deadline=" << spec.submit.deadline.count()
     << " shards=" << spec.submit.shards.num_shards << " workers=";
  for (const std::string& w : spec.submit.shards.workers) os << w << ",";
  os << " max_retries=" << spec.submit.shards.max_retries
     << " backoff=" << spec.submit.shards.retry_backoff.count()
     << " allow_partial=" << spec.submit.shards.allow_partial
     << " shaped=" << spec.shaped;
  return os.str();
}

struct KeyCase {
  const char* key;
  const char* good;
  const char* malformed;
  std::vector<const char*> out_of_range;
};

const std::vector<KeyCase>& SubmitCases() {
  static const std::vector<KeyCase> cases = {
      {"dist", "anti", "", {"pareto"}},
      {"n", "5000", "5k", {"0", "20000001"}},
      {"dims", "3", "3.5", {"1", "17", "32"}},
      {"sigma", "0.01", "abc", {"0", "1.5"}},
      {"seed", "7", "x7", {"-1", "18446744073709551616"}},
      {"algo", "ProgXe+", "", {"FastSkyline"}},
      {"max_results", "50", "5O", {"-1"}},
      {"weight", "4", "four", {"0", "-2"}},
      {"deadline_ms", "-1", "1s", {"9223372036854775808"}},
      {"shards", "4", "4x", {"0", "65"}},
      {"shard_workers", "127.0.0.1:7001,127.0.0.1:7002", "127.0.0.1",
       {"127.0.0.1:70000", ","}},
      {"max_retries", "8", "8.0", {"-1", "1001"}},
      {"retry_backoff_ms", "0", "1e3", {"-1"}},
      {"faults", "shard.open:p=1,max=2", "shard.open:p=", {"shard.open:p=2"}},
      {"fault_seed", "3", "3a", {"-3"}},
  };
  return cases;
}

const std::vector<KeyCase>& ServeCases() {
  static const std::vector<KeyCase> cases = {
      {"workers", "4", "four", {"0", "257"}},
      {"budget", "512", "512b", {"-1"}},
      {"max_concurrent", "3", "3.0", {"-1"}},
      {"max_queue", "16", "1e2", {"-1"}},
      {"deadline_ms", "100", "1s", {"-1"}},
  };
  return cases;
}

TEST(SubmitSpecTable, EveryKeyAcceptsGoodAndRejectsBadValues) {
  for (const KeyCase& c : SubmitCases()) {
    const std::string key = c.key;
    SubmitSpec spec;
    EXPECT_TRUE(ParseSubmit({key + "=" + c.good}, &spec).ok()) << key;
    std::vector<const char*> bad_values = c.out_of_range;
    bad_values.push_back(c.malformed);
    for (const char* bad : bad_values) {
      SubmitSpec rejected;
      const Status st = ParseSubmit({key + "=" + bad}, &rejected);
      EXPECT_TRUE(st.IsInvalidArgument()) << key << "=" << bad;
    }
    // Every submission key needs its value.
    SubmitSpec bare;
    EXPECT_TRUE(ParseSubmit({key}, &bare).IsInvalidArgument()) << key;
  }
  for (const KeyCase& c : ServeCases()) {
    const std::string key = c.key;
    ServiceOptions options;
    EXPECT_TRUE(ParseServe({key + "=" + c.good}, &options).ok()) << key;
    EXPECT_TRUE(ParseServe({key + "=" + c.malformed}, &options)
                    .IsInvalidArgument())
        << key << "=" << c.malformed;
    for (const char* bad : c.out_of_range) {
      EXPECT_TRUE(ParseServe({key + "=" + bad}, &options).IsInvalidArgument())
          << key << "=" << bad;
    }
    EXPECT_TRUE(ParseServe({key}, &options).IsInvalidArgument()) << key;
  }
}

TEST(SubmitSpecTable, GoodValuesLandInTheirFields) {
  SubmitSpec spec;
  ASSERT_TRUE(ParseSubmit({"dist=anti", "n=5000", "dims=3", "sigma=0.01",
                           "seed=7", "algo=ProgXe+", "max_results=50",
                           "weight=4", "deadline_ms=-1", "shards=4",
                           "shard_workers=127.0.0.1:7001,127.0.0.1:7002",
                           "max_retries=8", "retry_backoff_ms=0",
                           "allow_partial", "fault_seed=3",
                           "faults=shard.open:p=1,max=2"},
                          &spec)
                  .ok());
  EXPECT_EQ(spec.params.distribution, Distribution::kAntiCorrelated);
  EXPECT_EQ(spec.params.cardinality, 5000u);
  EXPECT_EQ(spec.params.dims, 3);
  EXPECT_EQ(spec.params.sigma, 0.01);
  EXPECT_EQ(spec.params.seed, 7u);
  EXPECT_TRUE(spec.shaped);
  EXPECT_EQ(spec.algo, Algo::kProgXePlus);
  EXPECT_EQ(spec.options.max_results, 50u);
  EXPECT_EQ(spec.submit.weight, 4.0);
  EXPECT_EQ(spec.submit.deadline.count(), -1);
  EXPECT_EQ(spec.submit.shards.num_shards, 4);
  EXPECT_EQ(spec.submit.shards.workers,
            (std::vector<std::string>{"127.0.0.1:7001", "127.0.0.1:7002"}));
  EXPECT_EQ(spec.submit.shards.max_retries, 8);
  EXPECT_EQ(spec.submit.shards.retry_backoff.count(), 0);
  EXPECT_TRUE(spec.submit.shards.allow_partial);
  EXPECT_EQ(spec.faults, "shard.open:p=1,max=2");
  // fault_seed applies though it came before faults.
  EXPECT_EQ(spec.fault_seed, 3u);

  ServiceOptions options;
  ASSERT_TRUE(ParseServe({"workers=4", "budget=512", "max_concurrent=3",
                          "max_queue=16", "deadline_ms=100"},
                         &options)
                  .ok());
  EXPECT_EQ(options.num_workers, 4);
  EXPECT_EQ(options.batch_budget, 512u);
  EXPECT_EQ(options.max_concurrent, 3u);
  EXPECT_EQ(options.max_queue, 16u);
  EXPECT_EQ(options.default_deadline.count(), 100);
}

TEST(SubmitSpecTable, NonWorkloadKeysLeaveTheWorkloadUnshaped) {
  SubmitSpec spec;
  ASSERT_TRUE(ParseSubmit({"weight=2", "allow_partial", "shards=2"}, &spec).ok());
  EXPECT_FALSE(spec.shaped);
}

TEST(SubmitSpecTable, BareFlagsTakeNoValue) {
  SubmitSpec spec;
  EXPECT_TRUE(ParseSubmit({"allow_partial"}, &spec).ok());
  for (const char* value : {"=1", "=0", "="}) {
    SubmitSpec rejected;
    EXPECT_TRUE(ParseSubmit({std::string("allow_partial") + value}, &rejected)
                    .IsInvalidArgument())
        << value;
  }
}

// A key a parser does not own is NotFound, so a tool can offer it to the
// next parser; the spec is left untouched.
TEST(SubmitSpecTable, UnknownKeysAreNotFound) {
  SubmitSpec spec;
  const Status st = ParseSubmit({"threads=4"}, &spec);
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "unknown key: threads");
  ServiceOptions options;
  EXPECT_TRUE(ParseServe({"policy=wf"}, &options).IsNotFound());
  // The two key sets are disjoint apart from deadline_ms.
  EXPECT_TRUE(ParseServe({"weight=2"}, &options).IsNotFound());
  EXPECT_TRUE(ParseSubmit({"budget=64"}, &spec).IsNotFound());
  EXPECT_TRUE(ParseSubmit({"reuse"}, &spec).IsNotFound());
  // The uniform input grid is the one partitioner; there is no kd switch.
  EXPECT_TRUE(ParseSubmit({"kd"}, &spec).IsNotFound());
  EXPECT_EQ(Describe(spec), Describe(SubmitSpec()));
}

// Each run built from one spec gets its own injector, so a max= budget
// spent by one run leaves the next run's schedule whole.
TEST(SubmitSpecTable, EngineOptionsCompileAFreshInjector) {
  SubmitSpec spec;
  EXPECT_EQ(spec.EngineOptions().faults, nullptr);
  ASSERT_TRUE(ParseSubmit({"faults=shard.open:p=1,max=2", "fault_seed=3",
                           "max_results=9"},
                          &spec)
                  .ok());
  const ProgXeOptions first = spec.EngineOptions();
  const ProgXeOptions second = spec.EngineOptions();
  ASSERT_NE(first.faults, nullptr);
  ASSERT_NE(second.faults, nullptr);
  EXPECT_NE(first.faults, second.faults);
  EXPECT_EQ(first.faults->seed(), 3u);
  EXPECT_EQ(first.faults->ToString(), second.faults->ToString());
  EXPECT_EQ(first.max_results, 9u);
  EXPECT_EQ(spec.options.faults, nullptr);
}

TEST(SubmitSpecTable, SplitSettingsNeedsPrefixAndKey) {
  const std::vector<std::string> good = {"--n=5", "--faults=a:p=1,max=2",
                                         "--allow_partial"};
  std::vector<Setting> settings;
  ASSERT_TRUE(SplitSettings(good, "--", &settings).ok());
  ASSERT_EQ(settings.size(), 3u);
  EXPECT_EQ(settings[0].key, "n");
  EXPECT_EQ(settings[0].value, "5");
  EXPECT_EQ(settings[1].key, "faults");
  EXPECT_EQ(settings[1].value, "a:p=1,max=2");  // split at the first '='
  EXPECT_EQ(settings[2].key, "allow_partial");
  EXPECT_FALSE(settings[2].value.has_value());
  for (const char* bad : {"n=5", "--", "--=5", "-n=5"}) {
    const std::vector<std::string> tokens = {"--dims=3", bad};
    EXPECT_TRUE(SplitSettings(tokens, "--", &settings).IsInvalidArgument())
        << bad;
  }
  const std::vector<std::string> empty_key = {"=5"};
  EXPECT_TRUE(SplitSettings(empty_key, "", &settings).IsInvalidArgument());
}

// progxe_cli and progxe_server spell the same submission differently; both
// must parse to the same spec.
TEST(SubmitSpecTable, CliAndServerFormsGiveIdenticalSpecs) {
  const std::vector<std::string> server = {
      "dist=corr", "n=3000", "dims=5", "sigma=0.002", "seed=11",
      "algo=ProgXe-NoOrder", "max_results=9", "weight=2.5",
      "deadline_ms=400", "shards=3", "shard_workers=h1:9000,h2:9001",
      "max_retries=5", "retry_backoff_ms=7", "allow_partial",
      "faults=shard.next_batch:p=0.5,max=3", "fault_seed=21"};
  std::vector<std::string> cli;
  for (const std::string& token : server) cli.push_back("--" + token);

  SubmitSpec from_server;
  ASSERT_TRUE(ParseSubmit(server, &from_server).ok());
  SubmitSpec from_cli;
  ASSERT_TRUE(ParseSubmit(cli, &from_cli, "--").ok());
  EXPECT_EQ(Describe(from_cli), Describe(from_server));
  EXPECT_NE(Describe(from_cli), Describe(SubmitSpec()));
}

// dims is capped at 16, the most an auto-sized output grid opens at; the
// table stops larger values before any workload is built.
TEST(SubmitSpecTable, RejectsHighDimensionality) {
  SubmitSpec spec;
  const Status st = ParseSubmit({"dims=32"}, &spec);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("dims out of range [2, 16]"), std::string::npos)
      << st.message();
  EXPECT_TRUE(ParseSubmit({"dims=16"}, &spec).ok());
}

}  // namespace
}  // namespace progxe
