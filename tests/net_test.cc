// Distributed shard transport tests: the wire protocol's serde must be a
// lossless involution (and reject truncated/corrupted payloads with a clean
// Status, never a crash), and a ShardedStream served by real loopback
// worker processes must deliver a result set *bit-identical* to the
// in-process run — through clean runs, worker death mid-stream (retry on a
// surviving worker) and retry exhaustion (exact kPartial coverage).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "equivalence_common.h"
#include "net/net_stats.h"
#include "net/remote_shard.h"
#include "net/socket.h"
#include "net/wire.h"
#include "net/worker_pool.h"
#include "net/worker_service.h"
#include "progxe/session.h"
#include "progxe/stream.h"
#include "shard/shard_planner.h"
#include "shard/sharded_stream.h"

namespace progxe {
namespace {

using test::Config;
using test::ExpectSameStats;
using test::MakeConfig;

using IdSet = std::vector<std::pair<RowId, RowId>>;

IdSet SortedIds(const std::vector<ResultTuple>& results) {
  IdSet ids;
  ids.reserve(results.size());
  for (const ResultTuple& res : results) ids.emplace_back(res.r_id, res.t_id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<ResultTuple> DrainStream(ProgXeStream* stream, size_t max_results,
                                     size_t max_pairs) {
  std::vector<ResultTuple> all;
  std::vector<ResultTuple> batch;
  while (!stream->Finished()) {
    const size_t n = stream->NextBatch(max_results, max_pairs, &batch);
    if (n == 0) {
      if (max_pairs == 0) break;
      continue;
    }
    for (ResultTuple& res : batch) all.push_back(std::move(res));
  }
  return all;
}

// --- Wire serde -------------------------------------------------------------

TEST(Wire, PrimitiveRoundTripIsBitLossless) {
  std::string buf;
  WireWriter w(&buf);
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeefu);
  w.PutU64(0x0123456789abcdefull);
  w.PutI64(-42);
  // The doubles that break naive text round-trips: NaN (payload bits),
  // infinities, signed zero, denormal, and a full-precision value.
  const std::vector<double> specials = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      0.1 + 0.2};
  for (double d : specials) w.PutDouble(d);
  w.PutString("hello \0 wire");  // embedded NUL truncates the literal: fine
  w.PutDoubles(specials);

  WireReader r(buf);
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  EXPECT_TRUE(r.GetU8(&u8));
  EXPECT_EQ(u8, 0xab);
  EXPECT_TRUE(r.GetU16(&u16));
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_TRUE(r.GetU32(&u32));
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_TRUE(r.GetU64(&u64));
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_TRUE(r.GetI64(&i64));
  EXPECT_EQ(i64, -42);
  for (double expected : specials) {
    double d;
    EXPECT_TRUE(r.GetDouble(&d));
    // Bit equality, not value equality: NaN != NaN but its bits round-trip.
    EXPECT_EQ(std::memcmp(&d, &expected, sizeof d), 0);
  }
  std::string s;
  EXPECT_TRUE(r.GetString(&s));
  EXPECT_EQ(s, "hello ");
  std::vector<double> ds;
  EXPECT_TRUE(r.GetDoubles(&ds));
  ASSERT_EQ(ds.size(), specials.size());
  EXPECT_EQ(std::memcmp(ds.data(), specials.data(),
                        ds.size() * sizeof(double)),
            0);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ok());
}

/// One encoded payload per field group of the session protocol, built from
/// a randomized query so coverage does not depend on hand-picked shapes.
std::vector<std::string> EncodeFieldGroups(const Config& cfg) {
  std::vector<std::string> payloads;
  {
    std::string buf;
    WireWriter w(&buf);
    WriteRelation(cfg.r, &w);
    payloads.push_back(std::move(buf));
  }
  {
    std::string buf;
    WireWriter w(&buf);
    WriteMapSpec(cfg.map, &w);
    payloads.push_back(std::move(buf));
  }
  {
    std::string buf;
    WireWriter w(&buf);
    WritePreference(cfg.pref, &w);
    payloads.push_back(std::move(buf));
  }
  {
    ProgXeOptions options;
    options.seed = 0xfeed;
    auto seed = std::make_shared<RefinementSeed>();
    seed->k = 2;
    seed->canonical = {0.25, -1.5};
    options.refinement_seed = std::move(seed);
    std::string buf;
    WireWriter w(&buf);
    WriteOptions(options, &w);
    payloads.push_back(std::move(buf));
  }
  {
    ProgXeStats stats;
    stats.join_pairs_generated = 12345;
    stats.results_emitted = 678;
    stats.dominance_comparisons = 91011;
    std::string buf;
    WireWriter w(&buf);
    WriteStats(stats, &w);
    payloads.push_back(std::move(buf));
  }
  {
    std::vector<ResultTuple> batch(3);
    for (size_t i = 0; i < batch.size(); ++i) {
      batch[i].r_id = static_cast<RowId>(i);
      batch[i].t_id = static_cast<RowId>(i + 10);
      batch[i].values = {1.5 * static_cast<double>(i), -0.0};
    }
    std::string buf;
    WireWriter w(&buf);
    WriteResultBatch(batch, 2, &w);
    payloads.push_back(std::move(buf));
  }
  {
    std::string buf;
    WireWriter w(&buf);
    WriteWatermark(true, {0.0, std::numeric_limits<double>::infinity()}, &w);
    payloads.push_back(std::move(buf));
  }
  {
    std::string buf;
    WireWriter w(&buf);
    WriteStatusPayload(Status::Unavailable("worker died"), &w);
    payloads.push_back(std::move(buf));
  }
  return payloads;
}

/// Decodes payload i of EncodeFieldGroups' order; returns the decode
/// Status. Used both for the round-trip direction and the fuzz direction.
Status DecodeFieldGroup(size_t index, const std::string& payload) {
  WireReader r(payload);
  Status st;
  switch (index) {
    case 0: {
      Relation rel{Schema::Anonymous(0)};
      st = ReadRelation(&r, &rel);
      break;
    }
    case 1: {
      MapSpec spec;
      st = ReadMapSpec(&r, &spec);
      break;
    }
    case 2: {
      Preference pref;
      st = ReadPreference(&r, &pref);
      break;
    }
    case 3: {
      ProgXeOptions options;
      st = ReadOptions(&r, &options);
      break;
    }
    case 4: {
      ProgXeStats stats;
      st = ReadStats(&r, &stats);
      break;
    }
    case 5: {
      std::vector<ResultTuple> batch;
      st = ReadResultBatch(&r, &batch);
      break;
    }
    case 6: {
      bool has_bound;
      std::vector<double> bound;
      st = ReadWatermark(&r, &has_bound, &bound);
      break;
    }
    default: {
      Status decoded;
      st = ReadStatusPayload(&r, &decoded);
      break;
    }
  }
  if (st.ok() && !r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after field group");
  }
  return st;
}

TEST(Wire, FieldGroupsRoundTrip) {
  Rng rng(0x11e7);
  const Config cfg = MakeConfig(&rng, false, false);
  const std::vector<std::string> payloads = EncodeFieldGroups(cfg);
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_TRUE(DecodeFieldGroup(i, payloads[i]).ok())
        << "group " << i << ": "
        << DecodeFieldGroup(i, payloads[i]).ToString();
  }
}

// The options and stats groups carry every field, and nothing else: the
// encoded sizes pin the layout (the options' two u8 enums and flags, five
// eight-byte fields and a u8 seed flag; eight bytes per stats field).
TEST(Wire, OptionsAndStatsRoundTripEveryField) {
  static_assert(kWireVersion == 9);
  ProgXeOptions options;
  options.ordering = OrderingMode::kSequential;
  options.push_through = true;
  options.input_cells_per_dim = 5;
  options.output_cells_per_dim = 11;
  options.seed = 0x5eedf00d;
  options.fault_instance = 3;
  options.max_results = 77;
  std::string obuf;
  WireWriter ow(&obuf);
  WriteOptions(options, &ow);
  EXPECT_EQ(obuf.size(), 2u + 5 * 8 + 1);
  ProgXeOptions o;
  WireReader ro(obuf);
  ASSERT_TRUE(ReadOptions(&ro, &o).ok());
  EXPECT_TRUE(ro.AtEnd());
  EXPECT_EQ(o.ordering, options.ordering);
  EXPECT_EQ(o.push_through, options.push_through);
  EXPECT_EQ(o.input_cells_per_dim, options.input_cells_per_dim);
  EXPECT_EQ(o.output_cells_per_dim, options.output_cells_per_dim);
  EXPECT_EQ(o.seed, options.seed);
  EXPECT_EQ(o.fault_instance, options.fault_instance);
  EXPECT_EQ(o.max_results, options.max_results);
  EXPECT_EQ(o.refinement_seed, nullptr);

  auto seed = std::make_shared<RefinementSeed>();
  seed->k = 2;
  seed->canonical = {0.25, -1.5};
  options.refinement_seed = seed;
  obuf.clear();
  WriteOptions(options, &ow);
  EXPECT_EQ(obuf.size(), 2u + 5 * 8 + 1 + 8 + 4 + 2 * 8);
  WireReader rs(obuf);
  ASSERT_TRUE(ReadOptions(&rs, &o).ok());
  EXPECT_TRUE(rs.AtEnd());
  ASSERT_NE(o.refinement_seed, nullptr);
  EXPECT_EQ(o.refinement_seed->k, 2);
  EXPECT_EQ(o.refinement_seed->canonical, seed->canonical);

  ProgXeStats stats;
  uint64_t value = 1;
  for (const StatField<ProgXeStats>& f : kProgXeStatsFields) {
    if (f.real != nullptr) {
      stats.*f.real = static_cast<double>(value++) + 0.125;
    } else {
      stats.*f.count = value++;
    }
  }
  std::string buf;
  WireWriter w(&buf);
  WriteStats(stats, &w);
  EXPECT_EQ(buf.size(), std::size(kProgXeStatsFields) * 8);
  ProgXeStats decoded;
  WireReader r(buf);
  ASSERT_TRUE(ReadStats(&r, &decoded).ok());
  EXPECT_TRUE(r.AtEnd());
  ExpectSameStats(decoded, stats, "wire round trip");
}

// The version-9 stats layout, captured before the codec looped over
// kProgXeStatsFields. Each field holds 0x1000 plus its byte offset in
// ProgXeStats (plus 0.5 on sigma_used), so reordering either the list or
// the struct changes the bytes.
TEST(Wire, StatsMatchVersion9GoldenBytes) {
  static_assert(kWireVersion == 9);
  ProgXeStats stats;
  const auto offset = [&](const void* field) {
    return static_cast<uint64_t>(static_cast<const char*>(field) -
                                 reinterpret_cast<const char*>(&stats));
  };
  for (const StatField<ProgXeStats>& f : kProgXeStatsFields) {
    if (f.real != nullptr) {
      stats.*f.real = static_cast<double>(0x1000 + offset(&(stats.*f.real))) +
                      0.5;
    } else {
      stats.*f.count = 0x1000 + offset(&(stats.*f.count));
    }
  }
  std::string buf;
  WireWriter w(&buf);
  WriteStats(stats, &w);
  std::string hex;
  for (unsigned char c : buf) {
    hex.push_back("0123456789abcdef"[c >> 4]);
    hex.push_back("0123456789abcdef"[c & 15]);
  }
  EXPECT_EQ(hex,
            "0010000000000000081000000000000010100000000000001810000000000000"
            "000000008020b040281000000000000030100000000000003810000000000000"
            "4010000000000000481000000000000050100000000000005810000000000000"
            "6010000000000000681000000000000070100000000000007810000000000000"
            "8010000000000000881000000000000090100000000000009810000000000000"
            "a010000000000000a810000000000000");
}

TEST(Wire, RelationRoundTripPreservesEveryBit) {
  Rng rng(0x11e8);
  const Config cfg = MakeConfig(&rng, true, true);
  std::string buf;
  WireWriter w(&buf);
  WriteRelation(cfg.r, &w);
  WireReader r(buf);
  Relation decoded{Schema::Anonymous(0)};
  ASSERT_TRUE(ReadRelation(&r, &decoded).ok()) << r.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(decoded.size(), cfg.r.size());
  ASSERT_EQ(decoded.num_attributes(), cfg.r.num_attributes());
  for (RowId i = 0; i < static_cast<RowId>(cfg.r.size()); ++i) {
    EXPECT_EQ(decoded.join_key(i), cfg.r.join_key(i));
    for (int a = 0; a < cfg.r.num_attributes(); ++a) {
      const double lhs = decoded.attr(i, a);
      const double rhs = cfg.r.attr(i, a);
      EXPECT_EQ(std::memcmp(&lhs, &rhs, sizeof lhs), 0);
    }
  }
}

// Every truncation of every field group must decode to a non-OK Status —
// straight-line decoders over a bounds-checked reader can't crash, and a
// short payload must never pass as a complete one.
TEST(Wire, TruncatedPayloadsFailCleanly) {
  Rng rng(0x11e9);
  const Config cfg = MakeConfig(&rng, false, true);
  const std::vector<std::string> payloads = EncodeFieldGroups(cfg);
  for (size_t i = 0; i < payloads.size(); ++i) {
    const std::string& whole = payloads[i];
    // Dense sweep for small payloads, strided for relation-sized ones.
    const size_t step = whole.size() > 512 ? whole.size() / 257 + 1 : 1;
    for (size_t cut = 0; cut < whole.size(); cut += step) {
      const Status st = DecodeFieldGroup(i, whole.substr(0, cut));
      EXPECT_FALSE(st.ok()) << "group " << i << " cut at " << cut << " of "
                            << whole.size();
    }
  }
}

// Deterministic byte-flip fuzz: a corrupted payload may still decode (a
// flipped double bit is a different valid double) but must never crash,
// over-allocate on a forged element count, or leave the reader claiming OK
// with bytes unconsumed.
TEST(Wire, CorruptedPayloadsNeverCrash) {
  Rng rng(0x11ea);
  const Config cfg = MakeConfig(&rng, false, false);
  const std::vector<std::string> payloads = EncodeFieldGroups(cfg);
  Rng fuzz(0xfa22);
  for (size_t i = 0; i < payloads.size(); ++i) {
    for (int round = 0; round < 200; ++round) {
      std::string mutated = payloads[i];
      const int flips = 1 + static_cast<int>(fuzz.NextBelow(4));
      for (int f = 0; f < flips; ++f) {
        const size_t pos = fuzz.NextBelow(mutated.size());
        mutated[pos] = static_cast<char>(
            static_cast<uint8_t>(mutated[pos]) ^
            (1u << fuzz.NextBelow(8)));
      }
      // The only requirement: a Status comes back, OK or not, sans crash.
      (void)DecodeFieldGroup(i, mutated);
    }
  }
  // Forged count: a batch claiming 2^31 tuples backed by 8 bytes must be
  // rejected before any allocation proportional to the claim.
  std::string forged;
  WireWriter w(&forged);
  w.PutU32(2);            // k
  w.PutU32(0x80000000u);  // count
  w.PutU64(0);
  const Status st = DecodeFieldGroup(5, forged);
  EXPECT_FALSE(st.ok());
}

// A forged row count chosen so rows * (width+1) * 8 wraps uint64 to 0 must
// still be rejected — the bounds check has to divide, not multiply, or the
// wrapped product sails past it into a gigantic allocation.
TEST(Wire, OverflowedRowCountRejectedBeforeAllocation) {
  std::string forged;
  WireWriter w(&forged);
  w.PutU32(3);  // width: per-row cost 32 bytes
  for (const char* name : {"a", "b", "c"}) w.PutString(name);
  w.PutString("k");                 // join attribute
  w.PutU64(1ull << 61);             // rows: 2^61 * 32 == 2^66 ≡ 0 (mod 2^64)
  WireReader r(forged);
  Relation rel{Schema::Anonymous(0)};
  EXPECT_FALSE(ReadRelation(&r, &rel).ok());
  EXPECT_FALSE(r.status().ok());
}

/// WriteOptions' bytes with the i64 field that encodes `sentinel`
/// overwritten by `forged` (the sentinel must occur exactly once).
std::string ForgeOptionsField(const ProgXeOptions& options, int64_t sentinel,
                              int64_t forged) {
  std::string buf;
  WireWriter w(&buf);
  WriteOptions(options, &w);
  std::string needle;
  WireWriter(&needle).PutI64(sentinel);
  const size_t at = buf.find(needle);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(buf.find(needle, at + 1), std::string::npos);
  std::string patch;
  WireWriter(&patch).PutI64(forged);
  buf.replace(at, patch.size(), patch);
  return buf;
}

// The int-typed options travel as i64; a value outside int range must be
// rejected, never narrowed.
TEST(Wire, OptionsRejectIntFieldsOutOfRange) {
  ProgXeOptions options;
  options.input_cells_per_dim = 0x1a2b3c01;
  options.output_cells_per_dim = 0x1a2b3c02;
  options.fault_instance = 0x1a2b3c04;
  for (int64_t sentinel : {0x1a2b3c01, 0x1a2b3c02, 0x1a2b3c04}) {
    for (int64_t forged : {int64_t{1} << 40, -(int64_t{1} << 40),
                           int64_t{std::numeric_limits<int>::max()} + 1}) {
      const std::string buf = ForgeOptionsField(options, sentinel, forged);
      WireReader r(buf);
      ProgXeOptions decoded;
      EXPECT_TRUE(ReadOptions(&r, &decoded).IsInvalidArgument())
          << "sentinel=" << sentinel << " forged=" << forged;
    }
  }
  // In range, the same bytes decode to the same values.
  const std::string buf = ForgeOptionsField(options, 0x1a2b3c01, 8);
  WireReader r(buf);
  ProgXeOptions decoded;
  ASSERT_TRUE(ReadOptions(&r, &decoded).ok());
  EXPECT_EQ(decoded.input_cells_per_dim, 8);
  EXPECT_EQ(decoded.fault_instance, 0x1a2b3c04);
}

TEST(Net, ParseWorkerListValidates) {
  auto list = ParseWorkerList("127.0.0.1:9000, localhost:9001 ,[::1]:9002");
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[0], "127.0.0.1:9000");

  EXPECT_TRUE(ParseWorkerList("")->empty());
  EXPECT_FALSE(ParseWorkerList("no-port").ok());
  EXPECT_FALSE(ParseWorkerList("host:notaport").ok());
  EXPECT_FALSE(ParseWorkerList("host:70000").ok());
  // Stray commas are tolerated, not endpoints.
  auto gaps = ParseWorkerList("host:9000,,host:9001");
  ASSERT_TRUE(gaps.ok());
  EXPECT_EQ(gaps->size(), 2u);
}

// --- Loopback distributed execution ----------------------------------------

std::string Endpoint(const WorkerServer& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

std::unique_ptr<WorkerServer> MustStartWorker() {
  WorkerServerOptions options;
  options.port = 0;
  // Small slices + fast heartbeats so the kill tests cross many pump
  // boundaries and the soak stays quick.
  options.pump_slice_pairs = 1024;
  options.heartbeat_interval = std::chrono::milliseconds(50);
  auto server = WorkerServer::Start(options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return server.MoveValue();
}

// A clean distributed run over two loopback workers is bit-identical to the
// in-process sharded run: same delivered set, same summed ProgXeStats, full
// remote coverage, zero retries — and the transport actually carried it
// (net counters moved).
TEST(Net, DistributedRunIsBitIdenticalToInProcess) {
  Rng rng(0xd157);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 4;

  ShardOptions local;
  local.num_shards = kShards;
  auto in_process = OpenProgXeStream(cfg.query(), options, local);
  ASSERT_TRUE(in_process.ok());
  const IdSet reference = SortedIds(DrainStream(in_process->get(), 0, 0));
  const ProgXeStats reference_stats = (*in_process)->stats();

  auto worker_a = MustStartWorker();
  auto worker_b = MustStartWorker();
  const NetStatsSnapshot before = SnapshotNetStats();

  ShardOptions distributed;
  distributed.num_shards = kShards;
  distributed.workers = {Endpoint(*worker_a), Endpoint(*worker_b)};
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  // Budgeted drain: slicing must stay invisible over the wire too.
  const IdSet delivered = SortedIds(DrainStream(stream->get(), 7, 96));
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->last_status().ok());
  ExpectSameStats((*stream)->stats(), reference_stats, "distributed");

  const ShardCoverage coverage = (*stream)->coverage();
  EXPECT_TRUE(coverage.complete());
  EXPECT_EQ(coverage.shards, kShards);
  EXPECT_EQ(coverage.completed, kShards);
  EXPECT_EQ(coverage.remote, kShards);
  EXPECT_EQ(coverage.retries, 0u);

  const NetStatsSnapshot after = SnapshotNetStats();
  EXPECT_GT(after.frames_sent, before.frames_sent);
  EXPECT_GT(after.bytes_received, before.bytes_received);
  EXPECT_GT(after.rtt_count, before.rtt_count);
}

// The pool caches handshaken links across streams: a second query against
// the same workers reuses connections instead of redialing.
TEST(Net, WorkerPoolReusesConnectionsAcrossStreams) {
  Rng rng(0xd158);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;
  auto worker = MustStartWorker();
  auto pool = std::make_shared<WorkerPool>();

  ShardOptions distributed;
  distributed.num_shards = 2;
  distributed.workers = {Endpoint(*worker)};
  distributed.worker_pool = pool;
  for (int round = 0; round < 2; ++round) {
    auto stream = OpenProgXeStream(cfg.query(), options, distributed);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    (void)DrainStream(stream->get(), 0, 0);
    EXPECT_TRUE((*stream)->last_status().ok());
  }
  EXPECT_GT(pool->reuses(), 0u);
  EXPECT_LE(pool->connections_created(), 2u);
}

// Worker death mid-stream: severed connections surface as retryable
// kUnavailable, the shards re-open on the *surviving* worker (endpoint
// rotation) and idempotent replay keeps the delivered set bit-identical —
// zero retractions, zero duplicates.
TEST(Net, WorkerKillMidStreamRecoversOnSurvivor) {
  Rng rng(0xd159);
  // Low sigma: many join-key classes, so every shard owns real work and the
  // kill below is guaranteed to hit shards that still have pumps ahead.
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 4;

  ShardOptions local;
  local.num_shards = kShards;
  auto in_process = OpenProgXeStream(cfg.query(), options, local);
  ASSERT_TRUE(in_process.ok());
  const IdSet reference = SortedIds(DrainStream(in_process->get(), 0, 0));

  auto doomed = MustStartWorker();
  auto survivor = MustStartWorker();
  ShardOptions distributed;
  distributed.num_shards = kShards;
  distributed.workers = {Endpoint(*doomed), Endpoint(*survivor)};
  distributed.max_retries = 8;
  distributed.retry_backoff = std::chrono::milliseconds(1);
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  // Kill after open, before any pump: every shard the doomed worker held
  // must fail its first pump and replay from scratch elsewhere.
  doomed->Stop();

  const IdSet delivered = SortedIds(DrainStream(stream->get(), 0, 128));
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->last_status().ok());
  const ShardCoverage coverage = (*stream)->coverage();
  EXPECT_TRUE(coverage.complete());
  EXPECT_EQ(coverage.completed, kShards);
  EXPECT_GT(coverage.retries, 0u);
}

// Retry exhaustion against a dead endpoint under allow_partial: the stream
// completes as a *partial* with exact per-shard accounting, and delivers
// exactly the covered shards' skyline (the same contract as local
// abandonment — transport failures ride the same path).
TEST(Net, RemoteRetryExhaustionYieldsExactPartialCoverage) {
  Rng rng(0xd15a);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 2;

  // Covered-only reference: drop every row whose key hashes to shard 1
  // (the shard that will dial the dead endpoint), run unsharded, map the
  // renumbered ids back.
  std::vector<RowId> keep_r, keep_t;
  for (RowId i = 0; i < static_cast<RowId>(cfg.r.size()); ++i) {
    if (ShardOfKey(cfg.r.join_key(i), kShards) != 1) keep_r.push_back(i);
  }
  for (RowId i = 0; i < static_cast<RowId>(cfg.t.size()); ++i) {
    if (ShardOfKey(cfg.t.join_key(i), kShards) != 1) keep_t.push_back(i);
  }
  ASSERT_LT(keep_r.size(), cfg.r.size());
  std::vector<RowId> r_orig, t_orig;
  Config covered;
  covered.r = cfg.r.Select(keep_r, &r_orig);
  covered.t = cfg.t.Select(keep_t, &t_orig);
  covered.map = cfg.map;
  covered.pref = cfg.pref;
  auto covered_session = ProgXeSession::Open(covered.query(), options);
  ASSERT_TRUE(covered_session.ok());
  IdSet reference;
  for (const auto& [r_id, t_id] :
       SortedIds(DrainStream(covered_session->get(), 0, 0))) {
    reference.emplace_back(r_orig[r_id], t_orig[t_id]);
  }
  std::sort(reference.begin(), reference.end());

  auto live = MustStartWorker();
  // A port that *was* bound and no longer is: connection refused, fast.
  auto dead = MustStartWorker();
  const std::string dead_endpoint = Endpoint(*dead);
  dead->Stop();
  dead.reset();

  // Shard i dials workers[i % 2]: shard 0 -> live, shard 1 -> dead; with
  // max_retries=0 there is no rotation onto the live worker, so shard 1 is
  // deterministically abandoned.
  ShardOptions distributed;
  distributed.num_shards = kShards;
  distributed.workers = {Endpoint(*live), dead_endpoint};
  distributed.max_retries = 0;
  distributed.allow_partial = true;
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const IdSet delivered = SortedIds(DrainStream(stream->get(), 0, 0));
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->last_status().ok());

  const ShardCoverage coverage = (*stream)->coverage();
  EXPECT_FALSE(coverage.complete());
  EXPECT_EQ(coverage.shards, kShards);
  EXPECT_EQ(coverage.completed, kShards - 1);
  EXPECT_EQ(coverage.abandoned, 1);
  ASSERT_EQ(coverage.abandoned_shards.size(), 1u);
  EXPECT_EQ(coverage.abandoned_shards[0], 1);
  EXPECT_EQ(coverage.remote, kShards);
}

// Without allow_partial the same dead endpoint kills the stream with the
// transport's synthesized kUnavailable — the coordinator-side failure
// detector, observable end to end.
TEST(Net, DeadWorkerWithoutPartialFailsWithUnavailable) {
  Rng rng(0xd15b);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;

  auto dead = MustStartWorker();
  const std::string dead_endpoint = Endpoint(*dead);
  dead->Stop();
  dead.reset();

  ShardOptions distributed;
  distributed.num_shards = 2;
  distributed.workers = {dead_endpoint};
  distributed.max_retries = 1;
  distributed.retry_backoff = std::chrono::milliseconds(0);
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok())
      << "transient open failures must not fail Open itself";
  std::vector<ResultTuple> batch;
  EXPECT_EQ((*stream)->NextBatch(0, 0, &batch), 0u);
  EXPECT_TRUE((*stream)->Finished());
  const Status death = (*stream)->last_status();
  ASSERT_FALSE(death.ok());
  EXPECT_TRUE(death.IsUnavailable());
}

// A worker survives a *semantic* open failure (bad query) with the link
// intact: the error comes back as a Status, not a severed connection, and
// the very same connection then serves a healthy session.
TEST(Net, SemanticOpenFailureKeepsTheLinkUsable) {
  Rng rng(0xd15c);
  const Config cfg = MakeConfig(&rng, false, false);
  auto worker = MustStartWorker();
  auto pool = std::make_shared<WorkerPool>();

  // Dimensionality mismatch: preference arity != map arity.
  std::vector<Direction> dirs(cfg.map.output_dimensions() + 1,
                              Direction::kLowest);
  ProgXeOptions options;
  options.seed = 0xfeed;
  auto bad = RemoteShardStream::Open(pool, Endpoint(*worker), 0, cfg.r,
                                     cfg.t, cfg.map, Preference(dirs),
                                     options);
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.status().IsUnavailable())
      << "semantic failures must not masquerade as transport death: "
      << bad.status().ToString();

  auto good = RemoteShardStream::Open(pool, Endpoint(*worker), 0, cfg.r,
                                      cfg.t, cfg.map, cfg.pref, options);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(pool->connections_created(), 1u)
      << "the post-failure open must reuse the surviving link";
  (*good)->Close();
}

// Grid resolutions arrive unchecked from the wire. At k=4, 65536 cells per
// dimension is 2^64 cells: a wrapped count would pass the output-cell cap
// and index out of bounds in the worker. So would the auto-sized output
// grid of a 32-function map (4 cells per dimension). Each must come back
// as an error reply on a link that stays usable.
TEST(Net, RemoteOpenRejectsOverflowingGridResolution) {
  GeneratorOptions gen;
  gen.cardinality = 500;
  gen.num_attributes = 4;
  gen.join_selectivity = 0.01;
  gen.seed = 0x0f10;
  Config cfg;
  cfg.r = GenerateRelation(gen).MoveValue();
  gen.seed = 0x0f11;
  cfg.t = GenerateRelation(gen).MoveValue();
  cfg.map = MapSpec::PairwiseSum(4);
  cfg.pref = Preference::AllLowest(4);
  auto worker = MustStartWorker();
  auto pool = std::make_shared<WorkerPool>();

  ProgXeOptions output_overflow;
  output_overflow.output_cells_per_dim = 65536;
  ProgXeOptions input_overflow;
  input_overflow.input_cells_per_dim = 65536;
  for (const ProgXeOptions& options : {output_overflow, input_overflow}) {
    auto bad = RemoteShardStream::Open(pool, Endpoint(*worker), 0, cfg.r,
                                       cfg.t, cfg.map, cfg.pref, options);
    ASSERT_FALSE(bad.ok());
    EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status().ToString();
  }

  gen.num_attributes = 32;
  gen.cardinality = 200;
  const Relation wide_r = GenerateRelation(gen).MoveValue();
  gen.seed = 0x0f12;
  const Relation wide_t = GenerateRelation(gen).MoveValue();
  auto wide = RemoteShardStream::Open(
      pool, Endpoint(*worker), 0, wide_r, wide_t, MapSpec::PairwiseSum(32),
      Preference::AllLowest(32), ProgXeOptions());
  ASSERT_FALSE(wide.ok());
  EXPECT_TRUE(wide.status().IsInvalidArgument()) << wide.status().ToString();

  auto good = RemoteShardStream::Open(pool, Endpoint(*worker), 0, cfg.r,
                                      cfg.t, cfg.map, cfg.pref,
                                      ProgXeOptions());
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(pool->connections_created(), 1u)
      << "the rejected opens must leave the worker and the link usable";
  (*good)->Close();
}

// --- Remote recovery + transport chaos ---------------------------------------

std::shared_ptr<FaultInjector> MustParseFaults(const std::string& spec,
                                               uint64_t seed) {
  auto injector = FaultInjector::Parse(spec, seed);
  EXPECT_TRUE(injector.ok()) << injector.status().ToString();
  return injector.MoveValue();
}

/// Installs a net.* chaos injector for the enclosing scope; the nullptr
/// reset on destruction keeps chaos from leaking into later tests.
class ScopedNetChaos {
 public:
  explicit ScopedNetChaos(std::shared_ptr<FaultInjector> injector)
      : injector_(std::move(injector)) {
    SetNetFaultInjectorForTest(injector_.get());
  }
  ~ScopedNetChaos() { SetNetFaultInjectorForTest(nullptr); }

 private:
  std::shared_ptr<FaultInjector> injector_;
};

// Kill a worker after real pump progress: the displaced shards re-open on
// the survivor and replay their slices from scratch, re-delivering results
// the merge already holds (the dedup set drops them) — and every delivered
// set stays bit-identical to the in-process run.
TEST(Net, WorkerKillAfterProgressReplaysExactly) {
  uint64_t total_retries = 0;
  for (uint64_t seed : {uint64_t{1}, uint64_t{4}, uint64_t{12}}) {
    Rng rng(0xd15d + seed);
    const Config cfg = MakeConfig(&rng, false, seed % 2 == 0);
    ProgXeOptions options;
    options.seed = 0xfeed;
    constexpr int kShards = 4;

    ShardOptions local;
    local.num_shards = kShards;
    auto in_process = OpenProgXeStream(cfg.query(), options, local);
    ASSERT_TRUE(in_process.ok());
    const IdSet reference = SortedIds(DrainStream(in_process->get(), 0, 0));

    auto doomed = MustStartWorker();
    auto survivor = MustStartWorker();
    ShardOptions distributed;
    distributed.num_shards = kShards;
    distributed.workers = {Endpoint(*doomed), Endpoint(*survivor)};
    distributed.max_retries = 8;
    distributed.retry_backoff = std::chrono::milliseconds(1);
    auto stream = OpenProgXeStream(cfg.query(), options, distributed);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();

    // Pump a couple of budgeted rounds so the doomed worker's shards have
    // delivered work, then pull the plug mid-stream.
    std::vector<ResultTuple> batch;
    IdSet delivered;
    int pumps = 0;
    while (!(*stream)->Finished()) {
      (*stream)->NextBatch(0, 160, &batch);
      for (const ResultTuple& res : batch) {
        delivered.emplace_back(res.r_id, res.t_id);
      }
      if (++pumps == 2 && doomed != nullptr) {
        doomed->Stop();
        doomed.reset();
      }
    }
    std::sort(delivered.begin(), delivered.end());
    EXPECT_EQ(delivered, reference) << "seed=" << seed;
    EXPECT_TRUE((*stream)->last_status().ok());
    const ShardCoverage coverage = (*stream)->coverage();
    EXPECT_TRUE(coverage.complete()) << "seed=" << seed;
    total_retries += coverage.retries;
  }
  // The kill schedule must actually displace shards, or the replay path
  // went untested.
  EXPECT_GT(total_retries, 0u);
}

// There is one wire version. A kHello offering the previous or the next
// version, or a wrong magic, gets a kError reply and the worker closes the
// link before parsing any other frame; a worker acking another version
// fails the pool's checkout with InvalidArgument. A normal checkout still
// handshakes.
TEST(Net, HandshakeAcceptsOnlyTheCurrentVersion) {
  // Version 9 dropped the checkpoint groups from kOpenShard, kOpenResult
  // and kPumpResult, so a version-8 peer (kWireVersion - 1 below) must be
  // refused.
  static_assert(kWireVersion == 9);
  constexpr std::chrono::milliseconds kDeadline(2000);
  auto worker = MustStartWorker();
  const std::string endpoint = Endpoint(*worker);
  struct Hello {
    uint32_t magic;
    uint16_t version;
  };
  for (const Hello& hello :
       {Hello{kWireMagic, kWireVersion - 1}, Hello{kWireMagic, kWireVersion + 1},
        Hello{kWireMagic ^ 0xffu, kWireVersion}}) {
    auto fd = DialTcp(endpoint, kDeadline);
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    std::string payload;
    WireWriter w(&payload);
    w.PutU32(hello.magic);
    w.PutU16(hello.version);
    ASSERT_TRUE(SendFrame(*fd, MsgType::kHello, payload).ok());
    MsgType type;
    ASSERT_TRUE(RecvFrame(*fd, &type, &payload, kDeadline).ok());
    EXPECT_EQ(type, MsgType::kError) << "version=" << hello.version;
    WireReader r(payload);
    Status error;
    ASSERT_TRUE(ReadStatusPayload(&r, &error).ok());
    EXPECT_TRUE(error.IsInvalidArgument()) << error.ToString();
    // The worker closed the link: the next read hits EOF, not a frame.
    EXPECT_FALSE(RecvFrame(*fd, &type, &payload, kDeadline).ok());
    CloseFd(*fd);
  }

  WorkerPool pool;
  auto conn = pool.Checkout(endpoint);
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  EXPECT_TRUE((*conn)->healthy());
  pool.Return(std::move(*conn));

  // Coordinator side: a peer that acks a newer version is refused.
  auto listener = ListenTcp(0);
  ASSERT_TRUE(listener.ok());
  std::thread fake_worker([fd = listener->fd, kDeadline] {
    auto peer = AcceptTcp(fd);
    if (!peer.ok()) return;
    MsgType type;
    std::string payload;
    if (RecvFrame(*peer, &type, &payload, kDeadline).ok()) {
      std::string ack;
      WireWriter w(&ack);
      w.PutU32(kWireMagic);
      w.PutU16(kWireVersion + 1);
      (void)SendFrame(*peer, MsgType::kHelloAck, ack);
    }
    CloseFd(*peer);
  });
  auto refused =
      pool.Checkout("127.0.0.1:" + std::to_string(listener->port));
  fake_worker.join();
  CloseFd(listener->fd);
  EXPECT_TRUE(refused.status().IsInvalidArgument())
      << refused.status().ToString();
}

// The tails version 8 appended and version 9 dropped: kOpenShard's
// u8 has_checkpoint (+ checkpoint group when set), kOpenResult's resume
// info and kPumpResult's u8 has_checkpoint (+ group). The group was u32 k,
// three u64s, a counted u32 skip list and the stats.
std::string V8CheckpointTail(bool with_group) {
  std::string tail;
  WireWriter w(&tail);
  w.PutU8(with_group ? 1 : 0);
  if (with_group) {
    w.PutU32(2);   // k
    w.PutU64(23);  // delivered
    w.PutU64(64);  // region_count
    w.PutU64(0);   // pairs saved
    w.PutU32(2);   // skip count
    w.PutU32(3);
    w.PutU32(9);
    WriteStats(ProgXeStats{}, &w);
  }
  return tail;
}

std::string V8ResumeInfoTail() {
  std::string tail;
  WireWriter w(&tail);
  w.PutU8(1);    // resumed
  w.PutU32(2);   // regions_skipped
  w.PutU64(99);  // pairs saved
  return tail;
}

/// Receives the next non-heartbeat frame.
Status RecvReply(int fd, MsgType* type, std::string* payload) {
  for (;;) {
    PROGXE_RETURN_NOT_OK(
        RecvFrame(fd, type, payload, std::chrono::milliseconds(5000)));
    if (*type != MsgType::kHeartbeat) return Status::OK();
  }
}

// A v9 worker reads kOpenShard to its T slice and nothing more: a v8
// checkpoint tail after it is trailing garbage, so the worker answers
// kError (InvalidArgument) and drops the link instead of opening a session.
// The same assignment without the tail opens.
TEST(Net, OpenShardWithV8CheckpointTailIsRejected) {
  Rng rng(0xd161);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;
  std::string assignment;
  WireWriter w(&assignment);
  w.PutU32(0);  // shard index
  WriteOptions(options, &w);
  WriteMapSpec(cfg.map, &w);
  WritePreference(cfg.pref, &w);
  WriteRelation(cfg.r, &w);
  WriteRelation(cfg.t, &w);

  auto worker = MustStartWorker();
  for (const std::string& tail :
       {std::string(), V8CheckpointTail(false), V8CheckpointTail(true)}) {
    SCOPED_TRACE(testing::Message() << "tail bytes=" << tail.size());
    auto fd = DialTcp(Endpoint(*worker), std::chrono::milliseconds(2000));
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    std::string payload;
    WireWriter hello(&payload);
    hello.PutU32(kWireMagic);
    hello.PutU16(kWireVersion);
    ASSERT_TRUE(SendFrame(*fd, MsgType::kHello, payload).ok());
    MsgType type;
    ASSERT_TRUE(RecvReply(*fd, &type, &payload).ok());
    ASSERT_EQ(type, MsgType::kHelloAck);

    ASSERT_TRUE(SendFrame(*fd, MsgType::kOpenShard, assignment + tail).ok());
    ASSERT_TRUE(RecvReply(*fd, &type, &payload).ok());
    WireReader r(payload);
    Status status;
    ASSERT_TRUE(ReadStatusPayload(&r, &status).ok());
    if (tail.empty()) {
      EXPECT_EQ(type, MsgType::kOpenResult);
      EXPECT_TRUE(status.ok()) << status.ToString();
    } else {
      EXPECT_EQ(type, MsgType::kError);
      EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
      EXPECT_FALSE(RecvReply(*fd, &type, &payload).ok())
          << "the worker must close the link after a malformed assignment";
    }
    CloseFd(*fd);
  }
}

// The coordinator reads kOpenResult to its stats and kPumpResult to its
// stats: a fake v9 worker that appends the v8 resume info or checkpoint
// tail fails the open, or the pump, with InvalidArgument, and the pump
// delivers none of the batch it carried.
TEST(Net, ResultFramesWithV8TailsAreRejected) {
  Rng rng(0xd162);
  const Config cfg = MakeConfig(&rng, false, false);
  const int k = cfg.map.output_dimensions();
  struct Case {
    std::string open_tail;
    std::string pump_tail;
  };
  for (const Case& c : {Case{V8ResumeInfoTail(), ""},
                        Case{"", V8CheckpointTail(false)},
                        Case{"", V8CheckpointTail(true)}}) {
    SCOPED_TRACE(testing::Message() << "open tail=" << c.open_tail.size()
                                    << " pump tail=" << c.pump_tail.size());
    auto listener = ListenTcp(0);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    std::thread fake_worker([fd = listener->fd, &c, k] {
      auto peer = AcceptTcp(fd);
      if (!peer.ok()) return;
      MsgType type;
      std::string payload;
      const std::vector<double> bound(static_cast<size_t>(k), 0.0);
      while (RecvReply(*peer, &type, &payload).ok()) {
        std::string reply;
        WireWriter w(&reply);
        MsgType reply_type;
        if (type == MsgType::kHello) {
          w.PutU32(kWireMagic);
          w.PutU16(kWireVersion);
          reply_type = MsgType::kHelloAck;
        } else if (type == MsgType::kOpenShard) {
          WriteStatusPayload(Status::OK(), &w);
          WriteWatermark(true, bound, &w);
          WriteStats(ProgXeStats{}, &w);
          reply += c.open_tail;
          reply_type = MsgType::kOpenResult;
        } else if (type == MsgType::kPump) {
          ResultTuple tuple;
          tuple.r_id = 1;
          tuple.t_id = 2;
          tuple.values.assign(static_cast<size_t>(k), 0.5);
          WriteStatusPayload(Status::OK(), &w);
          WriteResultBatch({tuple}, k, &w);
          WriteWatermark(true, bound, &w);
          WriteStats(ProgXeStats{}, &w);
          reply += c.pump_tail;
          reply_type = MsgType::kPumpResult;
        } else {
          reply_type = MsgType::kCloseAck;
        }
        if (!SendFrame(*peer, reply_type, reply).ok()) break;
      }
      CloseFd(*peer);
    });
    {
      // A failed open or a failed pump drops the link, which ends the fake
      // worker's loop.
      auto pool = std::make_shared<WorkerPool>();
      auto remote = RemoteShardStream::Open(
          pool, "127.0.0.1:" + std::to_string(listener->port), 0, cfg.r,
          cfg.t, cfg.map, cfg.pref, ProgXeOptions());
      if (!c.open_tail.empty()) {
        EXPECT_TRUE(remote.status().IsInvalidArgument())
            << remote.status().ToString();
      } else if (remote.ok()) {
        std::vector<ResultTuple> batch;
        EXPECT_EQ((*remote)->NextBatch(0, 64, &batch), 0u);
        EXPECT_TRUE(batch.empty());
        EXPECT_TRUE((*remote)->last_status().IsInvalidArgument())
            << (*remote)->last_status().ToString();
        (*remote)->Close();
      } else {
        ADD_FAILURE() << remote.status().ToString();
      }
    }
    fake_worker.join();
    CloseFd(listener->fd);
  }
}

// Loopback run under seeded net.send/net.recv/net.frame chaos: torn
// writes, dropped reads and corrupt length prefixes on both sides of the
// link. The schedules are bounded (max=), so with enough retry budget the
// stream must complete bit-identically — no hangs, no retractions.
TEST(Net, TransportChaosLoopbackStaysExact) {
  Rng rng(0xd15f);
  const Config cfg = MakeConfig(&rng, false, true);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 4;

  ShardOptions local;
  local.num_shards = kShards;
  auto in_process = OpenProgXeStream(cfg.query(), options, local);
  ASSERT_TRUE(in_process.ok());
  const IdSet reference = SortedIds(DrainStream(in_process->get(), 0, 0));

  // The chaos scope must outlive the workers: their handler threads consult
  // the process-wide injector on every RecvFrame, so it is installed before
  // the first worker starts and removed only after the last one has joined.
  ScopedNetChaos chaos(MustParseFaults(
      "net.send:p=0.2,max=4;net.recv:p=0.2,max=4;net.frame:p=0.2,max=3",
      0xc4a05));
  auto worker_a = MustStartWorker();
  auto worker_b = MustStartWorker();
  NetOptions net;
  net.circuit_cooldown = std::chrono::milliseconds(5);
  auto pool = std::make_shared<WorkerPool>(net);

  ShardOptions distributed;
  distributed.num_shards = kShards;
  distributed.workers = {Endpoint(*worker_a), Endpoint(*worker_b)};
  distributed.worker_pool = pool;
  distributed.max_retries = 16;
  distributed.retry_backoff = std::chrono::milliseconds(1);
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const IdSet delivered = SortedIds(DrainStream(stream->get(), 0, 128));
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->last_status().ok());
  EXPECT_TRUE((*stream)->coverage().complete());
}

// The circuit breaker: a dead endpoint accumulates consecutive transport
// failures, its circuit opens (gauge + counter move), and shard placement
// routes around it onto the live worker — the stream still delivers the
// full bit-identical skyline.
TEST(Net, CircuitBreakerRoutesAroundDeadEndpoint) {
  Rng rng(0xd160);
  const Config cfg = MakeConfig(&rng, false, false);
  ProgXeOptions options;
  options.seed = 0xfeed;
  constexpr int kShards = 2;

  ShardOptions local;
  local.num_shards = kShards;
  auto in_process = OpenProgXeStream(cfg.query(), options, local);
  ASSERT_TRUE(in_process.ok());
  const IdSet reference = SortedIds(DrainStream(in_process->get(), 0, 0));

  auto live = MustStartWorker();
  auto dead = MustStartWorker();
  const std::string dead_endpoint = Endpoint(*dead);
  dead->Stop();
  dead.reset();

  NetOptions net;
  net.circuit_failure_threshold = 1;
  net.circuit_cooldown = std::chrono::seconds(60);  // stays open to the end
  auto pool = std::make_shared<WorkerPool>(net);
  const NetStatsSnapshot before = SnapshotNetStats();

  // Shard 0 dials workers[0] (the dead endpoint) first; the breaker must
  // open on the dial failure and the retry must route onto the live one.
  ShardOptions distributed;
  distributed.num_shards = kShards;
  distributed.workers = {dead_endpoint, Endpoint(*live)};
  distributed.worker_pool = pool;
  distributed.max_retries = 6;
  distributed.retry_backoff = std::chrono::milliseconds(0);
  auto stream = OpenProgXeStream(cfg.query(), options, distributed);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  const IdSet delivered = SortedIds(DrainStream(stream->get(), 0, 0));
  EXPECT_EQ(delivered, reference);
  EXPECT_TRUE((*stream)->last_status().ok());
  EXPECT_TRUE((*stream)->coverage().complete());

  EXPECT_TRUE(pool->IsOpen(dead_endpoint));
  EXPECT_EQ(pool->open_circuits(), 1);
  const NetStatsSnapshot after = SnapshotNetStats();
  EXPECT_GT(after.circuits_opened, before.circuits_opened);
  EXPECT_GT(after.open_circuits, before.open_circuits);
  // Drop every co-owner (stream, options copy, local handle): the last
  // teardown must release the open-circuits gauge.
  stream->reset();
  distributed.worker_pool.reset();
  pool.reset();
  EXPECT_EQ(SnapshotNetStats().open_circuits, before.open_circuits);
}

}  // namespace
}  // namespace progxe
