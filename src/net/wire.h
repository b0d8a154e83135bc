// Wire protocol of the distributed shard transport.
//
// Coordinator and shard workers speak a compact length-prefixed binary
// protocol over TCP: every message is one *frame*
//
//   [u32 payload_len][u8 type][payload bytes]        (little-endian)
//
// whose payload is a flat field sequence encoded by WireWriter and decoded
// by WireReader. Integers are fixed-width little-endian; doubles travel as
// their raw IEEE-754 bit pattern (bit-lossless, so a distributed run can be
// *bit-identical* to an in-process one); strings and vectors carry a u32
// length prefix. Decoding is fully bounds-checked: a truncated, oversized
// or corrupted payload yields a non-OK Status, never a crash or an
// allocation proportional to an attacker-controlled count (claimed element
// counts are validated against the bytes actually present first).
//
// Frame types (the session protocol is documented in
// docs/worker_protocol.md; keep it in sync):
//
//   kHello / kHelloAck     magic + version handshake, once per connection
//   kOpenShard             shard assignment: options + map + preference +
//                          both relation slices (-> one ProgXeSession)
//   kOpenResult            Status + initial watermark + prepare-phase stats
//   kPump                  budgeted NextBatch request (max_results/max_pairs)
//   kPumpResult            Status + candidate batch + watermark + stats
//   kHeartbeat             liveness signal during a long pump/open
//   kClose / kCloseAck     tear down the connection's session, keep the link
//   kPing / kPong          pool liveness probe
//   kError                 protocol-level failure (Status payload), link dies
//
// The watermark is the shard's RemainingLowerBound frontier corner: a u8
// has_bound flag plus k canonical doubles. has_bound == 0 means the shard
// is exhausted (nothing it may still emit), which is exactly the
// session-side RemainingLowerBound() == false condition the merge's
// release check consumes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/relation.h"
#include "mapping/map_expr.h"
#include "prefs/preference.h"
#include "progxe/config.h"

namespace progxe {

/// Connection handshake constants. There is one wire version: the client's
/// kHello carries kWireMagic and kWireVersion, and the worker acks with the
/// same pair. Any other first frame, magic or version — older or newer —
/// fails the handshake before any other frame is parsed: the worker replies
/// kError and closes; the pool reports InvalidArgument. Bump kWireVersion
/// whenever any payload layout changes.
///
/// Version 7 dropped `max_output_cells` from the options group: the
/// output-cell cap is fixed, so a peer cannot raise it. Version 8 dropped
/// the partitioning byte: the input grid is the one partitioner. Version 9
/// dropped the resume checkpoint: kOpenShard ends with the T slice,
/// kOpenResult with the prepare-phase stats and kPumpResult with the
/// post-pump stats (a retried shard replays its slice from scratch).
inline constexpr uint32_t kWireMagic = 0x50584531;  // "PXE1"
inline constexpr uint16_t kWireVersion = 9;

/// Hard ceiling on one frame's payload. Large enough for a full relation
/// slice of any workload this engine targets; small enough that a corrupted
/// length prefix cannot drive a multi-gigabyte allocation.
inline constexpr uint32_t kMaxFramePayload = 256u * 1024 * 1024;

enum class MsgType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kOpenShard = 3,
  kOpenResult = 4,
  kPump = 5,
  kPumpResult = 6,
  kHeartbeat = 7,
  kClose = 8,
  kCloseAck = 9,
  kPing = 10,
  kPong = 11,
  kError = 12,
};

const char* MsgTypeName(MsgType type);

/// Appends fixed-width little-endian fields to a payload buffer. The
/// buffer is a plain std::string so a finished payload hands straight to
/// SendFrame without a copy.
class WireWriter {
 public:
  explicit WireWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  /// Raw IEEE-754 bits: lossless for every value including NaN payloads,
  /// infinities and signed zero.
  void PutDouble(double v);
  /// u32 length + bytes.
  void PutString(std::string_view s);
  /// u32 count + raw bit patterns.
  void PutDoubles(const std::vector<double>& v);

 private:
  std::string* out_;
};

/// Bounds-checked reader over one received payload. Every accessor returns
/// false once the payload is exhausted or malformed; the first failure is
/// latched and detailed by status(). Reads after a failure are no-ops, so
/// decode functions can run a straight-line field sequence and check once.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v);
  bool GetU16(uint16_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI64(int64_t* v);
  bool GetDouble(double* v);
  bool GetString(std::string* s);
  bool GetDoubles(std::vector<double>* v);

  /// True while no read has failed.
  bool ok() const { return status_.ok(); }
  /// OK, or the first decode failure (kInvalidArgument with context).
  Status status() const { return status_; }
  /// Fails the reader explicitly (semantic validation inside a decoder).
  void Fail(std::string msg);

  size_t remaining() const { return data_.size() - pos_; }
  /// True once every payload byte was consumed — decoders call this last so
  /// trailing garbage is rejected, not silently ignored.
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  bool Need(size_t n);

  std::string_view data_;
  size_t pos_ = 0;
  Status status_;
};

// --- Field-group serializers -----------------------------------------------
// Each Write* appends one self-delimiting field group; the matching Read*
// consumes exactly that group and reports malformed input through the
// reader (checked via reader.status() or the returned Status).

void WriteStatusPayload(const Status& status, WireWriter* w);
Status ReadStatusPayload(WireReader* r, Status* out);

void WriteRelation(const Relation& rel, WireWriter* w);
Status ReadRelation(WireReader* r, Relation* out);

void WriteMapSpec(const MapSpec& spec, WireWriter* w);
Status ReadMapSpec(WireReader* r, MapSpec* out);

void WritePreference(const Preference& pref, WireWriter* w);
Status ReadPreference(WireReader* r, Preference* out);

/// Serializes every *value* field of ProgXeOptions (including an inline
/// refinement seed) — everything that affects results or counters. The
/// pointer fields (faults, prepare_cache) are coordinator-local by design
/// and decode as null. ReadOptions rejects an unknown enum value and an
/// int field outside int range.
void WriteOptions(const ProgXeOptions& options, WireWriter* w);
Status ReadOptions(WireReader* r, ProgXeOptions* out);

/// Every kProgXeStatsFields entry in list order: eight bytes each, a u64
/// or (sigma_used) a double. Reordering the list changes the wire format.
void WriteStats(const ProgXeStats& stats, WireWriter* w);
Status ReadStats(WireReader* r, ProgXeStats* out);

/// Candidate batch: u32 k, u32 count, then per tuple (u32 r_id, u32 t_id,
/// k doubles). `k` may be 0 only for an empty batch.
void WriteResultBatch(const std::vector<ResultTuple>& batch, int k,
                      WireWriter* w);
Status ReadResultBatch(WireReader* r, std::vector<ResultTuple>* out);

/// RemainingLowerBound watermark: u8 has_bound + k doubles when present.
/// `has_bound == false` <=> the shard is exhausted.
void WriteWatermark(bool has_bound, const std::vector<double>& bound,
                    WireWriter* w);
Status ReadWatermark(WireReader* r, bool* has_bound,
                     std::vector<double>* bound);

}  // namespace progxe
