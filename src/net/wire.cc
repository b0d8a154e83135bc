#include "net/wire.h"

#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#include "common/macros.h"

namespace progxe {

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello:
      return "hello";
    case MsgType::kHelloAck:
      return "hello_ack";
    case MsgType::kOpenShard:
      return "open_shard";
    case MsgType::kOpenResult:
      return "open_result";
    case MsgType::kPump:
      return "pump";
    case MsgType::kPumpResult:
      return "pump_result";
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kClose:
      return "close";
    case MsgType::kCloseAck:
      return "close_ack";
    case MsgType::kPing:
      return "ping";
    case MsgType::kPong:
      return "pong";
    case MsgType::kError:
      return "error";
  }
  return "unknown";
}

// --- WireWriter ------------------------------------------------------------

void WireWriter::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v & 0xff));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void WireWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    PutU8(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    PutU8(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void WireWriter::PutDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_->append(s.data(), s.size());
}

void WireWriter::PutDoubles(const std::vector<double>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (double d : v) PutDouble(d);
}

// --- WireReader ------------------------------------------------------------

bool WireReader::Need(size_t n) {
  if (!status_.ok()) return false;
  if (data_.size() - pos_ < n) {
    status_ = Status::InvalidArgument("wire payload truncated");
    return false;
  }
  return true;
}

void WireReader::Fail(std::string msg) {
  if (status_.ok()) status_ = Status::InvalidArgument(std::move(msg));
}

bool WireReader::GetU8(uint8_t* v) {
  if (!Need(1)) return false;
  *v = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool WireReader::GetU16(uint16_t* v) {
  if (!Need(2)) return false;
  uint16_t x = 0;
  for (int i = 0; i < 2; ++i) {
    x |= static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  *v = x;
  return true;
}

bool WireReader::GetU32(uint32_t* v) {
  if (!Need(4)) return false;
  uint32_t x = 0;
  for (int i = 0; i < 4; ++i) {
    x |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  *v = x;
  return true;
}

bool WireReader::GetU64(uint64_t* v) {
  if (!Need(8)) return false;
  uint64_t x = 0;
  for (int i = 0; i < 8; ++i) {
    x |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  *v = x;
  return true;
}

bool WireReader::GetI64(int64_t* v) {
  uint64_t u;
  if (!GetU64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool WireReader::GetDouble(double* v) {
  uint64_t bits;
  if (!GetU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

bool WireReader::GetString(std::string* s) {
  uint32_t len;
  if (!GetU32(&len)) return false;
  if (!Need(len)) return false;
  s->assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

bool WireReader::GetDoubles(std::vector<double>* v) {
  uint32_t count;
  if (!GetU32(&count)) return false;
  // The claimed count must fit the bytes actually present before any
  // allocation happens — a corrupted count otherwise drives a huge resize.
  if (!Need(static_cast<size_t>(count) * 8)) return false;
  v->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!GetDouble(&(*v)[i])) return false;
  }
  return true;
}

// --- Status ----------------------------------------------------------------

void WriteStatusPayload(const Status& status, WireWriter* w) {
  w->PutU8(static_cast<uint8_t>(status.code()));
  w->PutString(status.message());
}

Status ReadStatusPayload(WireReader* r, Status* out) {
  uint8_t code;
  std::string msg;
  if (!r->GetU8(&code) || !r->GetString(&msg)) return r->status();
  if (code > static_cast<uint8_t>(StatusCode::kCancelled)) {
    r->Fail("wire status carries an unknown code");
    return r->status();
  }
  *out = code == 0 ? Status::OK()
                   : Status(static_cast<StatusCode>(code), std::move(msg));
  return Status::OK();
}

// --- Relation --------------------------------------------------------------

namespace {
/// Keeps a corrupted attribute count from multiplying into a huge per-row
/// width; real schemas are a handful of attributes.
constexpr uint32_t kMaxWireAttributes = 4096;
}  // namespace

void WriteRelation(const Relation& rel, WireWriter* w) {
  const Schema& schema = rel.schema();
  w->PutU32(static_cast<uint32_t>(schema.num_attributes()));
  for (const std::string& name : schema.attribute_names()) w->PutString(name);
  w->PutString(schema.join_name());
  const size_t rows = rel.size();
  w->PutU64(rows);
  for (size_t i = 0; i < rows; ++i) {
    for (double v : rel.attrs(static_cast<RowId>(i))) w->PutDouble(v);
  }
  for (JoinKey key : rel.join_keys()) w->PutI64(key);
}

Status ReadRelation(WireReader* r, Relation* out) {
  uint32_t width;
  if (!r->GetU32(&width)) return r->status();
  if (width > kMaxWireAttributes) {
    r->Fail("wire relation claims an absurd attribute count");
    return r->status();
  }
  std::vector<std::string> names(width);
  for (uint32_t a = 0; a < width; ++a) {
    if (!r->GetString(&names[a])) return r->status();
  }
  std::string join_name;
  if (!r->GetString(&join_name)) return r->status();
  uint64_t rows;
  if (!r->GetU64(&rows)) return r->status();
  // Each row costs width doubles plus one join key: validate the claim
  // against the bytes present before reserving anything. Divide instead of
  // multiplying — `rows` is peer-controlled and rows * per_row can wrap
  // uint64, which would let an absurd count slip past the check.
  const uint64_t per_row = (static_cast<uint64_t>(width) + 1) * 8;
  if (rows > r->remaining() / per_row) {
    r->Fail("wire relation truncated (row count exceeds payload)");
    return r->status();
  }
  Relation rel(Schema(std::move(names), std::move(join_name)));
  rel.Reserve(rows);
  std::vector<double> attrs(width);
  std::vector<double> values;
  values.resize(static_cast<size_t>(rows) * width);
  for (size_t i = 0; i < values.size(); ++i) {
    if (!r->GetDouble(&values[i])) return r->status();
  }
  std::vector<JoinKey> keys(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    int64_t key;
    if (!r->GetI64(&key)) return r->status();
    keys[i] = key;
  }
  for (uint64_t i = 0; i < rows; ++i) {
    std::memcpy(attrs.data(), values.data() + i * width,
                width * sizeof(double));
    rel.Append(attrs, keys[i]);
  }
  *out = std::move(rel);
  return Status::OK();
}

// --- MapSpec ---------------------------------------------------------------

void WriteMapSpec(const MapSpec& spec, WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(spec.funcs().size()));
  for (const MapFunc& f : spec.funcs()) {
    w->PutU32(static_cast<uint32_t>(f.terms().size()));
    for (const MapTerm& t : f.terms()) {
      w->PutU8(static_cast<uint8_t>(t.side));
      w->PutI64(t.attr_index);
      w->PutDouble(t.weight);
    }
    w->PutDouble(f.constant());
    w->PutU8(static_cast<uint8_t>(f.transform()));
    w->PutString(f.name());
  }
}

Status ReadMapSpec(WireReader* r, MapSpec* out) {
  uint32_t nfuncs;
  if (!r->GetU32(&nfuncs)) return r->status();
  if (nfuncs > kMaxWireAttributes) {
    r->Fail("wire map spec claims an absurd function count");
    return r->status();
  }
  std::vector<MapFunc> funcs;
  funcs.reserve(nfuncs);
  for (uint32_t j = 0; j < nfuncs; ++j) {
    uint32_t nterms;
    if (!r->GetU32(&nterms)) return r->status();
    if (nterms > kMaxWireAttributes) {
      r->Fail("wire map func claims an absurd term count");
      return r->status();
    }
    std::vector<MapTerm> terms(nterms);
    for (uint32_t i = 0; i < nterms; ++i) {
      uint8_t side;
      int64_t attr;
      if (!r->GetU8(&side) || !r->GetI64(&attr) ||
          !r->GetDouble(&terms[i].weight)) {
        return r->status();
      }
      if (side > static_cast<uint8_t>(Side::kT)) {
        r->Fail("wire map term carries an unknown side");
        return r->status();
      }
      terms[i].side = static_cast<Side>(side);
      terms[i].attr_index = static_cast<int>(attr);
    }
    double constant;
    uint8_t transform;
    std::string name;
    if (!r->GetDouble(&constant) || !r->GetU8(&transform) ||
        !r->GetString(&name)) {
      return r->status();
    }
    if (transform > static_cast<uint8_t>(Transform::kSaturating)) {
      r->Fail("wire map func carries an unknown transform");
      return r->status();
    }
    funcs.emplace_back(std::move(terms), constant,
                       static_cast<Transform>(transform), std::move(name));
  }
  *out = MapSpec(std::move(funcs));
  return Status::OK();
}

// --- Preference ------------------------------------------------------------

void WritePreference(const Preference& pref, WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(pref.dimensions()));
  for (Direction d : pref.directions()) w->PutU8(static_cast<uint8_t>(d));
}

Status ReadPreference(WireReader* r, Preference* out) {
  uint32_t k;
  if (!r->GetU32(&k)) return r->status();
  if (k > kMaxWireAttributes) {
    r->Fail("wire preference claims an absurd dimensionality");
    return r->status();
  }
  std::vector<Direction> dirs(k);
  for (uint32_t i = 0; i < k; ++i) {
    uint8_t d;
    if (!r->GetU8(&d)) return r->status();
    if (d > static_cast<uint8_t>(Direction::kHighest)) {
      r->Fail("wire preference carries an unknown direction");
      return r->status();
    }
    dirs[i] = static_cast<Direction>(d);
  }
  *out = Preference(std::move(dirs));
  return Status::OK();
}

// --- ProgXeOptions ---------------------------------------------------------

namespace {
bool FitsInt(int64_t v) {
  return v >= std::numeric_limits<int>::min() &&
         v <= std::numeric_limits<int>::max();
}
}  // namespace

void WriteOptions(const ProgXeOptions& options, WireWriter* w) {
  w->PutU8(static_cast<uint8_t>(options.ordering));
  w->PutU8(options.push_through ? 1 : 0);
  w->PutI64(options.input_cells_per_dim);
  w->PutI64(options.output_cells_per_dim);
  w->PutU64(options.seed);
  w->PutI64(options.fault_instance);
  w->PutU64(options.max_results);
  // Refinement seed travels inline: it affects the regions_discarded_seed
  // counter, which the bit-identity contract covers.
  if (options.refinement_seed != nullptr) {
    w->PutU8(1);
    w->PutI64(options.refinement_seed->k);
    w->PutDoubles(options.refinement_seed->canonical);
  } else {
    w->PutU8(0);
  }
}

Status ReadOptions(WireReader* r, ProgXeOptions* out) {
  ProgXeOptions o;
  uint8_t ordering, push_through;
  int64_t in_cpd, out_cpd, fault_instance;
  uint64_t seed, max_results;
  if (!r->GetU8(&ordering) || !r->GetU8(&push_through) ||
      !r->GetI64(&in_cpd) || !r->GetI64(&out_cpd) || !r->GetU64(&seed) ||
      !r->GetI64(&fault_instance) || !r->GetU64(&max_results)) {
    return r->status();
  }
  if (ordering > static_cast<uint8_t>(OrderingMode::kSequential)) {
    r->Fail("wire options carry an unknown enum value");
    return r->status();
  }
  if (!FitsInt(in_cpd) || !FitsInt(out_cpd) || !FitsInt(fault_instance)) {
    r->Fail("wire options carry an int field out of range");
    return r->status();
  }
  o.ordering = static_cast<OrderingMode>(ordering);
  o.push_through = push_through != 0;
  o.input_cells_per_dim = static_cast<int>(in_cpd);
  o.output_cells_per_dim = static_cast<int>(out_cpd);
  o.seed = seed;
  o.fault_instance = static_cast<int>(fault_instance);
  o.max_results = max_results;
  uint8_t has_seed;
  if (!r->GetU8(&has_seed)) return r->status();
  if (has_seed != 0) {
    auto refinement = std::make_shared<RefinementSeed>();
    int64_t k;
    if (!r->GetI64(&k) || !r->GetDoubles(&refinement->canonical)) {
      return r->status();
    }
    if (!FitsInt(k)) {
      r->Fail("wire refinement seed k out of range");
      return r->status();
    }
    refinement->k = static_cast<int>(k);
    o.refinement_seed = std::move(refinement);
  }
  *out = std::move(o);
  return Status::OK();
}

// --- ProgXeStats -----------------------------------------------------------

void WriteStats(const ProgXeStats& s, WireWriter* w) {
  for (const StatField<ProgXeStats>& f : kProgXeStatsFields) {
    if (f.real != nullptr) {
      w->PutDouble(s.*f.real);
    } else {
      w->PutU64(s.*f.count);
    }
  }
}

Status ReadStats(WireReader* r, ProgXeStats* out) {
  ProgXeStats s;
  for (const StatField<ProgXeStats>& f : kProgXeStatsFields) {
    const bool ok = f.real != nullptr ? r->GetDouble(&(s.*f.real))
                                      : r->GetU64(&(s.*f.count));
    if (!ok) return r->status();
  }
  *out = s;
  return Status::OK();
}

// --- Result batches --------------------------------------------------------

void WriteResultBatch(const std::vector<ResultTuple>& batch, int k,
                      WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(k));
  w->PutU32(static_cast<uint32_t>(batch.size()));
  for (const ResultTuple& t : batch) {
    w->PutU32(t.r_id);
    w->PutU32(t.t_id);
    for (double v : t.values) w->PutDouble(v);
  }
}

Status ReadResultBatch(WireReader* r, std::vector<ResultTuple>* out) {
  uint32_t k, count;
  if (!r->GetU32(&k) || !r->GetU32(&count)) return r->status();
  if (k > kMaxWireAttributes) {
    r->Fail("wire result batch claims an absurd dimensionality");
    return r->status();
  }
  const uint64_t per_tuple = 8 + static_cast<uint64_t>(k) * 8;
  if (static_cast<uint64_t>(count) * per_tuple > r->remaining()) {
    r->Fail("wire result batch truncated (count exceeds payload)");
    return r->status();
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ResultTuple t;
    if (!r->GetU32(&t.r_id) || !r->GetU32(&t.t_id)) return r->status();
    t.values.resize(k);
    for (uint32_t j = 0; j < k; ++j) {
      if (!r->GetDouble(&t.values[j])) return r->status();
    }
    out->push_back(std::move(t));
  }
  return Status::OK();
}

// --- Watermarks ------------------------------------------------------------

void WriteWatermark(bool has_bound, const std::vector<double>& bound,
                    WireWriter* w) {
  w->PutU8(has_bound ? 1 : 0);
  if (has_bound) w->PutDoubles(bound);
}

Status ReadWatermark(WireReader* r, bool* has_bound,
                     std::vector<double>* bound) {
  uint8_t has;
  if (!r->GetU8(&has)) return r->status();
  *has_bound = has != 0;
  bound->clear();
  if (*has_bound && !r->GetDoubles(bound)) return r->status();
  return Status::OK();
}

}  // namespace progxe
