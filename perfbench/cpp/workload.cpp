#include "workload.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "echo/messages.hpp"
#include "pbio/decode.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/encode.hpp"
#include "pbio/randgen.hpp"
#include "pbuf/schema.hpp"
#include "transport/framing.hpp"

namespace perfbench {

using morph::ByteBuffer;
using morph::RecordArena;
using morph::Rng;
using morph::core::MorphChain;
using morph::core::TransformSpec;
using morph::echo::SinkEncoding;
using morph::pbio::FormatBuilder;
using morph::pbio::FormatPtr;

struct Workload::Revision {
  FormatPtr format;
  // Chain from `format` to each sink's revision; null entries are
  // identity (the sink reads the publisher's own format) or, for churn's
  // add-field revisions, reconciliation with a constructed reference.
  std::vector<std::shared_ptr<MorphChain>> chains;
  std::vector<std::unique_ptr<TransformSpec>> specs;  // keep chain specs alive
  std::vector<const void*> pool;                      // kPool inputs
  std::vector<ByteBuffer> frames;                     // pool entries as kData frames
  std::vector<std::vector<ByteBuffer>> expected;      // [sink][pool]
  bool reconcile_only = false;
  bool prepared = false;
  uint64_t index = 0;  // revision number (churn) or 0
};

namespace {

/// The ~100 B scalar telemetry record: fig10's four fields plus eight more
/// so a record is about 100 bytes on the wire.
FormatBuilder telemetry_fields(FormatBuilder b) {
  return std::move(b.add_int("seq", 8)
                       .add_float("x", 8)
                       .add_int("e", 2)
                       .add_int("total", 8)
                       .add_float("y", 8)
                       .add_float("z", 8)
                       .add_int("cnt", 4)
                       .add_int("flags", 2)
                       .add_int("t", 8)
                       .add_float("w", 8)
                       .add_int("a", 4)
                       .add_int("b", 8));
}

FormatPtr telemetry_format(const std::string& name) {
  return telemetry_fields(FormatBuilder(name)).build();
}

/// fig10's per-hop retro-transform, widened to every field: each hop
/// rewrites all twelve, with narrowing stores (e, flags) so fused execution
/// must reproduce per-hop truncation.
TransformSpec telemetry_hop(const FormatPtr& src, const FormatPtr& dst) {
  return TransformSpec{src, dst,
                       "old.seq = new.seq + 1;"
                       "old.x = new.x * 1.5;"
                       "old.e = new.e + 21;"
                       "old.total = new.total + new.seq;"
                       "old.y = new.y - 0.25;"
                       "old.z = new.z * 0.5;"
                       "old.cnt = new.cnt + 3;"
                       "old.flags = new.flags + 1;"
                       "old.t = new.t + 1000;"
                       "old.w = new.w + new.x;"
                       "old.a = new.a + 7;"
                       "old.b = new.b - new.cnt;"};
}

struct FieldDef {
  const char* name;
  bool is_float;
  uint32_t size;
};
constexpr FieldDef kTelemetryFields[] = {
    {"seq", false, 8}, {"x", true, 8},  {"e", false, 2},     {"total", false, 8},
    {"y", true, 8},    {"z", true, 8},  {"cnt", false, 4},   {"flags", false, 2},
    {"t", false, 8},   {"w", true, 8},  {"a", false, 4},     {"b", false, 8},
};

/// Decode-then-morph with the hop-wise oracle, encoded in the chain's
/// destination format.
ByteBuffer oracle(const MorphChain& chain, const FormatPtr& src_fmt, const void* record) {
  ByteBuffer wire;
  morph::pbio::Encoder(src_fmt).encode(record, wire);
  RecordArena arena;
  morph::pbio::ConversionPlan plan(src_fmt, chain.src_format());
  void* native = plan.execute(wire.data(), wire.size(), arena);
  void* out = chain.apply_hopwise(native, arena);
  ByteBuffer enc;
  morph::pbio::Encoder(chain.dst_format()).encode(out, enc);
  return enc;
}

ByteBuffer encode(const FormatPtr& fmt, const void* record) {
  ByteBuffer enc;
  morph::pbio::Encoder(fmt).encode(record, enc);
  return enc;
}

}  // namespace

Workload::Workload(const std::string& name, uint64_t seed) : name_(name), seed_(seed) {
  if (name == "telemetry-small") {
    nominal_eps_ = 12000;
    ladder_start_eps_ = 30000;
    build_telemetry();
  } else if (name == "response-10k-pbuf") {
    nominal_eps_ = 1000;
    ladder_start_eps_ = 2500;
    build_response();
  } else if (name == "revision-churn") {
    nominal_eps_ = 12000;
    ladder_start_eps_ = 30000;
    churn_ = true;
    build_churn_catalog();
  } else {
    throw std::runtime_error("unknown workload: " + name);
  }
}

Workload::~Workload() = default;

void Workload::build_telemetry() {
  // Revisions 0..4; the publisher sends 4, sinks read 4 (identity),
  // 2 (2-hop fused chain) and 0 (4-hop fused chain).
  constexpr int kNewest = 4;
  std::vector<FormatPtr> revs;
  for (int v = 0; v <= kNewest; ++v) revs.push_back(telemetry_format("TelemetryV" + std::to_string(v)));
  std::vector<TransformSpec> hops;  // hops[v-1]: v -> v-1
  for (int v = 1; v <= kNewest; ++v) hops.push_back(telemetry_hop(revs[v], revs[v - 1]));
  for (int v = 0; v <= kNewest; ++v) {
    // Each revision's entry carries every hop down to revision 0, so one
    // resolve hands a broker the whole retro-chain.
    morph::fmtsvc::FormatEntry entry{revs[v], {}};
    for (int h = v; h >= 1; --h) entry.transforms.push_back(hops[h - 1]);
    catalog_.push_back(std::move(entry));
  }
  reader_ = revs[kNewest];
  sinks_ = {{"v4-pbio", revs[4], SinkEncoding::kPbio},
            {"v2-pbio", revs[2], SinkEncoding::kPbio},
            {"v0-pbio", revs[0], SinkEncoding::kPbio}};

  auto rev = std::make_unique<Revision>();
  rev->format = revs[kNewest];
  for (const SinkSpec& sink : sinks_) {
    int target = sink.format == revs[4] ? 4 : sink.format == revs[2] ? 2 : 0;
    if (target == kNewest) {
      rev->chains.push_back(nullptr);
      continue;
    }
    std::vector<const TransformSpec*> ptrs;
    for (int v = kNewest; v > target; --v) {
      rev->specs.push_back(std::make_unique<TransformSpec>(hops[v - 1]));
      ptrs.push_back(rev->specs.back().get());
    }
    rev->chains.push_back(std::make_shared<MorphChain>(ptrs, morph::ecode::CompileOptions{}));
  }
  Rng rng(seed_);
  for (uint64_t p = 0; p < kPool; ++p) {
    add_pool_entry(*rev, morph::pbio::random_record(rng, rev->format, arena_));
  }
  rev->prepared = true;
  revisions_.push_back(std::move(rev));
}

void Workload::build_response() {
  // ChannelOpenResponse v2 events; v1 carries protobuf field numbers so
  // one morph to v1 serves both the PBIO and the protobuf sink.
  FormatPtr v2 = morph::echo::channel_open_response_v2_format();
  FormatPtr v1 = morph::pbuf::annotate_field_numbers(*morph::echo::channel_open_response_v1_format());
  TransformSpec spec = morph::echo::response_v2_to_v1_spec();
  spec.dst = v1;
  catalog_.push_back({v2, {spec}});
  catalog_.push_back({v1, {}});
  reader_ = v2;
  sinks_ = {{"v2-pbio", v2, SinkEncoding::kPbio},
            {"v1-pbio", v1, SinkEncoding::kPbio},
            {"v1-pbuf", v1, SinkEncoding::kPbuf}};

  auto rev = std::make_unique<Revision>();
  rev->format = v2;
  rev->specs.push_back(std::make_unique<TransformSpec>(spec));
  auto chain = std::make_shared<MorphChain>(
      std::vector<const TransformSpec*>{rev->specs.back().get()}, morph::ecode::CompileOptions{});
  rev->chains = {nullptr, chain, chain};
  for (uint64_t p = 0; p < kPool; ++p) {
    // bench::make_payload: a ~10 KB v2.0 response, seeded per pool entry.
    Rng rng(seed_ * kPool + p);
    morph::echo::ResponseWorkload w;
    w.members = morph::echo::members_for_target_size(10u << 10, w);
    add_pool_entry(*rev, morph::echo::make_response_v2(w, rng, arena_));
  }
  rev->prepared = true;
  revisions_.push_back(std::move(rev));
}

void Workload::build_churn_catalog() {
  // Revision 0 is what every reader speaks. Revisions 1..N are seeded:
  // about a quarter append 1-3 fields (MaxMatch reconciles them, no code),
  // the rest rename every field and ship a direct retro-transform to rev 0.
  // The mix is deliberately uneven: with equal shares the median cold
  // latency would flip between the two kinds' costs from seed to seed.
  FormatPtr rev0 = telemetry_format("Telemetry");
  reader_ = rev0;
  catalog_.push_back({rev0, {}});
  sinks_ = {{"r0-pbio-a", rev0, SinkEncoding::kPbio},
            {"r0-pbio-b", rev0, SinkEncoding::kPbio},
            {"r0-pbio-c", rev0, SinkEncoding::kPbio}};

  revisions_.push_back(nullptr);  // index 0 is the reader's own revision
  for (uint64_t r = 1; r <= kChurnMaxRevisions; ++r) {
    Rng rng(seed_ * 0x9E3779B97F4A7C15ull + r);
    auto rev = std::make_unique<Revision>();
    rev->index = r;
    FormatBuilder b("Telemetry");
    if (rng.next_u64() % 4 == 0) {
      rev->reconcile_only = true;
      b = telemetry_fields(std::move(b));
      uint64_t extra = 1 + rng.next_u64() % 3;
      for (uint64_t i = 0; i < extra; ++i) {
        std::string fname = "x" + std::to_string(r) + "_" + std::to_string(i);
        if (rng.next_u64() % 2 == 0) {
          b.add_int(fname, 8);
        } else {
          b.add_float(fname, 8);
        }
      }
      rev->format = b.build();
      catalog_.push_back({rev->format, {}});
    } else {
      std::vector<size_t> order(std::size(kTelemetryFields));
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.next_u64() % (i + 1)]);
      }
      std::string prefix = "r" + std::to_string(r) + "_";
      for (size_t i : order) {
        const FieldDef& f = kTelemetryFields[i];
        if (f.is_float) {
          b.add_float(prefix + f.name, f.size);
        } else {
          b.add_int(prefix + f.name, f.size);
        }
      }
      rev->format = b.build();
      std::string code;
      for (const FieldDef& f : kTelemetryFields) {
        int64_t c = static_cast<int64_t>(rng.next_u64() % 97) + 1;
        code += std::string("old.") + f.name + " = new." + prefix + f.name +
                (f.is_float ? " * " + std::to_string(c) + ".5;" : " + " + std::to_string(c) + ";");
      }
      rev->specs.push_back(std::make_unique<TransformSpec>(TransformSpec{rev->format, rev0, code}));
      catalog_.push_back({rev->format, {*rev->specs.back()}});
    }
    revisions_.push_back(std::move(rev));
  }
}

void Workload::add_input(Revision& rev, const void* record) {
  rev.pool.push_back(record);
  ByteBuffer wire = encode(rev.format, record);
  rev.frames.emplace_back();
  morph::transport::write_frame(rev.frames.back(), morph::transport::FrameType::kData, wire.data(),
                                wire.size());
}

void Workload::add_pool_entry(Revision& rev, const void* record) {
  add_input(rev, record);
  rev.expected.resize(sinks_.size());
  for (size_t j = 0; j < sinks_.size(); ++j) {
    const auto& chain = rev.chains.empty() ? nullptr : rev.chains[j];
    rev.expected[j].push_back(chain ? oracle(*chain, rev.format, record) : encode(rev.format, record));
  }
}

void Workload::prepare_revision(Revision& rev) {
  if (rev.prepared) return;
  FormatPtr rev0 = reader_;
  Rng rng(seed_ * 0x2545F4914F6CDD1Dull + rev.index);
  if (rev.reconcile_only) {
    // Reference by construction: a random rev-0 record, extended with the
    // revision's extra fields. Reconciliation must hand back the rev-0
    // part unchanged.
    rev.chains.assign(sinks_.size(), nullptr);
    rev.expected.assign(sinks_.size(), {});
    for (uint64_t p = 0; p < kPool; ++p) {
      void* base = morph::pbio::random_record(rng, rev0, arena_);
      morph::pbio::DynValue dyn = morph::pbio::to_dyn(*rev0, base);
      morph::pbio::DynStruct ext{rev.format, dyn.as_struct().fields};
      for (size_t i = ext.fields.size(); i < rev.format->fields().size(); ++i) {
        if (rev.format->fields()[i].kind == morph::pbio::FieldKind::kFloat) {
          ext.fields.emplace_back(static_cast<double>(rng.next_u64() % 1000) / 8.0);
        } else {
          ext.fields.emplace_back(static_cast<int64_t>(rng.next_u64() % 100000));
        }
      }
      add_input(rev, morph::pbio::from_dyn(morph::pbio::DynValue(std::move(ext)), arena_));
      ByteBuffer want = encode(rev0, base);
      for (size_t j = 0; j < sinks_.size(); ++j) rev.expected[j].push_back(want);
    }
  } else {
    morph::ecode::CompileOptions copts;
    auto chain = std::make_shared<MorphChain>(
        std::vector<const TransformSpec*>{rev.specs.front().get()}, copts);
    rev.chains.assign(sinks_.size(), chain);
    for (uint64_t p = 0; p < kPool; ++p) {
      add_pool_entry(rev, morph::pbio::random_record(rng, rev.format, arena_));
    }
  }
  rev.prepared = true;
}

void Workload::prepare(uint64_t n) {
  if (n <= prepared_) return;
  if (churn_) {
    uint64_t last = revision_of(n - 1);
    if (last > kChurnMaxRevisions) {
      throw std::runtime_error("revision-churn: schedule needs more revisions than the catalog");
    }
    for (uint64_t r = 1; r <= last; ++r) prepare_revision(*revisions_[r]);
  }
  prepared_ = n;
}

uint64_t Workload::revision_of(uint64_t k) const {
  if (!churn_) return 0;
  uint64_t newest = 1 + k / kChurnEventsPerRevision;
  uint64_t window = std::min(kChurnWindow, newest);
  return newest - (k % kChurnEventsPerRevision) % window;
}

const ByteBuffer& Workload::frame(uint64_t k) const {
  const Revision& rev = *revisions_[churn_ ? revision_of(k) : 0];
  return rev.frames[k % kPool];
}

const ByteBuffer& Workload::expected(size_t j, uint64_t k) const {
  const Revision& rev = *revisions_[churn_ ? revision_of(k) : 0];
  return rev.expected[j][k % kPool];
}

}  // namespace perfbench
