// EncodePlan: the golden encode transcript and the allocation discipline.
//
// tests/golden/pbuf_encode.hex holds the protobuf bytes of a fixed corpus:
// ChannelOpenResponse v1/v2 at three payload sizes, the ~100 B telemetry
// record, seeded random records of every examples/proto schema, and
// hand-built edge records (zigzag zero and extremes, fixed-width ints,
// float -0.0, empty strings, all-default nested structs, packed arrays,
// string arrays with empty elements). The transcript was recorded from the
// recursive encoder the compiled plan replaced; any encoder must reproduce
// it byte for byte.
//
// The allocation tests count operator new on the calling thread: a warm
// encode allocates nothing, and a shared kPbufData frame is built in one
// allocation of its exact size.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "echo/messages.hpp"
#include "pbio/randgen.hpp"
#include "pbio/record.hpp"
#include "pbuf/bridge.hpp"
#include "pbuf/schema.hpp"
#include "transport/framing.hpp"
#include "transport/port.hpp"

namespace {
thread_local size_t t_allocations = 0;  // operator new calls on this thread
}  // namespace

// Counting replacements of the global allocation functions (every other
// form forwards to these). GCC cannot see that new and delete both end in
// malloc/free here and flags the pairing.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace morph::pbuf {
namespace {

using pbio::FieldKind;
using pbio::FormatBuilder;
using pbio::FormatDescriptor;
using pbio::FormatPtr;
using pbio::RecordRef;

struct GoldenCase {
  std::string name;
  FormatPtr fmt;
  const void* record;
};

std::string read_proto(const std::string& name) {
  std::ifstream in(std::string(MORPH_PROTO_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The ~100 B scalar telemetry record of the end-to-end benchmark's
/// telemetry workloads, with field numbers assigned in declaration order.
FormatPtr telemetry_format() {
  return annotate_field_numbers(*FormatBuilder("Telemetry")
                                     .add_int("seq", 8)
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
                                     .add_int("b", 8)
                                     .build());
}

FormatPtr edge_inner_format() {
  FormatPtr deep = FormatBuilder("EdgeDeep").add_int("c", 8).with_pb_field(1).build();
  return FormatBuilder("EdgeInner")
      .add_int("a", 4)
      .with_pb_field(1)
      .add_string("b")
      .with_pb_field(2)
      .add_struct("d", deep)
      .with_pb_field(3)
      .build();
}

/// Every scalar wire variant, nested and repeated shapes, in one message.
FormatPtr edge_format() {
  return FormatBuilder("Edge")
      .add_int("zz32", 4)
      .with_pb_field(1 | pbio::kPbZigzag)
      .add_int("zz64", 8)
      .with_pb_field(2 | pbio::kPbZigzag)
      .add_uint("fx32", 4)
      .with_pb_field(3 | pbio::kPbFixed)
      .add_uint("fx64", 8)
      .with_pb_field(4 | pbio::kPbFixed)
      .add_int("sfx32", 4)
      .with_pb_field(5 | pbio::kPbFixed)
      .add_int("sfx64", 8)
      .with_pb_field(6 | pbio::kPbFixed)
      .add_float("f32", 4)
      .with_pb_field(7)
      .add_float("f64", 8)
      .with_pb_field(8)
      .add_string("s")
      .with_pb_field(9)
      .add_struct("inner", edge_inner_format())
      .with_pb_field(10)
      .add_int("i8", 1)
      .with_pb_field(11)
      .add_uint("u16", 2)
      .with_pb_field(12)
      .add_char("ch")
      .with_pb_field(13)
      .add_enum("en", {{"ZERO", 0}, {"ONE", 1}, {"NEG", -3}})
      .with_pb_field(14)
      .add_int("plain", 4)
      .with_pb_field(15)
      .add_int("fx16", 2)
      .with_pb_field(16 | pbio::kPbFixed)
      .add_uint("xs_count", 4)
      .add_dyn_array("xs", FieldKind::kInt, 4, "xs_count")
      .with_pb_field(17)
      .add_uint("zs_count", 4)
      .add_dyn_array("zs", FieldKind::kInt, 8, "zs_count")
      .with_pb_field(18 | pbio::kPbZigzag)
      .add_uint("fs_count", 4)
      .add_dyn_array("fs", FieldKind::kFloat, 4, "fs_count")
      .with_pb_field(19)
      .add_uint("ds_count", 4)
      .add_dyn_array("ds", FieldKind::kFloat, 8, "ds_count")
      .with_pb_field(20)
      .add_uint("us_count", 4)
      .add_dyn_array("us", FieldKind::kUInt, 8, "us_count")
      .with_pb_field(21 | pbio::kPbFixed)
      .add_uint("ss_count", 4)
      .add_dyn_array("ss", FieldKind::kString, 8, "ss_count")
      .with_pb_field(22)
      .add_uint("ins_count", 4)
      .add_dyn_array("ins", edge_inner_format(), "ins_count")
      .with_pb_field(23)
      .add_uint("es_count", 4)
      .add_dyn_array("es", FieldKind::kUInt, 2, "es_count")
      .with_pb_field(24)
      .build();
}

/// Fill a scalar dyn array from `values`, element type T.
template <typename T>
void set_array(RecordRef r, const char* name, const std::vector<T>& values,
               RecordArena& arena) {
  const auto* fd = r.format()->find_field(name);
  void* base = nullptr;
  for (uint64_t i = 0; i < values.size(); ++i) {
    base = pbio::grow_dyn_array(r.data(), *fd, arena, i);
  }
  if (base != nullptr) std::memcpy(base, values.data(), values.size() * sizeof(T));
  r.set_int(fd->length_field, static_cast<int64_t>(values.size()));
}

void set_strings(RecordRef r, const char* name, const std::vector<std::string>& values,
                 RecordArena& arena) {
  std::vector<const char*> ptrs;
  for (const auto& s : values) ptrs.push_back(arena.copy_string(s));
  set_array(r, name, ptrs, arena);
}

struct InnerValues {
  int32_t a = 0;
  const char* b = nullptr;
  int64_t c = 0;
};

void set_inner(RecordRef inner, const InnerValues& v, RecordArena& arena) {
  inner.set_int("a", v.a);
  if (v.b != nullptr) inner.set_string("b", v.b, arena);
  inner.get_struct("d").set_int("c", v.c);
}

void set_inners(RecordRef r, const std::vector<InnerValues>& values, RecordArena& arena) {
  const auto* fd = r.format()->find_field("ins");
  for (uint64_t i = 0; i < values.size(); ++i) {
    auto* base = static_cast<uint8_t*>(pbio::grow_dyn_array(r.data(), *fd, arena, i));
    set_inner(RecordRef(base + i * fd->element_stride(), fd->element_format), values[i],
              arena);
  }
  r.set_int("ins_count", static_cast<int64_t>(values.size()));
}

/// Hand-built edge records of edge_format().
std::vector<GoldenCase> edge_cases(RecordArena& arena) {
  const FormatPtr fmt = edge_format();
  std::vector<GoldenCase> cases;
  auto fresh = [&] { return RecordRef(pbio::alloc_record(*fmt, arena), fmt); };
  constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();
  constexpr int32_t kMin32 = std::numeric_limits<int32_t>::min();

  // All zero: proto3 omits every field, so the message is empty.
  cases.push_back({"edge/all-default", fmt, fresh().data()});

  // Zero-valued scalars, -0.0 floats, empty strings and an all-default
  // nested struct are omitted; repeated elements are always emitted.
  {
    RecordRef r = fresh();
    r.set_float("f32", -0.0);
    r.set_float("f64", -0.0);
    r.set_string("s", "", arena);
    set_array<int32_t>(r, "xs", {0, -1, 1, kMin32}, arena);
    set_array<int64_t>(r, "zs", {0, -1, kMin64, kMax64}, arena);
    set_array<float>(r, "fs", {-0.0f, 1.5f, 0.0f}, arena);
    set_array<double>(r, "ds", {-0.0, 1e300}, arena);
    set_array<uint64_t>(r, "us", {0, ~0ull}, arena);
    set_strings(r, "ss", {"", "a", ""}, arena);
    set_inners(r, {{}, {-5, "", 0}, {0, "x", 7}}, arena);
    set_array<uint16_t>(r, "es", {0, 65535}, arena);
    cases.push_back({"edge/zeros-and-repeated", fmt, r.data()});
  }

  // Negative zigzag ints, sign-extended fixed-width ints, every scalar kind.
  {
    RecordRef r = fresh();
    r.set_int("zz32", -1);
    r.set_int("zz64", kMin64);
    r.set_int("fx32", 0xDEADBEEF);
    r.set_int("fx64", static_cast<int64_t>(0xFEEDFACECAFEBEEFull));
    r.set_int("sfx32", kMin32);
    r.set_int("sfx64", -2);
    r.set_float("f32", 3.25);
    r.set_float("f64", -2.5);
    r.set_string("s", "edge", arena);
    r.set_int("i8", -7);
    r.set_int("u16", 65535);
    r.set_int("ch", 'z');
    r.set_int("en", -3);
    r.set_int("plain", -1);
    r.set_int("fx16", -1);
    set_inner(r.get_struct("inner"), {0, nullptr, 1}, arena);  // only the deep leaf set
    cases.push_back({"edge/negatives", fmt, r.data()});
  }

  // Positive extremes and single-element arrays holding zeros.
  {
    RecordRef r = fresh();
    r.set_int("zz32", std::numeric_limits<int32_t>::max());
    r.set_int("zz64", kMax64);
    r.set_int("sfx32", 1);
    r.set_int("plain", std::numeric_limits<int32_t>::max());
    r.set_int("i8", 127);
    r.set_int("en", 1);
    set_inner(r.get_struct("inner"), {-1, "nested", kMin64}, arena);
    set_array<int32_t>(r, "xs", {0}, arena);
    set_array<int64_t>(r, "zs", {0}, arena);
    set_array<float>(r, "fs", {0.0f}, arena);
    set_strings(r, "ss", {""}, arena);
    set_inners(r, {{}}, arena);
    cases.push_back({"edge/extremes", fmt, r.data()});
  }
  return cases;
}

/// The full corpus, in transcript order. Records live in `arena`.
std::vector<GoldenCase> golden_corpus(RecordArena& arena) {
  std::vector<GoldenCase> cases;

  const FormatPtr v1 = annotate_field_numbers(*echo::channel_open_response_v1_format());
  const FormatPtr v2 = annotate_field_numbers(*echo::channel_open_response_v2_format());
  const std::pair<const char*, size_t> sizes[] = {{"100B", 100}, {"1KB", 1 << 10},
                                                  {"10KB", 10 << 10}};
  for (const auto& [label, bytes] : sizes) {
    Rng rng(42);
    echo::ResponseWorkload w;
    w.members = echo::members_for_target_size(bytes, w);
    auto* rec_v2 = echo::make_response_v2(w, rng, arena);
    cases.push_back({std::string("response-v2/") + label, v2, rec_v2});
    cases.push_back({std::string("response-v1/") + label, v1,
                     echo::transform_v2_to_v1_reference(*rec_v2, arena)});
  }

  const FormatPtr telemetry = telemetry_format();
  Rng telemetry_rng(7);
  for (int i = 0; i < 4; ++i) {
    cases.push_back({"telemetry/" + std::to_string(i), telemetry,
                     pbio::random_record(telemetry_rng, telemetry, arena)});
  }

  Rng proto_rng(2026);
  for (const char* file : {"roster.proto", "sensor.proto", "telemetry.proto"}) {
    for (const FormatPtr& fmt : parse_proto(read_proto(file))) {
      for (int i = 0; i < 4; ++i) {
        cases.push_back({std::string(file) + "/" + fmt->name() + "/" + std::to_string(i), fmt,
                         pbio::random_record(proto_rng, fmt, arena)});
      }
    }
  }

  for (auto& c : edge_cases(arena)) cases.push_back(std::move(c));
  return cases;
}

/// Read a named hex transcript: '#' lines are comments, "@ <name>" starts a
/// case, every other line is hex byte pairs appended to the current case.
std::vector<std::pair<std::string, std::vector<uint8_t>>> read_golden(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::vector<std::pair<std::string, std::vector<uint8_t>>> cases;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("@ ", 0) == 0) {
      cases.emplace_back(line.substr(2), std::vector<uint8_t>{});
      continue;
    }
    EXPECT_FALSE(cases.empty()) << "hex before the first case header";
    if (cases.empty()) break;
    for (size_t i = 0; i + 1 < line.size(); i += 2) {
      cases.back().second.push_back(
          static_cast<uint8_t>(std::stoi(line.substr(i, 2), nullptr, 16)));
    }
  }
  return cases;
}

TEST(PbufEncode, BytesMatchGoldenTranscript) {
  RecordArena arena;
  const std::vector<GoldenCase> corpus = golden_corpus(arena);
  const auto golden = read_golden(MORPH_GOLDEN_DIR "/pbuf_encode.hex");
  ASSERT_EQ(golden.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    const GoldenCase& c = corpus[i];
    ASSERT_EQ(golden[i].first, c.name);
    ByteBuffer out;
    const size_t n = EncodePlan(c.fmt).encode(c.record, out);
    EXPECT_EQ(n, out.size()) << c.name;
    EXPECT_EQ(std::vector<uint8_t>(out.data(), out.data() + out.size()), golden[i].second)
        << c.name;
  }
}

/// The 10 KB v1 response of the response-10k-pbuf workload: 747
/// submessages across three member lists.
struct V1Response {
  RecordArena arena;
  FormatPtr fmt = annotate_field_numbers(*echo::channel_open_response_v1_format());
  const void* record = nullptr;
  V1Response() {
    Rng rng(42);
    echo::ResponseWorkload w;
    w.members = echo::members_for_target_size(10 << 10, w);
    record = echo::transform_v2_to_v1_reference(*echo::make_response_v2(w, rng, arena), arena);
  }
};

TEST(PbufEncode, WarmEncodeMakesNoAllocation) {
  V1Response v1;
  EncodePlan plan(v1.fmt);
  EncodeScratch scratch;
  const size_t n = plan.measure(v1.record, scratch);  // grows the scratch once
  std::vector<uint8_t> direct(n);
  ByteBuffer out;
  plan.encode(v1.record, out);  // grows encode()'s per-thread scratch once
  out.clear();

  const size_t before = t_allocations;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(plan.measure(v1.record, scratch), n);
    plan.write(v1.record, scratch, direct.data());
    out.clear();
    plan.encode(v1.record, out);  // `out` kept its capacity
  }
  EXPECT_EQ(t_allocations, before);
  EXPECT_EQ(std::vector<uint8_t>(out.data(), out.data() + out.size()), direct);
}

TEST(PbufEncode, SharedPbufFrameIsOneExactAllocation) {
  V1Response v1;
  EncodePlan plan(v1.fmt);
  EncodeScratch scratch;
  constexpr uint64_t kTrace = 0x1234;
  (void)transport::make_shared_pbuf_frame(plan, v1.record, scratch, kTrace);  // warm

  const size_t before = t_allocations;
  transport::SharedPayload frame = transport::make_shared_pbuf_frame(plan, v1.record, scratch, kTrace);
  // One for the shared_ptr block holding the ByteBuffer, one for the bytes.
  EXPECT_EQ(t_allocations - before, 2u);
  EXPECT_EQ(frame->vec().capacity(), frame->size());

  ByteBuffer encoded;
  plan.encode(v1.record, encoded);
  ByteBuffer payload(sizeof(uint64_t) + encoded.size());
  payload.append_u64(v1.fmt->fingerprint());
  payload.append(encoded.data(), encoded.size());
  ByteBuffer expected;
  transport::write_frame(expected, transport::FrameType::kPbufData, payload.data(), payload.size(),
                         kTrace);
  EXPECT_EQ(frame->vec(), expected.vec());
}

TEST(PbufEncode, NestingBeyondTheCapIsAFormatErrorAndWritesNothing) {
  FormatPtr fmt = FormatBuilder("Leaf").add_int("v", 4).with_pb_field(1).build();
  for (size_t depth = 0; depth <= FormatDescriptor::kMaxNesting; ++depth) {
    fmt = FormatBuilder("Level" + std::to_string(depth))
              .add_struct("next", fmt)
              .with_pb_field(1)
              .build();
  }
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  ByteBuffer out;
  out.append_u8(0xAB);
  EXPECT_THROW(EncodePlan(fmt).encode(rec, out), FormatError);
  EXPECT_EQ(out.size(), 1u);
}

}  // namespace
}  // namespace morph::pbuf
